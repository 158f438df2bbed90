"""qgroth benchmark: one client driving ``qgroth.cli.main`` in a closed loop.

    python3 perfbench/run.py --workload canonical --seed 1 --seconds 15 --trace 0

The client sends the next request only after the previous one returns, all in
this one process and thread.  Requests come from the seeded generator in
``workloads.py`` and are measured in whole rounds, as many as last about
``--seconds`` of request time corrected for host speed at the commit that
added the benchmark.  Every answer is checked after the loop.  The last line of standard output is one JSON object: the
end-to-end metrics with ``--trace 0``, and with ``--trace 1`` the per-layer
metrics of a traced run, whose requests alternate with untraced runs of the
same argv to measure the tracing overhead.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import select
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402
from perfbench.checker import Outcome, check  # noqa: E402

SETUP_PROBES = 5  # fresh processes whose set-up times give setup_s
# Reported times are corrected to the host speed at which one pass of
# speed_kernel() takes REF_KERNEL_S.  The kernel runs between requests, at
# most every CAL_INTERVAL_S; each request is scaled by the kernel times just
# before and after it.  Without this, the speed of a shared host drifting by
# +-25% over tens of seconds moves every time figure between runs by more
# than any useful regression bound.
REF_KERNEL_S = 0.010
CAL_INTERVAL_S = 0.2
SETUP_TIMEOUT_S = 120
MAX_WALL_FACTOR = 4  # stop early once a timed run took this many times --seconds
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
TRACE_DIR = ROOT / ".perfbench"


class SetupError(RuntimeError):
    pass


def speed_kernel() -> int:
    """Sparse polynomial product over tuple keys: interpreted dict, tuple and
    integer work like the program's, but independent of it."""
    a = {(e, e % 3): e + 1 for e in range(200)}
    b = {(e, e % 5): 2 - e for e in range(200)}
    out: dict[tuple[int, int], int] = {}
    for (e1, f1), v1 in a.items():
        for (e2, f2), v2 in b.items():
            k = (e1 + e2, f1 + f2)
            w = out.get(k, 0) + v1 * v2
            if w:
                out[k] = w
            else:
                out.pop(k, None)
    return len(out)


def kernel_seconds() -> float:
    start = time.perf_counter()
    speed_kernel()
    return time.perf_counter() - start


def run_request(cli, argv: list[str]) -> Outcome:
    """One closed-loop request.  An exception escaping main is a failed request."""
    out, err = io.StringIO(), io.StringIO()
    code, caught = None, None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception as exc:  # the loop must survive any request
        caught = exc
    seconds = time.perf_counter() - start
    error = "".join(traceback.format_exception(caught)) if caught is not None else None
    return Outcome(argv, code, out.getvalue(), err.getvalue(), error, seconds)


def setup(workload: str):
    """Import the program, build the quantum Cartan tables and send one untimed
    request per (subcommand, type) of the mix."""
    from qgroth import cli
    from qgroth.cartan import cartan_datum
    from qgroth.qcartan import quantum_cartan

    for type_name in workloads.TYPES[workload]:
        quantum_cartan(cartan_datum(type_name))
    for argv in workloads.WARMUPS[workload]:
        reason = check(run_request(cli, argv))
        if reason is not None:
            raise SetupError(f"warm-up {' '.join(argv)} failed: {reason}")
    return cli


def probe_setup(workload: str) -> float:
    """Seconds, corrected for host speed, from spawning a fresh process to its
    being ready for the first timed request."""
    before = statistics.median(kernel_seconds() for _ in range(3))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            elapsed = time.perf_counter() - start
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SetupError(f"set-up probe exited with {proc.returncode}")
    after = statistics.median(kernel_seconds() for _ in range(3))
    return elapsed * 2 * REF_KERNEL_S / (before + after)


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the order statistics averaged
    with Beta(p(n+1), (1-p)(n+1)) weights.  Unlike a single order statistic it
    does not jump when the sample at the p-th position sits at a gap between
    latency clusters."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16  # midpoint rule over each interval [i/n, (i+1)/n]
    total = weight = 0.0
    for i, value in enumerate(ordered):
        w = 0.0
        for j in range(steps):
            x = (i + (j + 0.5) / steps) / n
            w += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        total += w * value
        weight += w
    return total / weight


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it:
    (value, percentile, samples beyond).  Short runs fall back to the maximum."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return max(latencies), 100.0, 0
    p = (n - TAIL_BEYOND) / n
    return hd_quantile(latencies, p), 100.0 * p, TAIL_BEYOND


def check_all(outcomes: list[Outcome]) -> int:
    failed = 0
    for o in outcomes:
        reason = check(o)
        if reason is not None:
            failed += 1
            if failed <= 5:
                print(f"FAILED {' '.join(o.argv)}: {reason}", file=sys.stderr)
    return failed


def describe(workload: str, requests: list[list[str]], rounds: int) -> None:
    print(f"workload {workload}: {workloads.REASONS[workload]}")
    print(f"requests {len(requests)} in {rounds} rounds; argv repeating an earlier one: "
          f"{100 * workloads.repeat_share(requests):.1f}%")


def timed_run(cli, workload: str, seed: int, seconds: float, setup_samples: list[float],
              own_setup_s: float) -> dict:
    outcomes: list[Outcome] = []
    kernel = [kernel_seconds()]
    before = []  # index of the last kernel sample before each request
    gen = workloads.rounds(workload, seed)
    rounds = max(1, math.ceil(seconds / workloads.ROUND_SECONDS[workload]))
    start = last_sample = time.perf_counter()
    for done in range(1, rounds + 1):
        for argv in next(gen):
            if time.perf_counter() - last_sample >= CAL_INTERVAL_S:
                kernel.append(kernel_seconds())
                last_sample = time.perf_counter()
            before.append(len(kernel) - 1)
            outcomes.append(run_request(cli, argv))
        kernel.append(kernel_seconds())
        last_sample = time.perf_counter()
        if time.perf_counter() - start >= MAX_WALL_FACTOR * seconds:
            break  # a much slower program still ends in time
    rounds = done
    latencies = [o.seconds * 2 * REF_KERNEL_S / (kernel[b] + kernel[b + 1])
                 for o, b in zip(outcomes, before)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = check_all(outcomes)
    raw = [o.seconds for o in outcomes]
    n = len(outcomes)
    tail_s, tail_pct, beyond = tail(latencies)
    metrics = {
        "requests_per_s": (n / sum(latencies), "1/s"),
        "latency_p50_s": (hd_quantile(latencies, 0.5), "s"),
        "latency_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    describe(workload, [o.argv for o in outcomes], rounds)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"latency_tail_s is p{tail_pct:.1f}: {beyond} of {n} samples beyond it")
    print(f"failed_ratio = {failed / n:.6g} ratio ({failed} of {n} requests)")
    print(f"setup_s is the median of {len(setup_samples)} fresh processes: "
          + ", ".join(f"{s:.4f}" for s in setup_samples) + f" s; this process: {own_setup_s:.4f} s raw")
    print(f"times are corrected to a {1000 * REF_KERNEL_S:g} ms speed-kernel pass; uncorrected: "
          f"{n / sum(raw):.6g} requests/s, p50 {statistics.median(raw):.6g} s; kernel pass "
          f"median {1000 * statistics.median(kernel):.4g} ms over {len(kernel)} samples")
    return {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def traced_run(cli, workload: str, seed: int, seconds: float) -> dict:
    from perfbench.tracer import MODULES, SPANS, Tracer, restored

    tracer = Tracer()
    outcomes: list[Outcome] = []
    traces = []
    wall = {True: 0.0, False: 0.0}
    restore_ok = True
    gen = workloads.rounds(workload, seed)
    rounds = 0
    start = time.perf_counter()
    while True:
        for argv in next(gen):
            # alternate which run goes first, so that neither always meets
            # the module-level caches cold
            for traced in (False, True) if len(traces) % 2 == 0 else (True, False):
                if traced:
                    tracer.install()
                    tracer.begin(len(traces))
                    try:
                        o = run_request(cli, argv)
                    finally:
                        restore_ok &= restored(tracer.uninstall())
                    traces.append(tracer.end())
                else:
                    o = run_request(cli, argv)
                wall[traced] += o.seconds
                outcomes.append(o)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break

    failed = check_all(outcomes)
    consistent = all(t.consistent for t in traces)
    if not consistent:
        print("span self times do not sum to the cli.main duration", file=sys.stderr)
    if not restore_ok:
        print("a patched binding was not restored", file=sys.stderr)

    n = len(traces)
    calls = [sum(t.calls[sid] for t in traces) for sid in range(len(SPANS))]
    self_ns = [sum(t.self_ns[sid] for t in traces) for sid in range(len(SPANS))]
    metrics: dict[str, tuple[float, str]] = {}
    notes = []
    for sid, (name, _, _, ratio) in enumerate(SPANS):
        metrics[f"{name}.calls"] = (calls[sid] / n, "count")
        metrics[f"{name}.self_s"] = (self_ns[sid] / n / 1e9, "s")
        if ratio is not None:
            value = tracer.ratio_hits[sid] / calls[sid] if calls[sid] else 0.0
            metrics[f"{name}.{ratio}_ratio"] = (value, "ratio")
            notes.append(f"{name}.{ratio}_ratio = {value:.6g} (base: {calls[sid]} calls)")
    for module in MODULES:
        total = sum(self_ns[sid] for sid, span in enumerate(SPANS) if span[0].split(".")[0] == module)
        metrics[f"{module}.self_s"] = (total / n / 1e9, "s")
    overhead = wall[True] / wall[False]
    metrics["trace.overhead_ratio"] = (overhead, "ratio")

    describe(workload, [o.argv for o in outcomes[::2]], rounds)
    print(f"traced requests {n}; calls and self_s are means per request")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for note in notes:
        print(note)
    print(f"trace.overhead_ratio is traced {wall[True]:.3f} s / untraced {wall[False]:.3f} s "
          f"over the same {n} argv")

    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{workload}-seed{seed}.json"
    rows = [
        {
            "request": t.request,
            "argv": outcomes[2 * t.request].argv,
            "cli_main_ns": t.root_ns,
            "spans": {SPANS[sid][0]: [t.calls[sid], t.self_ns[sid]]
                      for sid in range(len(SPANS)) if t.calls[sid]},
        }
        for t in traces
    ]
    path.write_text(json.dumps(rows) + "\n")
    print(f"per-request span totals written to {path.relative_to(ROOT)}")
    return {
        "correct": failed == 0 and consistent and restore_ok,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qgroth" / "cli.py").is_file():
        print(f"qgroth sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_only:
        setup(args.workload)
        print("ready", flush=True)
        return 0

    if args.trace:
        result = traced_run(setup(args.workload), args.workload, args.seed, args.seconds)
    else:
        samples = [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
        start = time.perf_counter()
        cli = setup(args.workload)
        own_setup_s = time.perf_counter() - start
        result = timed_run(cli, args.workload, args.seed, args.seconds, samples, own_setup_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
