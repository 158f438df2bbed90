"""Tests of the benchmark's own code: generator, checker, tracer."""

import json

import pytest

from perfbench import workloads
from perfbench.checker import Outcome, check
from perfbench.run import hd_quantile, run_request, tail
from perfbench.tracer import SPANS, Tracer, restored, self_times


def take(workload, seed, n_rounds=3):
    gen = workloads.rounds(workload, seed)
    return [argv for _ in range(n_rounds) for argv in next(gen)]


@pytest.mark.parametrize("workload", sorted(workloads.ROUNDS))
def test_same_seed_same_argv(workload):
    assert take(workload, 7) == take(workload, 7)
    assert take(workload, 7) != take(workload, 8)


def test_canonical_round_is_type_uniform():
    batch = take("canonical", 3, n_rounds=1)
    types = [argv[argv.index("--type") + 1] for argv in batch]
    assert {t: types.count(t) for t in set(types)} == {"A3": 8, "A4": 8, "D4": 8}
    assert len({tuple(a) for a in batch}) == 20


def test_repeat_share():
    assert workloads.repeat_share([["a"], ["b"], ["a"], ["a"]]) == 0.5
    assert workloads.repeat_share([]) == 0.0


def test_self_times_on_synthetic_tree():
    # root 0..100 with children A 10..40 (child C 15..20), B 30..60 overlapping
    # A, and D 90..120 reaching past the root's end
    starts = [0, 10, 15, 30, 90]
    ends = [100, 40, 20, 60, 120]
    parents = [-1, 0, 1, 0, 0]
    # root: covered by the union 10..60 and 90..100
    assert self_times(starts, ends, parents) == [40, 25, 5, 30, 30]


def test_self_times_of_nested_spans_sum_to_root():
    starts = [0, 5, 6, 20, 21, 31]
    ends = [50, 15, 9, 40, 30, 39]
    parents = [-1, 0, 1, 0, 3, 3]
    assert sum(self_times(starts, ends, parents)) == 50


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = tail([float(x) for x in range(40)])
    assert (pct, beyond) == (75.0, 10)
    assert 29.0 < value < 30.0
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_hd_quantile():
    assert hd_quantile([0.5] * 7, 0.9) == pytest.approx(0.5)
    assert hd_quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == pytest.approx(3.0)
    # it moves smoothly where a single order statistic would jump a gap
    low, high = [1.0] * 10, [2.0] * 10
    assert 1.4 < hd_quantile(low + high, 0.5) < 1.6


def outcome(argv, stdout, code=0, error=None):
    return Outcome(argv, code, stdout, "", error, 0.0)


SIMPLE = ["qchar", "simple", "--type", "A3", "-m", "Y[1,0]Y[2,1]", "--format", "json"]


def test_checker_accepts_good_answers():
    terms = [[[[1, 0, 1], [2, 1, 1]], [[0, 1]]], [[[3, 2, 1]], [[-1, 1], [1, 1]]]]
    assert check(outcome(SIMPLE, json.dumps({"kind": "simple", "terms": terms}))) is None
    assert check(outcome(["canonical"], '{"ok": true, "rows": []}')) is None
    relations = ["hall", "relations", "--type", "A3", "--q", "3"]
    assert check(outcome(relations, '{"constant_identity": true, "failures": []}')) is None


def test_checker_rejects_corrupted_json():
    good = json.dumps({"ok": True, "rows": [{"avec": [1, 0]}]})
    assert check(outcome(["canonical"], good[: len(good) // 2])) is not None
    assert check(outcome(["canonical"], '{"ok": false}')) is not None
    assert check(outcome(["canonical"], good, code=2)) is not None


def test_checker_rejects_non_bar_invariant_simple():
    terms = [[[[1, 0, 1], [2, 1, 1]], [[0, 1]]], [[[3, 2, 1]], [[1, 1]]]]
    assert check(outcome(SIMPLE, json.dumps({"kind": "simple", "terms": terms}))) is not None
    # the labelling monomial must have coefficient 1
    terms = [[[[1, 0, 1], [2, 1, 1]], [[0, 2]]]]
    assert check(outcome(SIMPLE, json.dumps({"kind": "simple", "terms": terms}))) is not None


def test_escaped_exception_is_a_failed_request():
    class Broken:
        @staticmethod
        def main(argv):
            raise RuntimeError("dominant-monomial enumeration exceeded its cap")

    o = run_request(Broken, SIMPLE)
    assert o.code is None and "exceeded its cap" in o.error
    assert "escaped" in check(o)


def _bindings():
    """Every attribute of every qgroth module and of every class named in SPANS."""
    import importlib
    import sys

    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "qgroth" or name.startswith("qgroth."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for _, modname, path, _ in SPANS:
        if "." in path:
            cls = getattr(importlib.import_module(modname), path.split(".")[0])
            out.update({(modname, cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_traced_run_restores_every_binding_and_sums_self_time():
    from qgroth import characters, cli, presentation, qcartan

    before = _bindings()
    original_tchar = characters.fundamental_tchar
    tracer = Tracer()
    tracer.install()
    try:
        # names imported by value are patched too
        assert presentation.fundamental_tchar is not original_tchar
        assert cli.quantum_cartan is not qcartan.__dict__["quantum_cartan"].__wrapped__
        tracer.begin(0)
        o = run_request(cli, ["verify", "presentation", "--type", "A2", "--m-range", "0..1",
                              "--format", "json"])
    finally:
        undone = tracer.uninstall()
    trace = tracer.end()
    assert check(o) is None
    assert undone and restored(undone)
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert trace.consistent and trace.root_ns > 0
    names = [s[0] for s in SPANS]
    assert trace.calls[names.index("cli.main")] == 1
    assert trace.calls[names.index("presentation.x_gen")] > 0


def test_benchmark_json_records_the_workload_reasons():
    from pathlib import Path

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.REASONS
    names = {m["name"] for m in spec["per_layer"]}
    assert {f"{s[0]}.self_s" for s in SPANS} <= names
    assert "trace.overhead_ratio" in names
