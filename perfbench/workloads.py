"""Seeded request generators for the benchmark workloads.

A workload is an endless sequence of rounds.  Each round is a list of argv
lists for ``qgroth.cli.main``.  The seed fixes every random choice, so the
same seed always yields the same rounds.

Rounds are stratified: every round holds the same mix of request kinds
(type, size, parameters), and the seed draws the free choices inside each
stratum (orientation, level offset, monomial) and the order.  A run measures
whole rounds, so its mix does not depend on how many requests happened to be
drawn from the slow strata.  The library is not imported here: the program
sees only the generated argv.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

# Dynkin edges, numbered as in ``qgroth.cartan``.
EDGES = {
    "A2": ((1, 2),),
    "A3": ((1, 2), (2, 3)),
    "A4": ((1, 2), (2, 3), (3, 4)),
    "D4": ((1, 3), (2, 3), (3, 4)),
}

# Coxeter number and rank of A3, the type of the ``qchar simple`` requests.
A3_H = 4
A3_RANK = 3

REASONS = {
    "canonical": "20 distinct canonical argv that repeat often: characters, qgroup, XTorus, "
    "divide_right and root_coords, where reuse across requests can show",
    "fullring": "presentation checks and A3 simple classes, almost no repeats: big YTorus "
    "products, n_pair, fundamental_tchar, dominant_below, nakajima_leq",
    "hall": "hall iota and relations: iso_class, _normalize and UScalar with little torus "
    "work, so a torus or laurent change should not move it",
}


def orientations(type_name: str) -> list[str]:
    """Every orientation of the Dynkin tree as a ``--arrows`` value."""
    edges = EDGES[type_name]
    out = []
    for flips in itertools.product((False, True), repeat=len(edges)):
        out.append(",".join(f"{b}-{a}" if f else f"{a}-{b}" for (a, b), f in zip(edges, flips)))
    return out


def canonical_argv(type_name: str, arrows: str, degree: int) -> list[str]:
    return ["canonical", "--type", type_name, "--arrows", arrows,
            "--degree-bound", str(degree), "--format", "json"]


def presentation_argv(type_name: str, arrows: str, level: int) -> list[str]:
    # "=" keeps a negative range from being read as a flag
    return ["verify", "presentation", "--type", type_name, "--arrows", arrows,
            f"--m-range={level}..{level + 2}", "--format", "json"]


def simple_argv(factors: list[tuple[int, int]]) -> list[str]:
    return ["qchar", "simple", "--type", "A3", "-m", monomial_text(factors), "--format", "json"]


def iota_argv(type_name: str, arrows: str, q: int, max_len: int, mmax: int) -> list[str]:
    return ["hall", "iota", "--type", type_name, "--arrows", arrows, "--q", str(q),
            "--max-len", str(max_len), "--mmax", str(mmax), "--format", "json"]


RELATIONS_ARGV = ["hall", "relations", "--type", "A3", "--q", "3", "--format", "json"]


def monomial_text(factors: list[tuple[int, int]]) -> str:
    """``Y[i,p]^e`` text of the product of the given (i, p) factors."""
    exps: dict[tuple[int, int], int] = {}
    for f in factors:
        exps[f] = exps.get(f, 0) + 1
    return "".join(
        f"Y[{i},{p}]" + (f"^{e}" if e > 1 else "")
        for (i, p), e in sorted(exps.items(), key=lambda t: (t[0][1], t[0][0]))
    )


def _a3_dominant_factors(rng: random.Random, k: int) -> list[tuple[int, int]]:
    """k fundamental factors Y[i,p] of A3 on one parity line (i + p odd),
    all inside a spectral window [base, base + h]."""
    base = rng.randint(-8, 8)
    points = [(i, p) for i in range(1, A3_RANK + 1) for p in range(base, base + A3_H + 1)
              if (i + p) % 2 == 1]
    return [rng.choice(points) for _ in range(k)]


def _canonical_round(rng: random.Random) -> list[list[str]]:
    # (type, degree) is uniform over the three types; A3 has half as many
    # orientations as A4 and D4, so each of them appears twice.
    batch = [canonical_argv("A3", o, 4) for o in orientations("A3")] * 2
    batch += [canonical_argv("A4", o, 3) for o in orientations("A4")]
    batch += [canonical_argv("D4", o, 3) for o in orientations("D4")]
    rng.shuffle(batch)
    return batch


def _fullring_round(rng: random.Random) -> list[list[str]]:
    # Orientations appear twice, so that the median latency falls inside the
    # cluster of the fastest A4 orientations rather than in a gap between
    # clusters.
    batch = [presentation_argv(t, o, rng.randint(-20, 20))
             for t in ("A3", "A4") for o in orientations(t) * 2]
    # A4 simple classes are left out: their dominant-monomial enumeration is
    # heavy-tailed and can hit its cap (see README.md, known defect).
    batch += [simple_argv(_a3_dominant_factors(rng, k)) for k in (2, 3, 4, 4)]
    rng.shuffle(batch)
    return batch


def _hall_round(rng: random.Random) -> list[list[str]]:
    # A3 configurations appear twice, so that the median latency falls inside
    # the A3 cluster rather than in the gap between the A2 and A3 clusters.
    batch = [
        iota_argv(t, rng.choice(orientations(t)), q, max_len, mmax)
        for t in ("A2", "A3", "A3")
        for q in (2, 3)
        for max_len in (2, 3)
        for mmax in (2, 3)
    ]
    batch.append(list(RELATIONS_ARGV))
    rng.shuffle(batch)
    return batch


ROUNDS = {"canonical": _canonical_round, "fullring": _fullring_round, "hall": _hall_round}

# Corrected seconds of one round at the commit that added the benchmark.  A
# run measures ceil(seconds / ROUND_SECONDS) whole rounds: every commit is
# measured on the same number of requests, so the latency percentiles keep
# their positions in the sorted sample.
ROUND_SECONDS = {"canonical": 6.0, "fullring": 6.0, "hall": 4.3}

# One untimed request per (subcommand, type) of each mix, fixed so that set-up
# time does not depend on the seed.
WARMUPS = {
    "canonical": [canonical_argv("A3", orientations("A3")[0], 4),
                  canonical_argv("A4", orientations("A4")[0], 3),
                  canonical_argv("D4", orientations("D4")[0], 3)],
    "fullring": [presentation_argv("A3", orientations("A3")[0], 0),
                 presentation_argv("A4", orientations("A4")[0], 0),
                 simple_argv([(1, 0), (2, 1)])],
    "hall": [iota_argv("A2", orientations("A2")[0], 2, 2, 2),
             iota_argv("A3", orientations("A3")[0], 2, 2, 2),
             list(RELATIONS_ARGV)],
}

# Diagram types whose quantum Cartan tables are built during set-up.
TYPES = {"canonical": ("A3", "A4", "D4"), "fullring": ("A3", "A4"), "hall": ("A2", "A3")}


def rounds(workload: str, seed: int) -> Iterator[list[list[str]]]:
    """The endless round sequence of a workload; equal seeds give equal rounds."""
    rng = random.Random(f"{workload}:{seed}")
    make = ROUNDS[workload]
    while True:
        yield make(rng)


def repeat_share(requests: list[list[str]]) -> float:
    """Share of requests whose argv equals an earlier request's argv."""
    seen: set[tuple[str, ...]] = set()
    repeats = 0
    for argv in requests:
        key = tuple(argv)
        repeats += key in seen
        seen.add(key)
    return repeats / len(requests) if requests else 0.0
