import pytest

from qgroth.cartan import cartan_datum
from qgroth.characters import CategoryQ
from qgroth.qcartan import quantum_cartan
from qgroth.quiver import QuiverContext, QuiverDatum
from qgroth.torus import Monomial, YTorus

# The worked orientations used throughout: heights as in the source examples.
PAPER_XI = {
    "A1": (0,),
    "A2": (2, 1),
    "A3": (2, 3, 2),
    "A4": (0, 1, 0, 1),
    "D4": (0, 0, 1, 2),
}


@pytest.fixture(scope="session")
def contexts():
    cache = {}

    def get(name: str, xi=None) -> QuiverContext:
        cd = cartan_datum(name)
        xi = tuple(xi) if xi is not None else PAPER_XI.get(name)
        key = (name, xi)
        if key not in cache:
            q = QuiverDatum.from_xi(cd, xi) if xi else QuiverDatum.bipartite(cd)
            cache[key] = QuiverContext(q)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def categories(contexts):
    cache = {}

    def get(name: str, xi=None) -> CategoryQ:
        ctx = contexts(name, xi)
        key = id(ctx)
        if key not in cache:
            cache[key] = CategoryQ(ctx)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def ytorus():
    cache = {}

    def get(name: str) -> YTorus:
        if name not in cache:
            cache[name] = YTorus(quantum_cartan(cartan_datum(name)))
        return cache[name]

    return get


def on_positions(cat: CategoryQ, y):
    """A Y-keyed element whose monomials all sit on the positions of the
    orientation, rewritten in the rank-r torus (raises on any other monomial)."""
    return cat.xt.element({cat.avec_of(m): c for m, c in y.terms.items()})


def a_monomial(cartan, i: int, p: int) -> Monomial:
    """The exchange monomial A_{i,p} = Y_{i,p+1} Y_{i,p-1} prod_{j~i} Y_{j,p}^-1."""
    exps = {(i, p + 1): 1, (i, p - 1): 1}
    for j in cartan.neighbors(i):
        exps[(j, p)] = exps.get((j, p), 0) - 1
    return Monomial(exps)


def in_tinv_ztinv(c) -> bool:
    """True iff the Laurent coefficient c lies in t^-1 Z[t^-1]."""
    return all(e <= -2 for e in c.c)


def order_depth(keys, leq):
    """A linear extension of the order leq on keys, as a depth map: the number
    of other keys above each key, which grows strictly down the order."""
    return {k: sum(leq(k, o) for o in keys if o != k) for k in keys}


def four_coefficient_n(qc, i: int, p: int, j: int, s: int) -> int:
    """N(i,p;j,s) straight from the inverse quantum Cartan coefficients."""
    c = qc.ctilde
    return c(i, j, p - s - 1) - c(i, j, p - s + 1) - c(i, j, s - p - 1) + c(i, j, s - p + 1)


def all_orientations(name: str):
    """Every orientation of the diagram, as QuiverDatum values."""
    import itertools

    cd = cartan_datum(name)
    edges = cd.edges
    for flips in itertools.product((False, True), repeat=len(edges)):
        arrows = [(b, a) if f else (a, b) for (a, b), f in zip(edges, flips)]
        yield QuiverDatum.from_arrows(cd, arrows)
