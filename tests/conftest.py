from operator import add

import pytest

from qgroth.cartan import cartan_datum
from qgroth.characters import CategoryQ, expand_in_dominant_basis
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
            cache[name] = wide_torus(name)
        return cache[name]

    return get


def wide_torus(name: str) -> YTorus:
    """A window torus on every Y_{i,p} with -12 <= p <= 24, wide enough for
    every monomial the tests build."""
    cd = cartan_datum(name)
    return YTorus(quantum_cartan(cd), [(i, p) for i in cd.vertices for p in range(-12, 25)])


def boundary_terms(x) -> dict:
    """The terms of x keyed by Monomials on a window torus, by exponent
    vectors on the rank-r torus."""
    unpack = x.ctx.monomial_of if isinstance(x.ctx, YTorus) else x.ctx.exponents
    return {unpack(k): c for k, c in x.terms.items()}


def on_positions(cat: CategoryQ, y):
    """An element of a window torus whose monomials all sit on the positions
    of the orientation, rewritten in the rank-r torus (raises on any other
    monomial)."""
    return cat.xt.element({cat.avec_of(m): c for m, c in boundary_terms(y).items()})


def reference_product(x, y, pairing=None):
    """x * y by the unpacked route: Monomial or exponent-vector keys,
    multiplied one pair of terms at a time and paired by `pairing` (default
    the torus's reference `pair2`)."""
    ctx = x.ctx
    pairing = pairing or ctx.pair2
    mul = (lambda a, b: a * b) if isinstance(ctx, YTorus) else (lambda a, b: tuple(map(add, a, b)))
    out = {}
    for k1, c1 in boundary_terms(x).items():
        for k2, c2 in boundary_terms(y).items():
            k = mul(k1, k2)
            c = (c1 * c2).shift(pairing(k1, k2))
            out[k] = out[k] + c if k in out else c
    return ctx.element(out)


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


def expand_by_monomials(yt: YTorus, x, basis: dict) -> dict:
    """`expand_in_dominant_basis` of an element of the window torus yt over a
    basis keyed by dominant Monomials, in the Nakajima order; the
    coefficients come back keyed by Monomials."""
    depth = order_depth(list(basis), yt.nakajima_leq)
    coeffs = expand_in_dominant_basis(
        x,
        {yt.key(m): b for m, b in basis.items()},
        yt.is_dominant,
        {yt.key(m): d for m, d in depth.items()},
    )
    return {yt.monomial_of(k): c for k, c in coeffs.items()}
