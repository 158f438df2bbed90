"""Simple classes by Lusztig's lemma, one triangular solve per weight space,
checked against the Nakajima order (`YTorus.nakajima_leq`) as the reference.

Every orientation of A1-A5 and D4 at weight-degree <= 3; every orientation
of D5, whose weight spaces are much larger, at degree <= 2; and in each,
twice every root of height 2.
"""

import functools
import itertools

import pytest

from qgroth.cartan import cartan_datum
from qgroth.characters import (
    CategoryQ,
    CharacterError,
    bar_invariant_correction,
    combine,
    dominant_below,
    expand_in_dominant_basis,
    simple_tchar,
    standard_tchar,
)
from qgroth.laurent import HalfLaurent
from qgroth.quiver import QuiverContext, QuiverDatum
from qgroth.torus import YTorus

from conftest import (
    all_orientations,
    avecs_up_to,
    bar,
    in_tinv_ztinv,
    mon,
    order_depth,
    power,
    standards_below,
    wide_torus,
    y,
)

CASES = [
    (name, n, 3)
    for name in ("A1", "A2", "A3", "A4", "A5", "D4")
    for n in range(len(list(all_orientations(name))))
] + [("D5", n, 2) for n in range(len(list(all_orientations("D5"))))]
IDS = [f"{name}-o{n}-deg{degree}" for name, n, degree in CASES]


@functools.lru_cache(maxsize=None)
def _spaces(name, n, degree):
    """The category of the n-th orientation and its weight spaces of degree
    at most `degree`, plus twice each root of height 2 (a row with a_k = 2 on
    a position whose A-column is not empty), each as its dimension vector."""
    cat = CategoryQ(QuiverContext(list(all_orientations(name))[n]))
    degrees = [cat.root_of(a) for a in avecs_up_to(cat, degree)]
    doubled = [tuple(2 * x for x in root) for root in cat.roots if sum(root) == 2]
    return cat, list(dict.fromkeys(degrees + doubled))


def _below(cat, a, b):
    """a <= b in the Nakajima order, the reference."""
    return cat.yt.nakajima_leq(cat.monomial_of_avec(a), cat.monomial_of_avec(b))


def _key_below(cat, k, l):
    """_below on the packed keys of the rank-r torus."""
    return _below(cat, cat.xt.exponents(k), cat.xt.exponents(l))


@pytest.mark.parametrize("name,n,degree", CASES, ids=IDS)
def test_linear_a_columns_equal_the_per_row_solve(name, n, degree):
    cat, spaces = _spaces(name, n, degree)
    cd, phi = cat.cartan, cat.qctx.phi
    for d in spaces:
        top = {phi.generator_position(i, 0): d[i - 1] for i in cd.vertices if d[i - 1]}
        for row in cat.dominant_pairs(d):
            assert cat.root_of(row["avec"]) == d
            assert row["a_column"] == cat.yt.a_solve(mon(top, power(row["monomial"], -1))), row["avec"]
            assert cat.depth(row["avec"]) == sum(row["a_column"].values())


@pytest.mark.parametrize("name,n,degree", CASES, ids=IDS)
def test_linear_depth_equals_the_row_depths(name, n, degree):
    # the depths a solve reads come from the linear form, not from the rows
    cat, spaces = _spaces(name, n, degree)
    for d in spaces:
        rows = cat.dominant_pairs(d)
        assert cat.depths(d) == {cat.xt.key(r["avec"]): sum(r["a_column"].values()) for r in rows}
        assert list(cat.depths(d)) == [cat.xt.key(r["avec"]) for r in rows]
        for r in rows:
            assert cat.depth(r["avec"]) == sum(r["a_column"].values()), r["avec"]


@pytest.mark.parametrize("name,n,degree", CASES, ids=IDS)
def test_depth_is_a_linear_extension_of_the_nakajima_order(name, n, degree):
    # inside a weight space, a <= b iff the A-column of a dominates that of b
    # entry by entry, and a < b forces a strictly greater depth
    cat, spaces = _spaces(name, n, degree)
    comparable = 0
    for d in spaces:
        rows = cat.dominant_pairs(d)
        for r1, r2 in itertools.product(rows, repeat=2):
            a, b = r1["avec"], r2["avec"]
            c1, c2 = r1["a_column"], r2["a_column"]
            below = _below(cat, a, b)
            assert below == all(c1.get(k, 0) >= c2.get(k, 0) for k in c1.keys() | c2.keys())
            if below and a != b:
                comparable += 1
                assert cat.depth(a) > cat.depth(b), (a, b)
    assert comparable or name == "A1"


@pytest.mark.parametrize("name,n,degree", CASES, ids=IDS)
def test_solved_classes_are_bar_invariant_and_unitriangular(name, n, degree):
    cat, spaces = _spaces(name, n, degree)
    corrected = 0
    for d in spaces:
        depth = cat.depths(d)
        std = cat.standards(depth)
        rows = bar_invariant_correction(std, depth)
        assert rows.keys() == depth.keys()
        reference = order_depth(list(depth), functools.partial(_key_below, cat))
        for a, row in rows.items():
            simple = combine(std, row)
            assert bar(simple) == simple, a
            coeffs = expand_in_dominant_basis(simple, std, reference)
            assert coeffs == row, a  # the row is the expansion, with no zero entry
            assert coeffs.pop(a) == HalfLaurent.one()
            for b, c in coeffs.items():
                corrected += 1
                assert _key_below(cat, b, a) and in_tinv_ztinv(c), (a, b, c)
    assert corrected or name in ("A1", "A2")


@pytest.mark.parametrize(
    "factors",
    [[(1, 0), (1, 2)], [(1, 0), (2, 1)], [(2, 1), (2, 3)], [(1, 0), (3, 0)], [(1, 0), (2, 1), (3, 2)],
     [(2, 1), (2, 1)], [(1, 0), (1, 2), (1, 4)]],
)
def test_simple_tchar_is_bar_invariant_and_unitriangular_on_a3(factors):
    yt = wide_torus("A3")
    m = mon(*(y(i, p) for i, p in factors))
    simple = simple_tchar(yt, m)
    assert bar(simple) == simple and simple.coeff(yt.key(m)) == HalfLaurent.one()
    basis = dominant_below(yt.key(m), lambda k: standard_tchar(yt, yt.monomial_of(k)))
    depth = order_depth(list(basis), lambda k, l: yt.nakajima_leq(yt.monomial_of(k), yt.monomial_of(l)))
    coeffs = expand_in_dominant_basis(simple, basis, depth)
    assert coeffs.pop(yt.key(m)) == HalfLaurent.one()
    for b, c in coeffs.items():
        assert yt.nakajima_leq(yt.monomial_of(b), m) and in_tinv_ztinv(c), (b, c)


def test_a_simple_class_builds_only_its_own_row(monkeypatch):
    # the solve covers every standard class below m, but only m's row is
    # summed into an element, on the window and on the rank-r torus
    from qgroth import characters

    built = []

    def spy(basis, row, _real=characters.combine):
        built.append(row)
        return _real(basis, row)

    monkeypatch.setattr(characters, "combine", spy)
    yt = wide_torus("A3")
    m = mon(y(1, 0), y(1, 2), y(1, 4))
    simple = simple_tchar(yt, m)
    assert len(built) == 1 and len(built[0]) == len(standards_below(yt, m)) == 4
    assert simple.coeff(yt.key(m)) == HalfLaurent.one()
    cat, _ = _spaces("A3", 0, 3)
    a = max(avecs_up_to(cat, 3), key=lambda a: len(cat.depths(cat.root_of(a))))
    built.clear()
    cat.truncated_simple(a)
    assert len(built) == 1


def test_a_defect_not_strictly_below_its_key_is_refused():
    # weight alpha_1 + alpha_2 of A2: the standard class of the top key has a
    # bar defect on the other key; a depth that does not put that key strictly
    # deeper is refused
    cat = CategoryQ(QuiverContext(QuiverDatum.from_xi(cartan_datum("A2"), (2, 1))))
    depth = cat.depths((1, 1))
    std = cat.standards(depth)
    top, low = sorted(depth, key=depth.__getitem__)
    assert depth[low] > depth[top]
    assert combine(std, bar_invariant_correction(std, depth)[top]) != std[top]
    for wrong in ({top: 0, low: 0}, {top: 1, low: 0}):
        with pytest.raises(CharacterError, match="bar defect is not strictly triangular"):
            bar_invariant_correction(std, wrong)


def test_a_position_column_with_a_negative_exponent_is_refused(monkeypatch):
    # every position must sit below the top monomial of its root
    a_solve = YTorus.a_solve
    monkeypatch.setattr(YTorus, "a_solve", lambda self, r: {k: -c for k, c in a_solve(self, r).items()})
    with pytest.raises(CharacterError, match="position .* is not below the top monomial of its root"):
        CategoryQ(QuiverContext(QuiverDatum.from_xi(cartan_datum("A2"), (2, 1))))
