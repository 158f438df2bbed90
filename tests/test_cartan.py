from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import itertools

from qgroth.cartan import (
    SUPPORTED,
    CartanDatum,
    RankMismatch,
    cartan_datum,
    dimension_vectors,
    iter_kostant_partitions,
    kostant_partitions,
    _root_vectors,
)
from qgroth.hall import GF, mat_rank, rref
from qgroth.quiver import AdaptedWord, QuiverDatum, ringel_form

from conftest import nullspace_basis

TYPES = ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6"]


def test_cartan_matrix_invariants():
    for name in TYPES:
        cd = cartan_datum(name)
        c = cd.cartan_matrix()
        for i in range(cd.n):
            assert c[i][i] == 2
            for j in range(cd.n):
                if i != j:
                    assert c[i][j] in (0, -1)
                    assert c[i][j] == c[j][i]
        # connected tree: n-1 edges
        assert len(cd.edges) == cd.n - 1


def test_scalar_product_examples():
    cd = cartan_datum("A4")
    for i in cd.vertices:
        for j in cd.vertices:
            assert cd.sprod(cd.unit(i), cd.unit(j)) == cd.cartan_matrix()[i - 1][j - 1]
    assert cd.sprod((0,) * 4, cd.unit(2)) == 0
    # the highest root pairs to 2 with itself and to 1 with alpha_1 and alpha_4
    assert cd.sprod((1, 1, 1, 1), (1, 1, 1, 1)) == 2
    assert [cd.sprod((1, 1, 1, 1), cd.unit(i)) for i in cd.vertices] == [1, 0, 0, 1]


def test_scalar_product_rank_mismatch():
    # root_coords is the rank check of every vector the library takes in
    cd = cartan_datum("A3")
    assert cd.root_coords([1, 0, 2]) == (1, 0, 2) == cd.alpha_coords((1, 0, 2))
    with pytest.raises(RankMismatch, match="vector of 2 entries, A3 has rank 3"):
        cd.root_coords((1, 0))
    with pytest.raises(RankMismatch):
        cd.sprod((1, 0), cd.unit(1))
    with pytest.raises(RankMismatch):
        cd.reflect(1, (1, 0))
    with pytest.raises(RankMismatch):
        cd.unit(4)
    with pytest.raises(RankMismatch):
        ringel_form(QuiverDatum.bipartite(cd), (1, 0), cd.unit(1))


def test_simple_reflection_examples():
    cd = cartan_datum("A3")
    for i in cd.vertices:
        assert cd.reflect(i, cd.unit(i)) == tuple(-x for x in cd.unit(i))
        for j in cd.vertices:
            b = tuple(x + 2 * y for x, y in zip(cd.unit(j), cd.unit(i)))
            assert cd.reflect(i, cd.reflect(i, b)) == b
    # s_2 (alpha_1) = alpha_1 + alpha_2, s_1 (alpha_3) = alpha_3
    assert cd.reflect(2, (1, 0, 0)) == (1, 1, 0)
    assert cd.reflect(1, (0, 0, 1)) == (0, 0, 1)


def test_coxeter_word_action_rank4():
    # tau = s_2 s_4 s_1 s_3 sends alpha_1 + alpha_2 to alpha_3 + alpha_4
    cd = cartan_datum("A4")
    assert cd.apply_word((2, 4, 1, 3), (1, 1, 0, 0)) == (0, 0, 1, 1)


def test_positive_root_counts():
    expected = {"A1": 1, "A2": 3, "A3": 6, "A4": 10, "A5": 15, "D4": 12, "D5": 20, "E6": 36}
    for name, r in expected.items():
        cd = cartan_datum(name)
        assert cd.num_positive_roots() == r


def test_positive_roots_rank2():
    cd = cartan_datum("A2")
    assert set(cd.positive_roots()) == {(1, 0), (0, 1), (1, 1)}
    assert cd.is_positive_root((1, 1)) and not cd.is_positive_root((1, -1))


def test_coxeter_numbers():
    expected = {"A1": 2, "A2": 3, "A3": 4, "A4": 5, "A5": 6, "D4": 6, "D5": 8, "E6": 12}
    for name, h in expected.items():
        cd = cartan_datum(name)
        assert cd.coxeter_number() == h
        assert h * cd.n == 2 * cd.num_positive_roots()


def test_reflection_permutes_other_positive_roots():
    for name in ("A3", "D4"):
        cd = cartan_datum(name)
        pos = set(cd.positive_roots())
        for i in cd.vertices:
            rest = pos - {cd.unit(i)}
            assert {cd.reflect(i, b) for b in rest} == rest


def test_nu_involution():
    cd = cartan_datum("A3")
    assert [cd.nu(i) for i in cd.vertices] == [3, 2, 1]
    cd4 = cartan_datum("D4")
    assert [cd4.nu(i) for i in cd4.vertices] == [1, 2, 3, 4]
    for name in TYPES:
        cd = cartan_datum(name)
        for i in cd.vertices:
            assert cd.nu(cd.nu(i)) == i


def test_d4_trivalent_node_is_3():
    cd = cartan_datum("D4")
    assert cd.neighbors(3) == (1, 2, 4)


@pytest.mark.parametrize("kind,n", sorted(SUPPORTED))
def test_neighbors_read_the_edges(kind, n):
    # the per-type neighbour table agrees with the edge list on every supported type
    cd = CartanDatum(kind, n)
    for i in cd.vertices:
        expected = sorted([b for a, b in cd.edges if a == i] + [a for a, b in cd.edges if b == i])
        assert cd.neighbors(i) == tuple(expected)
        assert all(cd.adjacent(i, j) == (j in expected) for j in cd.vertices)
    for i in (0, n + 1):
        with pytest.raises(RankMismatch, match=f"vertex {i} out of range for {kind}{n}"):
            cd.neighbors(i)


def test_root_coords_roundtrip():
    cd = cartan_datum("D5")
    for b in cd.positive_roots():
        assert cd.root_coords(b) == b
        assert cd.root_coords(list(b)) == b


@given(
    st.sampled_from(["A2", "A3", "D4"]),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
)
def test_scalar_product_symmetric_bilinear_on_root_lattice(name, xs, ys):
    cd = cartan_datum(name)
    lam, mu = tuple(xs[: cd.n]), tuple(ys[: cd.n])
    assert cd.sprod(lam, mu) == cd.sprod(mu, lam)
    assert cd.sprod(tuple(2 * x for x in lam), mu) == 2 * cd.sprod(lam, mu)
    assert cd.sprod(lam, lam) % 2 == 0


def test_coefficient_extraction_property():
    # pairing a root against a fundamental weight reads off the simple-root
    # coefficient: in fundamental-weight coordinates a root b is C b, and
    # (b, varpi_j - x) = b_j - b^T C x is the dot product of b with the
    # weight coordinates e_j - C x of varpi_j - x
    for name in ("A4", "D4"):
        cd = cartan_datum(name)
        c = cd.cartan_matrix()
        for b in cd.positive_roots():
            for x in cd.positive_roots()[:6]:
                for j in cd.vertices:
                    w = tuple(int(v == j) - sum(map(lambda p, q: p * q, c[v - 1], x)) for v in cd.vertices)
                    assert sum(p * q for p, q in zip(b, w)) == b[j - 1] - cd.sprod(b, x)
            assert [b[j - 1] - cd.sprod(b, (0,) * cd.n) for j in cd.vertices] == list(b)


def test_large_types_instantiate():
    for name, r in [("A8", 36), ("D8", 56), ("E7", 63), ("E8", 120)]:
        cd = cartan_datum(name)
        assert cd.num_positive_roots() == r
        assert cd.coxeter_number() * cd.n == 2 * r


def _rational_inverse(c):
    """C^-1 by Gauss-Jordan over the rationals."""
    n = len(c)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(c)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                m[r] = [x - m[r][col] * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def test_integer_inverse_matches_the_rational_one():
    # the two integer forms agree with the rational route through C^-1: a
    # weight w (fundamental coordinates) has simple-root coordinates C^-1 w,
    # and (r, w) = sum_j r_j w_j; only in E8 do all fundamental weights lie
    # in the root lattice
    for name in TYPES + ["D6", "E7", "E8"]:
        cd = cartan_datum(name)
        c = cd.cartan_matrix()
        inv = _rational_inverse(c)
        roots = cd.positive_roots()
        for r in roots[:: max(1, len(roots) // 8)]:
            for s in roots[:: max(1, len(roots) // 8)]:
                w = [sum(a * y for a, y in zip(row, s)) for row in c]  # s in weight coordinates
                assert sum(map(lambda a, b: a * b, r, w)) == cd.sprod(r, s)
                assert [sum(a * y for a, y in zip(row, w)) for row in inv] == list(s)
                for j in cd.vertices:
                    mu = [int(v == j) - x for v, x in zip(cd.vertices, w)]  # varpi_j - s
                    assert sum(map(lambda a, b: a * b, r, mu)) == r[j - 1] - cd.sprod(r, s)
        integral = [all(inv[i][j].denominator == 1 for i in range(cd.n)) for j in range(cd.n)]
        assert all(integral) == (name == "E8")


@pytest.mark.parametrize("kind,n", sorted(SUPPORTED))
def test_cartan_inverse_from_the_positive_roots_inverts_c(kind, n):
    # simply-laced, sum_b b b^T = h C^-1 over the positive roots b: C times
    # it is h I
    cd = CartanDatum(kind, n)
    c, h = cd.cartan_matrix(), cd.coxeter_number()
    s = [[sum(b[i] * b[j] for b in cd.positive_roots()) for j in range(n)] for i in range(n)]
    assert [[sum(c[i][k] * s[k][j] for k in range(n)) for j in range(n)] for i in range(n)] == [
        [h * (i == j) for j in range(n)] for i in range(n)
    ]


@pytest.mark.parametrize("kind,n", sorted(SUPPORTED))
def test_positive_root_vectors_are_the_roots_on_the_simple_roots(kind, n):
    # n h / 2 vectors of norm 2, by degree and then coordinates, closed under
    # every s_i except at alpha_i, which it negates
    cd = CartanDatum(kind, n)
    c = cd.cartan_matrix()
    vectors = _root_vectors(kind, n)
    assert vectors == cd.positive_roots()
    assert len(vectors) == n * cd.coxeter_number() // 2 == len(set(vectors))
    assert all(sum(b[i] * c[i][j] * b[j] for i in range(n) for j in range(n)) == 2 for b in vectors)
    assert list(vectors) == sorted(vectors, key=lambda b: (sum(b), b))
    for i in cd.vertices:
        e = cd.unit(i)
        assert all(cd.is_positive_root(cd.reflect(i, b)) for b in vectors if b != e)


# The Weyl data of every supported type: h, the involution nu and the
# reduced word for w0 that walks 2 rho down by the first positive (C b)_j,
# as the weight-coordinate route computed them.
WEYL = {
    "A1": (2, (1,), "1"),
    "A2": (3, (2, 1), "121"),
    "A3": (4, (3, 2, 1), "121321"),
    "A4": (5, (4, 3, 2, 1), "1213214321"),
    "A5": (6, (5, 4, 3, 2, 1), "121321432154321"),
    "A6": (7, (6, 5, 4, 3, 2, 1), "121321432154321654321"),
    "A7": (8, (7, 6, 5, 4, 3, 2, 1), "1213214321543216543217654321"),
    "A8": (9, (8, 7, 6, 5, 4, 3, 2, 1), "121321432154321654321765432187654321"),
    "D4": (6, (1, 2, 3, 4), "123123431234"),
    "D5": (8, (2, 1, 3, 4, 5), "12312343123454312345"),
    "D6": (10, (1, 2, 3, 4, 5, 6), "123123431234543123456543123456"),
    "D7": (12, (2, 1, 3, 4, 5, 6, 7), "123123431234543123456543123456765431234567"),
    "D8": (14, (1, 2, 3, 4, 5, 6, 7, 8), "12312343123454312345654312345676543123456787654312345678"),
    "E6": (12, (6, 2, 5, 4, 3, 1), "123142314354231435426542314354265431"),
    "E7": (18, (1, 2, 3, 4, 5, 6, 7), "123142314354231435426542314354265431765423143542654317654234567"),
    "E8": (30, (1, 2, 3, 4, 5, 6, 7, 8), (
        "12314231435423143542654231435426543176542314354265431765423456787654231435426543176542345678"
        "7654231435426543176542345678"
    )),
}


@pytest.mark.parametrize("name", sorted(WEYL))
def test_longest_word_nu_and_coxeter_number_are_pinned(name):
    cd = cartan_datum(name)
    h, nu, word = WEYL[name]
    assert (cd.coxeter_number(), tuple(cd.nu(i) for i in cd.vertices)) == (h, nu)
    assert cd.longest_word() == tuple(map(int, word))
    # w0 negates the positive roots, and sends alpha_i to -alpha_nu(i)
    assert {tuple(-x for x in cd.w0(b)) for b in cd.positive_roots()} == set(cd.positive_roots())
    assert all(cd.w0(cd.unit(i)) == tuple(-x for x in cd.unit(nu[i - 1])) for i in cd.vertices)


# --- the one elimination routine, over every field the library uses ---------

FIELDS = {"GF(2)": GF(2), "GF(3)": GF(3), "GF(4)": GF(4)}


def _elements(name):
    return st.integers(min_value=0, max_value=FIELDS[name].q - 1)


def _residual(F, rows, cols):
    """-(rows * cols) entrywise, using only the field's sub and mul."""
    out = []
    for row in rows:
        line = []
        for j in range(len(cols[0]) if cols else 0):
            acc = 0
            for k, a in enumerate(row):
                acc = F.sub(acc, F.mul(a, cols[k][j]))
            line.append(acc)
        out.append(line)
    return out


@st.composite
def _matrices(draw):
    name = draw(st.sampled_from(sorted(FIELDS)))
    nrows = draw(st.integers(min_value=0, max_value=4))
    ncols = draw(st.integers(min_value=1, max_value=5))
    row = st.lists(_elements(name), min_size=ncols, max_size=ncols)
    return name, draw(st.lists(row, min_size=nrows, max_size=nrows)), ncols


@settings(max_examples=150, deadline=None)
@given(_matrices())
def test_rref_rank_nullity_and_nullspace(case):
    name, rows, ncols = case
    F = FIELDS[name]
    red, pivots = rref(rows, F)
    assert len(red) == len(pivots) == mat_rank(F, rows) <= min(len(rows), ncols)
    assert pivots == sorted(set(pivots))
    for r, pc in enumerate(pivots):
        # reduced: each pivot column is a unit column
        assert [row[pc] for row in red] == [int(k == r) for k in range(len(red))]
    basis = nullspace_basis(F, rows, ncols)
    assert len(pivots) + len(basis) == ncols
    if basis and rows:
        cols = [[v[c] for v in basis] for c in range(ncols)]
        assert all(x == 0 for line in _residual(F, rows, cols) for x in line)
    # the basis is independent: its rank is its size
    assert mat_rank(F, basis) == len(basis)


def _partitions_root_by_root(roots, d):
    """The partitions by trying every root in turn, the simple ones too, with
    the larger coefficient first: dead ends included."""
    out = []

    def rec(k, rem, acc):
        if not any(rem):
            out.append(acc + (0,) * (len(roots) - k))
        elif k < len(roots):
            for c in range(min(r // x for r, x in zip(rem, roots[k]) if x), -1, -1):
                rec(k + 1, tuple(r - c * x for r, x in zip(rem, roots[k])), acc + (c,))

    rec(0, tuple(d), ())
    return out


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "D4", "D5"])
def test_kostant_partitions_are_every_partition_in_decreasing_order(name):
    cd = cartan_datum(name)
    roots = cd.positive_roots()
    for d in itertools.product(range(3), repeat=cd.n):
        found = kostant_partitions(roots, d)
        assert found == _partitions_root_by_root(roots, d)
        assert found == sorted(set(found), reverse=True)
        assert all(sum(ck * b[v] for ck, b in zip(c, roots)) == d[v] for c in found for v in range(cd.n))
    # without a simple root the remainder on its coordinate is left over
    assert kostant_partitions([(1, 1), (0, 1)], (1, 2)) == [(1, 1)]
    assert kostant_partitions([(1, 1), (0, 1)], (1, 0)) == []
    assert kostant_partitions(roots, (-1,) + (0,) * (cd.n - 1)) == []


# the depth-first walk's yield order on two weight spaces, pinned so that a
# change to the walk keeps it
KOSTANT_WALKS = [
    ("A3", (2, 3, 2), (2, 2, 1), [
        (0, 2, 0, 0, 1, 0), (0, 1, 1, 0, 0, 1), (0, 1, 0, 1, 0, 0), (1, 1, 0, 0, 1, 1), (1, 0, 1, 0, 0, 2),
        (1, 0, 0, 1, 0, 1), (2, 0, 0, 0, 1, 2),
    ]),
    ("D4", (0, 0, 1, 2), (1, 1, 2, 1), [
        (0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1),
        (0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1),
        (0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1),
        (0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0),
        (1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0), (1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1),
        (0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0), (1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0),
        (1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 1, 1),
    ]),
]


@pytest.mark.parametrize("name,xi,d,walk", KOSTANT_WALKS, ids=[w[0] for w in KOSTANT_WALKS])
def test_kostant_walk_yields_in_its_pinned_order(name, xi, d, walk):
    cd = cartan_datum(name)
    roots = AdaptedWord.build(QuiverDatum.from_xi(cd, xi)).roots
    assert list(iter_kostant_partitions(roots, d)) == walk


@pytest.mark.parametrize("n", range(1, 6))
def test_dimension_vectors_are_every_vector_up_to_the_bound_once(n):
    for bound in range(5):
        found = list(dimension_vectors(n, bound))
        assert len(found) == comb(bound + n, n)
        assert set(found) == {d for d in itertools.product(range(bound + 1), repeat=n) if sum(d) <= bound}
    # C(bound + n, n) of them are walked, not filtered out of a (bound + 1)^n
    # product: 3^40 candidates would not finish
    assert sum(1 for _ in dimension_vectors(40, 2)) == comb(42, 40)

