from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

import itertools

from qgroth.cartan import (
    SUPPORTED,
    CartanDatum,
    RankMismatch,
    Weight,
    cartan_datum,
    dimension_vectors,
    iter_kostant_partitions,
    kostant_partitions,
    _cartan_inverse,
    _root_vectors,
)
from qgroth.hall import GF, mat_rank, rref
from qgroth.quiver import AdaptedWord, QuiverDatum

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
            assert cd.sprod(cd.alpha(i), cd.varpi(j)) == (1 if i == j else 0)
            assert cd.sprod(cd.alpha(i), cd.alpha(j)) == cd.cartan_matrix()[i - 1][j - 1]
    assert cd.sprod(cd.zero_weight(), cd.varpi(2)) == 0


def test_scalar_product_rank_mismatch():
    cd = cartan_datum("A3")
    with pytest.raises(RankMismatch):
        cd.sprod(Weight((1, 0)), cd.varpi(1))


def test_simple_reflection_examples():
    cd = cartan_datum("A3")
    for i in cd.vertices:
        assert cd.reflect(i, cd.varpi(i)) == cd.varpi(i) - cd.alpha(i)
        for j in cd.vertices:
            lam = cd.varpi(j) + cd.alpha(i).scale(2)
            assert cd.reflect(i, cd.reflect(i, lam)) == lam


def test_coxeter_word_action_rank4():
    # tau = s_2 s_4 s_1 s_3 sends alpha_1 + alpha_2 to alpha_3 + alpha_4
    cd = cartan_datum("A4")
    g1 = cd.alpha(1) + cd.alpha(2)
    assert cd.apply_word((2, 4, 1, 3), g1) == cd.alpha(3) + cd.alpha(4)


def test_positive_root_counts():
    expected = {"A1": 1, "A2": 3, "A3": 6, "A4": 10, "A5": 15, "D4": 12, "D5": 20, "E6": 36}
    for name, r in expected.items():
        cd = cartan_datum(name)
        assert cd.num_positive_roots() == r


def test_positive_roots_rank2():
    cd = cartan_datum("A2")
    roots = {cd.root_coords(w) for w in cd.positive_roots()}
    assert roots == {(1, 0), (0, 1), (1, 1)}


def test_coxeter_numbers():
    expected = {"A1": 2, "A2": 3, "A3": 4, "A4": 5, "A5": 6, "D4": 6, "D5": 8, "E6": 12}
    for name, h in expected.items():
        cd = cartan_datum(name)
        assert cd.coxeter_number() == h
        assert h * cd.n == 2 * cd.num_positive_roots()


def test_reflection_permutes_other_positive_roots():
    for name in ("A3", "D4"):
        cd = cartan_datum(name)
        pos = {w.coords for w in cd.positive_roots()}
        for i in cd.vertices:
            rest = pos - {cd.alpha(i).coords}
            image = {cd.reflect(i, Weight(w)).coords for w in rest}
            assert image == rest


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
    for w in cd.positive_roots():
        back = cd.zero_weight()
        for i, c in zip(cd.vertices, cd.root_coords(w)):
            back = back + cd.alpha(i).scale(c)
        assert back == w


def test_json_roundtrip():
    cd = cartan_datum("E6")
    assert CartanDatum.from_json(cd.to_json()) == cd
    w = cd.varpi(3) - cd.alpha(2)
    assert Weight.from_json(w.to_json()) == w


@given(
    st.sampled_from(["A2", "A3", "D4"]),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
)
def test_scalar_product_symmetric_bilinear_on_root_lattice(name, xs, ys):
    cd = cartan_datum(name)
    lam = cd.zero_weight()
    mu = cd.zero_weight()
    for i in cd.vertices:
        lam = lam + cd.alpha(i).scale(xs[i - 1])
        mu = mu + cd.alpha(i).scale(ys[i - 1])
    assert cd.sprod(lam, mu) == cd.sprod(mu, lam)
    assert cd.sprod(lam + lam, mu) == 2 * cd.sprod(lam, mu)


def test_coefficient_extraction_property():
    # pairing a root against a fundamental weight reads off the simple-root coefficient
    for name in ("A4", "D4"):
        cd = cartan_datum(name)
        for w in cd.positive_roots():
            rc = cd.root_coords(w)
            for j in cd.vertices:
                assert cd.sprod(w, cd.varpi(j)) == rc[j - 1]


def test_large_types_instantiate():
    for name, r in [("A8", 36), ("D8", 56), ("E7", 63), ("E8", 120)]:
        cd = cartan_datum(name)
        assert cd.num_positive_roots() == r
        assert cd.coxeter_number() * cd.n == 2 * r


def test_integer_inverse_matches_the_rational_one():
    # alpha_coords, root_coords and sprod share one integer
    # inverse; the fundamental weights leave the root lattice except in E8
    for name in TYPES + ["D6", "E7", "E8"]:
        cd = cartan_datum(name)
        c = cd.cartan_matrix()
        for j in cd.vertices:
            w = cd.varpi(j)
            a = cd.alpha_coords(w)
            assert all(isinstance(x, Fraction) for x in a)
            assert tuple(sum(a[i] * c[i][k] for i in range(cd.n)) for k in range(cd.n)) == w.coords
            if all(x.denominator == 1 for x in a):
                assert cd.root_coords(w) == tuple(int(x) for x in a)
            else:
                with pytest.raises(ValueError):
                    cd.root_coords(w)
            for k in cd.vertices:
                # (w, varpi_k) is the k-th simple-root coordinate of w
                if a[k - 1].denominator == 1:
                    assert cd.sprod(w, cd.varpi(k)) == a[k - 1]
                else:
                    with pytest.raises(ValueError):
                        cd.sprod(w, cd.varpi(k))
    with pytest.raises(ValueError):
        cartan_datum("A1").root_coords(cartan_datum("A1").varpi(1))
    e8 = cartan_datum("E8")
    assert all(len(e8.root_coords(e8.varpi(j))) == 8 for j in e8.vertices)


@pytest.mark.parametrize("kind,n", sorted(SUPPORTED))
def test_cartan_inverse_from_the_positive_roots_inverts_c(kind, n):
    # d C^-1 read off sum_b b b^T is exact: C (d C^-1) = d I, in lowest terms
    c = CartanDatum(kind, n).cartan_matrix()
    d, adj = _cartan_inverse(kind, n)
    assert [[sum(c[i][k] * adj[k][j] for k in range(n)) for j in range(n)] for i in range(n)] == [
        [d * (i == j) for j in range(n)] for i in range(n)
    ]
    assert gcd(d, *(x for row in adj for x in row)) == 1


@pytest.mark.parametrize("kind,n", sorted(SUPPORTED))
def test_positive_root_vectors_are_the_roots_on_the_simple_roots(kind, n):
    # n h / 2 vectors of norm 2, each the simple-root coordinates of the
    # positive root in the same place of positive_roots()
    cd = CartanDatum(kind, n)
    c = cd.cartan_matrix()
    vectors = _root_vectors(kind, n)
    assert len(vectors) == n * cd.coxeter_number() // 2 == len(set(vectors))
    assert all(sum(b[i] * c[i][j] * b[j] for i in range(n) for j in range(n)) == 2 for b in vectors)
    assert list(vectors) == [cd.root_coords(w) for w in cd.positive_roots()]


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
    roots = [tuple(cd.root_coords(b)) for b in cd.positive_roots()]
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
    roots = [tuple(cd.root_coords(b)) for b in AdaptedWord.build(QuiverDatum.from_xi(cd, xi)).betas]
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

