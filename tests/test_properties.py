"""Property-based checks of the algebraic invariants."""

from functools import lru_cache

from hypothesis import given, seed, settings, strategies as st

from qgroth.cartan import SUPPORTED, cartan_datum
from qgroth.laurent import HalfLaurent
from qgroth.quiver import QuiverContext, QuiverDatum
from qgroth.torus import XTorus, divide_right

from conftest import (
    a_monomial,
    bar,
    distinct,
    form,
    four_coefficient_n,
    mon,
    power,
    reference_a_solve,
    reference_product,
    sort_key,
    wide_torus,
)

YT = {name: wide_torus(name) for name in ("A1", "A2", "A3", "A4", "D4")}
_A3 = QuiverContext(QuiverDatum.from_xi(cartan_datum("A3"), (2, 3, 2)))
XT = XTorus(_A3.word.euler)


def vertices(name):
    return st.integers(min_value=1, max_value=cartan_datum(name).n)


def ihat_points(name):
    return st.tuples(vertices(name), st.integers(min_value=-6, max_value=6))


def monomials(name, size=3):
    return st.dictionaries(
        ihat_points(name), st.integers(min_value=-2, max_value=2), max_size=size
    ).map(lambda m: {v: e for v, e in m.items() if e})


coeffs = st.dictionaries(
    st.integers(min_value=-4, max_value=4), st.integers(min_value=-3, max_value=3), max_size=3
).map(HalfLaurent)


def elements(name, size=2):
    return st.lists(st.tuples(monomials(name), coeffs), max_size=size).map(
        lambda pairs: YT[name].element(distinct((m, c) for m, c in pairs if not c.is_zero()))
    )


def x_elements(size=3, xt=XT):
    keys = st.lists(st.integers(min_value=-2, max_value=2), min_size=xt.r, max_size=xt.r).map(tuple)
    return st.lists(st.tuples(keys, coeffs), max_size=size).map(
        lambda pairs: xt.element(distinct((a, c) for a, c in pairs if not c.is_zero()))
    )


def y_pairing(qc, m1, m2):
    return sum(
        u * v * four_coefficient_n(qc, i, p, j, s) for (i, p), u in m1.items() for (j, s), v in m2.items()
    )


def dense_cmp(m1, m2):
    """Lex comparison of the dense exponent vectors over variables ordered by (p, i)."""
    for k in sorted(set(m1) | set(m2), key=lambda ip: (ip[1], ip[0])):
        d = m1.get(k, 0) - m2.get(k, 0)
        if d:
            return 1 if d > 0 else -1
    return 0


@given(st.sampled_from(["A2", "A3", "D4"]), st.data())
@settings(max_examples=60, deadline=None)
def test_pairing_antisymmetry(name, data):
    qc = YT[name].qc
    i, p = data.draw(ihat_points(name))
    j, s = data.draw(ihat_points(name))
    assert qc.n_pair(i, p, j, s) == -qc.n_pair(j, s, i, p)
    assert qc.n_pair(i, p, j, p) == 0


@given(st.sampled_from(["A2", "A3"]), st.data())
@settings(max_examples=40, deadline=None)
def test_star_associativity(name, data):
    yt = YT[name]
    a = yt.monomial(data.draw(monomials(name)))
    b = yt.monomial(data.draw(monomials(name)))
    c = yt.monomial(data.draw(monomials(name)))
    assert (a * b) * c == a * (b * c)


@given(st.sampled_from(["A2", "A3"]), st.data())
@settings(max_examples=40, deadline=None)
def test_bar_is_ring_antiautomorphism(name, data):
    x = data.draw(elements(name))
    y = data.draw(elements(name))
    assert bar(x * y) == bar(y) * bar(x)
    assert bar(bar(x)) == x


@given(st.sampled_from(["A2", "A3"]), st.data())
@settings(max_examples=30, deadline=None)
def test_exact_division_roundtrip(name, data):
    yt = YT[name]
    x = data.draw(elements(name))
    y = data.draw(elements(name))
    if not x.is_zero() and not y.is_zero():
        assert divide_right(y * x, x) == y


@given(st.sampled_from(["A2", "A3", "D4"]), st.data())
@settings(max_examples=40, deadline=None)
def test_a_lattice_solver_roundtrip(name, data):
    yt = YT[name]
    cd = yt.cartan
    picks = data.draw(
        st.dictionaries(
            st.tuples(vertices(name), st.integers(min_value=-3, max_value=3)),
            st.integers(min_value=0, max_value=2),
            max_size=3,
        )
    )
    prod = mon(*(power(a_monomial(cd, i, s), c) for (i, s), c in picks.items()))
    v = yt.a_solve(prod)
    assert v is not None
    rebuilt = mon(*(power(a_monomial(cd, i, s), c) for (i, s), c in v.items()))
    assert rebuilt == prod


@seed(20261022)
@given(st.sampled_from(["A1", "A2", "A3", "D4"]), st.data())
@settings(max_examples=300, deadline=None)
def test_a_solve_decides_the_rows_below_its_range_as_the_product_does(name, data):
    # a product of A's, times a few stray variables half the time, one of
    # them possibly off the diagram: the solve answers exactly where the
    # rebuilt product of its A's equals the ratio
    yt = YT[name]
    cd = yt.cartan
    picks = data.draw(
        st.dictionaries(st.tuples(vertices(name), st.integers(-3, 3)), st.integers(-2, 2), max_size=4)
    )
    stray = data.draw(
        st.dictionaries(st.tuples(st.integers(1, cd.n + 1), st.integers(-5, 5)), st.sampled_from([-1, 1]), max_size=2)
    )
    ratio = mon(*(power(a_monomial(cd, i, s), c) for (i, s), c in picks.items()), stray)
    v = yt.a_solve(ratio)
    assert v == reference_a_solve(yt, ratio)
    if not stray:
        assert v == {k: c for k, c in picks.items() if c}


@given(st.sampled_from(["A2", "A3", "D4"]), st.data())
@settings(max_examples=60, deadline=None)
def test_y_product_matches_the_termwise_product(name, data):
    yt = YT[name]
    x = data.draw(elements(name, size=3))
    y = data.draw(elements(name, size=3))
    assert x * y == reference_product(x, y, lambda a, b: y_pairing(yt.qc, a, b))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_x_product_matches_the_termwise_product(data):
    x = data.draw(x_elements())
    y = data.draw(x_elements())
    assert x * y == reference_product(x, y)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_x_exact_division_roundtrip(data):
    x = data.draw(x_elements())
    y = data.draw(x_elements())
    if not x.is_zero():
        assert divide_right(y * x, x) == y


@given(st.sampled_from(["A2", "A3", "D4"]), st.data())
@settings(max_examples=200, deadline=None)
def test_sort_key_is_dense_lex_and_additive(name, data):
    m1 = data.draw(monomials(name, size=4))
    m2 = data.draw(monomials(name, size=4))
    m3 = data.draw(monomials(name, size=4))
    k1, k2 = sort_key(m1), sort_key(m2)
    assert (k1 > k2) - (k1 < k2) == dense_cmp(m1, m2)
    assert (k1 == k2) == (m1 == m2)
    k13, k23 = sort_key(mon(m1, m3)), sort_key(mon(m2, m3))
    assert (k13 > k23) - (k13 < k23) == dense_cmp(m1, m2)


@lru_cache(maxsize=None)
def bipartite_xtorus(name):
    cd = cartan_datum(name)
    ctx = QuiverContext(QuiverDatum.bipartite(cd))
    return XTorus(ctx.word.euler)


@seed(20261018)
@given(st.sampled_from(sorted(f"{kind}{n}" for kind, n in SUPPORTED)), st.data())
@settings(max_examples=200, deadline=None)
def test_x_linear_form_matches_pair2(name, data):
    # products pair each left key through its form, the row vector a^T M
    # packed in reverse; pair2 is the reference
    xt = bipartite_xtorus(name)
    key = st.lists(
        st.integers(min_value=-3, max_value=3), min_size=xt.r, max_size=xt.r
    ).map(tuple)
    a, b = data.draw(key), data.draw(key)
    assert xt.pair(form(xt, xt.key(a)), xt.key(b)) == xt.pair2(a, b)
    unit = xt.unit_vector(data.draw(st.integers(min_value=1, max_value=xt.r)))
    assert xt.pair(form(xt, xt.key(unit)), xt.key(b)) == xt.pair2(unit, b)


def torus_elements(name, size=3):
    """Y-elements on A1-A4, D4; X-elements on one orientation of A3, D4, E6."""
    if name.startswith("X"):
        return x_elements(size, bipartite_xtorus(name[1:]))
    return elements(name, size)


TORI = ["A1", "A2", "A3", "A4", "D4", "XA3", "XD4", "XE6"]
T_PLUS_T_INV = HalfLaurent.t_power(2) + HalfLaurent.t_power(-2)


@seed(20261018)
@given(st.sampled_from(TORI), st.integers(min_value=-6, max_value=6), st.data())
@settings(max_examples=200, deadline=None)
def test_qcommutator_is_the_difference_of_the_two_products(name, exp2, data):
    # one pass over pairs of terms against two products and a shift
    a = data.draw(torus_elements(name))
    b = data.draw(torus_elements(name))
    assert a.qcommutator(b, exp2) == a * b - (b * a).tshift(exp2)


@seed(20261018)
@given(st.sampled_from(TORI), st.data())
@settings(max_examples=100, deadline=None)
def test_nested_qcommutator_is_the_serre_element(name, data):
    # [a, [a, b]_t]_{t^-1} = a^2 b - (t + t^-1) a b a + b a^2
    a = data.draw(torus_elements(name, size=2))
    b = data.draw(torus_elements(name, size=2))
    serre = a * a * b - (a * b * a).scal(T_PLUS_T_INV) + b * a * a
    assert a.qcommutator(a.qcommutator(b, 2), -2) == serre


@seed(20261018)
@given(st.sampled_from(TORI), st.sampled_from([2, -2]), st.data())
@settings(max_examples=100, deadline=None)
def test_both_serre_nestings_and_both_commutator_orders_agree(name, s, data):
    # [a, [a, b]_{t^s}]_{t^-s} does not depend on s = +-1, and
    # [b, a]_{t^s} = -t^s [a, b]_{t^-s}: one inner commutator serves both
    # Serre rows of a pair
    a = data.draw(torus_elements(name, size=2))
    b = data.draw(torus_elements(name, size=2))
    assert a.qcommutator(a.qcommutator(b, s), -s) == a.qcommutator(a.qcommutator(b, -s), s)
    assert b.qcommutator(a, s) == -a.qcommutator(b, -s).tshift(s)


def _element_state(x):
    return dict(x.terms), dict(x.forms), {k: dict(c.c) for k, c in x.terms.items()}


def _assert_sound(x):
    """The invariant of TorusElement: no zero stored, in terms or in a
    coefficient, and forms on exactly the keys of terms, each the form of its
    key."""
    assert x.forms.keys() == x.terms.keys()
    assert all(x.forms[k] == form(x.ctx, k) for k in x.terms)
    assert all(c.c and 0 not in c.c.values() for c in x.terms.values())


@seed(20261019)
@given(coeffs, coeffs, st.integers(min_value=-6, max_value=6))
@settings(max_examples=300, deadline=None)
def test_laurent_operations_store_no_zero_and_leave_operands(a, b, k):
    before = dict(a.c), dict(b.c)
    results = [
        a + b, a - b, a - a, a + (-a), a * b, (a + b) * (a - b), -a, a.shift(k), a.conj(),
        a * HalfLaurent({0: 0}), a * HalfLaurent({0: k}), a.negative_part(), (a - a.conj()).negative_part(),
    ]
    for x in results:
        assert 0 not in x.c.values()
    assert (a.c, b.c) == before
    assert a.is_symmetric() == all(a.c.get(-e, 0) == v for e, v in a.c.items())
    assert a.is_antisymmetric() == all(a.c.get(-e, 0) == -v for e, v in a.c.items())


@seed(20261019)
@given(st.sampled_from(TORI), st.integers(min_value=-6, max_value=6), coeffs, st.data())
@settings(max_examples=200, deadline=None)
def test_torus_operations_keep_the_element_invariant_and_leave_operands(name, exp2, c, data):
    a = data.draw(torus_elements(name))
    b = data.draw(torus_elements(name))
    before = _element_state(a), _element_state(b)
    results = [
        a * b, b * a, a.mul_shift(b, exp2), a.qcommutator(b, exp2), a.qcommutator(a, 0),
        a.tshift(exp2), a.scal(HalfLaurent()), a.scal(c), bar(a), -a, a + b, a - a,
    ]
    if not a.is_zero():
        results.append(divide_right(b * a, a))
    for x in results:
        _assert_sound(x)
    assert a.qcommutator(a, 0).is_zero() and a.scal(HalfLaurent()).is_zero()
    assert a.mul_shift(b, exp2) == (a * b).tshift(exp2)
    assert (_element_state(a), _element_state(b)) == before
