"""Packed keys against the unpacked reference (`conftest.reference_product`:
Monomial or exponent-vector keys, paired one pair of terms at a time by
`pair2`), on the rank-r tori of every orientation of A1-A5, D4 and D5 and on
the presentation windows of A3 and A4; and the range guard, which raises
ResourceCap instead of returning a wrapped key."""

import functools

import pytest
from hypothesis import given, seed, settings, strategies as st

from qgroth.cartan import ResourceCap
from qgroth.laurent import HalfLaurent
from qgroth.presentation import Presentation
from qgroth.quiver import QuiverContext
from qgroth.torus import Monomial, XTorus, divide_right

from conftest import all_orientations, reference_product

X_TYPES = ["A1", "A2", "A3", "A4", "A5", "D4", "D5"]
T_PLUS_T_INV = HalfLaurent.t_power(2) + HalfLaurent.t_power(-2)


@functools.lru_cache(maxsize=None)
def _orientations(name):
    return list(all_orientations(name))


@functools.lru_cache(maxsize=None)
def x_torus(name, n):
    ctx = QuiverContext(_orientations(name)[n])
    return XTorus(ctx.word.betas, ctx.cartan)


@functools.lru_cache(maxsize=None)
def window_torus(name, n, level):
    """The window torus of `verify presentation --m-range level..level+2`."""
    return Presentation(QuiverContext(_orientations(name)[n])).window(range(level, level + 3))


@st.composite
def tori(draw):
    if draw(st.booleans()):
        name = draw(st.sampled_from(X_TYPES))
        return x_torus(name, draw(st.integers(0, len(_orientations(name)) - 1)))
    name = draw(st.sampled_from(["A3", "A4"]))
    n = draw(st.integers(0, len(_orientations(name)) - 1))
    return window_torus(name, n, draw(st.integers(-20, 20)))


def monomials(ctx):
    """Exponent vectors on the rank-r torus, Monomials on a window torus."""
    if isinstance(ctx, XTorus):
        entries = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2])
        return st.lists(entries, min_size=ctx.r, max_size=ctx.r).map(tuple)
    return st.dictionaries(st.sampled_from(ctx.window), st.integers(-2, 2), max_size=4).map(Monomial)


coeffs = st.dictionaries(
    st.integers(min_value=-4, max_value=4), st.integers(min_value=-3, max_value=3), min_size=1, max_size=3
).map(HalfLaurent)


def elements(draw, ctx, size=3):
    return ctx.element(dict(draw(st.lists(st.tuples(monomials(ctx), coeffs), max_size=size))))


def dense(ctx, x):
    """The exponent vector of a monomial over the torus's variables."""
    return tuple(x) if isinstance(ctx, XTorus) else tuple(x.exp(i, p) for i, p in ctx.window)


def forms_are_recomputed_from_digits(x):
    return all(f == x.ctx.form(k) for k, f in x.forms.items()) and x.forms.keys() == x.terms.keys()


@seed(20261018)
@given(tori(), st.integers(min_value=-6, max_value=6), st.data())
@settings(max_examples=150, deadline=None)
def test_products_and_qcommutators_match_the_reference(ctx, exp2, data):
    a, b = elements(data.draw, ctx), elements(data.draw, ctx)
    ab, ba = reference_product(a, b), reference_product(b, a)
    assert a * b == ab
    assert a.qcommutator(b, exp2) == ab - ba.tshift(exp2)
    assert forms_are_recomputed_from_digits(a * b)
    assert forms_are_recomputed_from_digits(a.qcommutator(b, exp2))


@seed(20261018)
@given(tori(), st.data())
@settings(max_examples=100, deadline=None)
def test_nested_serre_element_and_triple_products_match_the_reference(ctx, data):
    a, b = elements(data.draw, ctx, 2), elements(data.draw, ctx, 2)
    aab = reference_product(reference_product(a, a), b)
    aba = reference_product(reference_product(a, b), a)
    baa = reference_product(reference_product(b, a), a)
    assert a.qcommutator(a.qcommutator(b, 2), -2) == aab - aba.scal(T_PLUS_T_INV) + baa
    assert (a * b) * a == aba == a * (b * a)


@seed(20261018)
@given(tori(), st.data())
@settings(max_examples=100, deadline=None)
def test_division_round_trip(ctx, data):
    q, p = elements(data.draw, ctx), elements(data.draw, ctx)
    if p.is_zero():
        return
    quotient = divide_right(q * p, p)
    assert quotient == q
    assert forms_are_recomputed_from_digits(quotient)


@seed(20261018)
@given(tori(), st.data())
@settings(max_examples=150, deadline=None)
def test_keys_order_dominance_and_leading_key_follow_the_exponent_vectors(ctx, data):
    xs = data.draw(st.lists(monomials(ctx), min_size=1, max_size=5))
    keys = [ctx.key(x) for x in xs]
    vecs = [dense(ctx, x) for x in xs]
    for k, v in zip(keys, vecs):
        assert ctx.exponents(k) == v
        assert ctx.is_dominant(k) == all(e >= 0 for e in v)
        assert ctx.form(k) == ctx.entry(xs[keys.index(k)])[1]
    for k1, v1, x1 in zip(keys, vecs, xs):
        for k2, v2, x2 in zip(keys, vecs, xs):
            assert (k1 < k2) == (v1 < v2) and (k1 == k2) == (v1 == v2)
            if not isinstance(ctx, XTorus):
                assert (k1 < k2) == (x1.sort_key() < x2.sort_key())
                assert ctx.key(x1 * x2) == k1 + k2
    element = ctx.element({x: HalfLaurent.one() for x in xs})
    assert ctx.exponents(element.leading_key()) == max(vecs)


def test_repeated_squaring_stops_at_the_digit_range():
    # X^(2^k, 2^k, 0): every square that is returned carries its exact key
    # and form, and the square that would leave the digits raises
    xt = x_torus("A2", 0)
    x, e = xt.monomial((1, 1, 0)), 1
    with pytest.raises(ResourceCap, match="torus product leaves"):
        for _ in range(40):
            x, e = x * x, 2 * e
            ((key, c),) = x.terms.items()
            assert xt.exponents(key) == (e, e, 0) and c == HalfLaurent.one()
            assert x.forms[key] == xt.form(key)
    assert 2 * e < xt.half


def test_a_pairing_past_the_digit_range_is_refused():
    # both keys fit, their pairing does not: unguarded, the middle digit of
    # form(a) * key(b) would be a wrapped value
    xt = x_torus("A2", 0)
    n = 300
    a, b = (n, 0, 0), (0, n, 0)
    assert abs(xt.pair2(a, b)) >= xt.half
    assert xt.pair(xt.form(xt.key(a)), xt.key(b)) != xt.pair2(a, b)
    with pytest.raises(ResourceCap, match="torus product leaves"):
        xt.monomial(a) * xt.monomial(b)
    # the quotient X^(n,-n,0) would pair with the divisor past the range in
    # the first coefficient step: the division refuses before it
    with pytest.raises(ResourceCap, match="torus division leaves"):
        divide_right(xt.monomial(a), xt.monomial(b))
    with pytest.raises(ResourceCap, match="does not fit"):
        xt.monomial((xt.half, 0, 0))
