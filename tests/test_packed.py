"""Packed keys against the unpacked reference (`conftest.reference_product`:
exponent maps or exponent vectors, paired one pair of terms at a time by
`pair2`), on the rank-r tori of every orientation of A1-A5, D4 and D5 and on
the presentation windows of A3 and A4; products of factors confined to a band
of key places, whose pairings are read on that band; the band itself; the
range guard, which raises ResourceCap instead of returning a wrapped key; the
one key width and the read-back against the digit loop; division against
its one-term product reference (`conftest.reference_divide_right`); and the
window's one-pass build: the Gram rows packed by `struct`, and the
fundamental t-characters packed from their base items, against the
exponent-map route."""

import functools
import struct

import pytest
from hypothesis import given, seed, settings, strategies as st

from qgroth.cartan import ResourceCap, cartan_datum
from qgroth.characters import _fm_base, fundamental_tchar, fundamental_window
from qgroth.laurent import HalfLaurent
from qgroth.presentation import Presentation
from qgroth.quiver import AdaptedWord, QuiverContext
from qgroth.qcartan import quantum_cartan
from qgroth.torus import MIN_CUT_PLACES, QuantumTorus, XTorus, YTorus, divide_right

from conftest import (
    all_orientations,
    boundary_terms,
    digit_loop,
    distinct,
    form,
    mon,
    orientations_and_bipartites,
    reference_divide_right,
    reference_product,
    sort_key,
)

X_TYPES = ["A1", "A2", "A3", "A4", "A5", "D4", "D5"]
T_PLUS_T_INV = HalfLaurent.t_power(2) + HalfLaurent.t_power(-2)


@functools.lru_cache(maxsize=None)
def _orientations(name):
    return list(all_orientations(name))


@functools.lru_cache(maxsize=None)
def x_torus(name, n):
    ctx = QuiverContext(_orientations(name)[n])
    return XTorus(ctx.word.euler)


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
    """Exponent vectors on the rank-r torus, exponent maps with no zero entry
    on a window torus."""
    if isinstance(ctx, XTorus):
        entries = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2])
        return st.lists(entries, min_size=ctx.r, max_size=ctx.r).map(tuple)
    entries = st.dictionaries(st.sampled_from(ctx.window), st.integers(-2, 2), max_size=4)
    return entries.map(lambda m: {v: e for v, e in m.items() if e})


coeffs = st.dictionaries(
    st.integers(min_value=-4, max_value=4), st.integers(min_value=-3, max_value=3), min_size=1, max_size=3
).map(HalfLaurent)
nonzero_coeffs = coeffs.filter(bool)


def elements(draw, ctx, size=3):
    return ctx.element(distinct(draw(st.lists(st.tuples(monomials(ctx), coeffs), max_size=size))))


def dense(ctx, x):
    """The exponent vector of a monomial over the torus's variables."""
    return tuple(x) if isinstance(ctx, XTorus) else tuple(x.get(v, 0) for v in ctx.window)


def forms_are_recomputed_from_digits(x):
    return all(f == form(x.ctx, k) for k, f in x.forms.items()) and x.forms.keys() == x.terms.keys()


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
        assert form(ctx, k) == ctx.entry(xs[keys.index(k)])[1]
    for k1, v1, x1 in zip(keys, vecs, xs):
        for k2, v2, x2 in zip(keys, vecs, xs):
            assert (k1 < k2) == (v1 < v2) and (k1 == k2) == (v1 == v2)
            if not isinstance(ctx, XTorus):
                assert (k1 < k2) == (sort_key(x1) < sort_key(x2))
                assert ctx.key(mon(x1, x2)) == k1 + k2
    element = ctx.element(distinct((x, HalfLaurent.one()) for x in xs))
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
            assert x.forms[key] == form(xt, key)
    assert 2 * e < xt.half


def test_a_pairing_past_the_digit_range_is_refused():
    # both keys fit, their pairing does not: unguarded, the middle digit of
    # form(a) * key(b) would be a wrapped value
    xt = x_torus("A2", 0)
    n = 300
    a, b = (n, 0, 0), (0, n, 0)
    assert abs(xt.pair2(a, b)) >= xt.half
    assert xt.pair(form(xt, xt.key(a)), xt.key(b)) != xt.pair2(a, b)
    with pytest.raises(ResourceCap, match="torus product leaves"):
        xt.monomial(a) * xt.monomial(b)
    # the quotient X^(n,-n,0) would pair with the divisor past the range in
    # the first coefficient step: the division refuses before it
    with pytest.raises(ResourceCap, match="torus division leaves"):
        divide_right(xt.monomial(a), xt.monomial(b))
    with pytest.raises(ResourceCap, match="does not fit"):
        xt.monomial((xt.half, 0, 0))


# --------------------------------------------------------------------------
# factors confined to a band of key places
# --------------------------------------------------------------------------

# the 40-variable A4 window of `verify presentation --m-range 0..2` and the
# 20-variable rank-r torus of D5, both at least MIN_CUT_PLACES wide
BAND_TORI = ["A4 window", "D5 rank"]


def band_torus(name):
    kind, torus = name.split()
    ctx = window_torus(kind, 0, 0) if torus == "window" else x_torus(kind, 0)
    assert ctx.n >= MIN_CUT_PLACES
    return ctx


def at_places(ctx, digits):
    """The monomial whose key holds digit d at place j for every (j, d) in
    digits: place j is variable n-1-j, so place 0 is the last variable."""
    n = ctx.n
    if isinstance(ctx, XTorus):
        v = [0] * n
        for j, d in digits.items():
            v[n - 1 - j] = d
        return tuple(v)
    return {ctx.window[n - 1 - j]: d for j, d in digits.items() if d}


@st.composite
def banded(draw, ctx):
    """An element whose keys fill exactly the places lo..hi of a drawn band
    (the first or the last place alone, three places at either end, the
    whole key or any band), with edge digits of either sign and possibly a
    constant term; or a constant, whose only key is 0."""
    n = ctx.n
    shape = draw(st.sampled_from(["first", "last", "low", "high", "whole", "any", "constant"]))
    if shape == "constant":
        return ctx.element([(at_places(ctx, {}), draw(nonzero_coeffs))])
    ends = {"first": (0, 0), "last": (n - 1, n - 1), "low": (0, 2), "high": (n - 3, n - 1), "whole": (0, n - 1)}
    lo, hi = ends.get(shape) or sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2)))
    digit = st.sampled_from([1, -1, 2, -2])
    inner = st.dictionaries(st.integers(lo, hi), digit, max_size=3)
    keys = [at_places(ctx, {lo: draw(digit), hi: draw(digit)})]
    keys += [at_places(ctx, d) for d in draw(st.lists(inner, max_size=3))]
    if draw(st.booleans()):
        keys.append(at_places(ctx, {}))
    x = ctx.element(distinct([(k, draw(nonzero_coeffs)) for k in keys]))
    assert ctx.band(x.terms) == (lo, hi)
    return x


@seed(20261019)
@given(st.sampled_from(BAND_TORI), st.integers(min_value=-6, max_value=6), st.data())
@settings(max_examples=200, deadline=None)
def test_products_of_band_confined_factors_match_the_reference(name, exp2, data):
    # the two bands may be disjoint and far apart ("low" against "high"), and
    # either factor may have more terms, so either supplies the keys
    ctx = band_torus(name)
    a, b = data.draw(banded(ctx)), data.draw(banded(ctx))
    ab, ba = reference_product(a, b), reference_product(b, a)
    assert a * b == ab and b * a == ba
    assert a.mul_shift(b, exp2) == ab.tshift(exp2)
    assert a.qcommutator(b, exp2) == ab - ba.tshift(exp2)
    assert b.qcommutator(a, exp2) == ba - ab.tshift(exp2)
    assert divide_right(ab, b) == a and divide_right(ba, a) == b


@pytest.mark.parametrize("name", BAND_TORI)
@pytest.mark.parametrize("spread", [False, True])
def test_a_pairing_at_the_edge_of_the_range_check_is_exact(name, spread):
    # a single variable against exponent e, the largest with mmax * 1 * e < H
    # and 1 + e < H, which the range check admits, and e + 1, which it
    # refuses; spread, e is split between a variable and the top place; b
    # carries a constant term too, so either factor may supply the band
    ctx = band_torus(name)
    n, m = ctx.n, ctx.mmax
    k, l = next((k, l) for k in range(n) for l in range(n) if abs(ctx.gram[k][l]) == m)
    e = min((ctx.half - 1) // m, ctx.half - 2)
    for sign in (1, -1):
        a = ctx.monomial(at_places(ctx, {n - 1 - k: sign}))
        for big in (e, e + 1):
            digits = {n - 1 - l: -sign * big}
            if spread and l != n - 1:
                digits = {n - 1 - l: -sign * (big - 1), n - 1: sign}
            b = ctx.element([(at_places(ctx, digits), T_PLUS_T_INV), (at_places(ctx, {}), HalfLaurent.one())])
            if big > e:
                with pytest.raises(ResourceCap, match="torus product leaves"):
                    a * b
                continue
            ab, ba = reference_product(a, b), reference_product(b, a)
            assert max(abs(ctx.pair2(x, y)) for x, _ in boundary_terms(a) for y, _ in boundary_terms(b)) >= m * (e - 2)
            assert a * b == ab and b * a == ba
            assert a.qcommutator(b, 0) == ab - ba and b.mul_shift(a, -2) == ba.tshift(-2)


@seed(20261019)
@given(tori(), st.data())
@settings(max_examples=150, deadline=None)
def test_the_band_is_the_least_and_greatest_nonzero_place(ctx, data):
    n, top = ctx.n, ctx.half - 1
    place = st.sampled_from([0, n - 1]) | st.integers(0, n - 1)
    digit = st.sampled_from([1, -1, top, -top])
    vecs = data.draw(st.lists(st.dictionaries(place, digit, max_size=4), max_size=4))
    keys = [sum(d << (ctx.W * j) for j, d in v.items()) for v in vecs]
    places = {n - 1 - k for key in keys for k, d in enumerate(ctx.exponents(key)) if d}
    assert places == {j for v in vecs for j in v}
    assert ctx.band(keys) == ((min(places), max(places)) if places else None)


# --------------------------------------------------------------------------
# key widths and read-back
# --------------------------------------------------------------------------


def is_struct_read(ctx) -> bool:
    # `exponents` unpacks the n digits as big-endian shorts in one call
    s = ctx._shorts.__self__
    return isinstance(s, struct.Struct) and s.format == f">{ctx.n}h" and ctx._shorts == s.unpack


def test_every_torus_takes_16_bit_keys():
    # W = 16 on every torus, read back in one struct call: factors of l1 up
    # to 181 always multiply on the rank-r tori (max|M| = 1) and up to 127,
    # and not always 128, on the windows (max|M| = 2)
    for quiver in orientations_and_bipartites():
        xt = XTorus(AdaptedWord.build(quiver).euler)
        assert (xt.W, xt.half, is_struct_read(xt)) == (16, 1 << 15, True), quiver
        assert xt.mmax * 181 * 181 < xt.half and 2 * 181 < xt.half
    for name in ("A3", "A4", "A5", "D4"):
        for n in range(len(_orientations(name))):
            yt = window_torus(name, n, 0)
            assert (yt.W, yt.half, yt.mmax, is_struct_read(yt)) == (16, 1 << 15, 2, True), (name, n)
            assert yt.mmax * 127 * 127 < yt.half <= yt.mmax * 128 * 128


# A1 (M = 0) and D5 rank-r tori, the A3 and A4 presentation windows
READ_BACK_TORI = ["A1 rank", "D5 rank", "A3 window", "A4 window"]


def read_back_torus(name):
    kind, torus = name.split()
    return window_torus(kind, 0, -3) if torus == "window" else x_torus(kind, 0)


@pytest.mark.parametrize("name", READ_BACK_TORI)
@seed(20261020)
@given(st.data())
@settings(max_examples=100, deadline=None)
def test_exponents_read_back_every_digit_in_range(name, data):
    ctx = read_back_torus(name)
    top = ctx.half - 1
    digit = st.sampled_from([0, 1, -1, top, -top]) | st.integers(-top, top)
    v = tuple(data.draw(st.lists(digit, min_size=ctx.n, max_size=ctx.n)))
    key = sum(d << s for d, s in zip(v, ctx._place))
    assert ctx.exponents(key) == digit_loop(ctx, key) == v


def reference_to_json(x):
    """`TorusElement.to_json` with its keys read by the digit loop."""
    ctx, out = x.ctx, []
    for k in sorted(x.terms):
        a = list(digit_loop(ctx, k))
        if ctx.json_window is not None:
            a = [[i, p, e] for (i, p), e in zip(ctx.json_window, a) if e]
        c = x.terms[k].c
        out.append([a, [[e, c[e]] for e in sorted(c)]])
    return out


@seed(20261020)
@given(tori(), st.data())
@settings(max_examples=100, deadline=None)
def test_to_json_matches_the_digit_loop(ctx, data):
    x = elements(data.draw, ctx, 5)
    assert x.to_json() == reference_to_json(x)


# --------------------------------------------------------------------------
# division against its one-term product reference
# --------------------------------------------------------------------------


def divisors(draw, ctx):
    """A nonzero element: one term, a monomial divisor, half the time."""
    size = draw(st.sampled_from([1, 1, 2, 3]))
    return ctx.element(distinct(draw(st.lists(st.tuples(monomials(ctx), nonzero_coeffs), min_size=size, max_size=size))))


def outcome(divide, s, p):
    """The quotient, or the type and message of the error it raised."""
    try:
        return divide(s, p)
    except (ArithmeticError, ResourceCap) as exc:
        return type(exc), str(exc)


@seed(20261020)
@given(tori(), st.data())
@settings(max_examples=150, deadline=None)
def test_division_matches_the_one_term_product_reference(ctx, data):
    a, b = elements(data.draw, ctx), divisors(data.draw, ctx)
    s = a * b
    quotient = divide_right(s, b)
    assert quotient == reference_divide_right(s, b) == a
    assert forms_are_recomputed_from_digits(quotient)
    # a monomial added to a * b: by a divisor of two or more terms the
    # quotient is not exact, by a monomial it may be; both routes return the
    # same quotient or stop at the same step with the same error
    t = s + ctx.element([(data.draw(monomials(ctx)), data.draw(nonzero_coeffs))])
    got = outcome(divide_right, t, b)
    assert got == outcome(reference_divide_right, t, b)
    if isinstance(got, tuple):
        assert got[0] is ArithmeticError and "not exact" in got[1]
    else:
        assert len(b) == 1 and got * b == t


@pytest.mark.parametrize("name", READ_BACK_TORI[1:])
def test_a_key_that_cancels_in_the_dividend_is_divided_through(name):
    # q = X^a + X^b by p = X^c - t^(e/2) X^d with a + d = b + c and e chosen
    # so that X^a X^d cancels X^b X^c: the first step brings key a + d back
    # into the remainder, and the second step divides at that key, reading
    # its form from the step that made it
    ctx = read_back_torus(name)
    n = ctx.n
    a, b, c = (at_places(ctx, {j: 1}) for j in (n - 1, n - 2, n - 3))
    d = at_places(ctx, {n - 1: -1, n - 2: 1, n - 3: 1})
    e = ctx.pair2(b, c) - ctx.pair2(a, d)
    q = ctx.monomial(a) + ctx.monomial(b)
    p = ctx.monomial(c) + ctx.monomial(d, HalfLaurent({e: -1}))
    s = q * p
    assert len(s) == 2 and ctx.key(a) + ctx.key(d) not in s.terms
    quotient = divide_right(s, p)
    assert quotient == reference_divide_right(s, p) == q
    assert forms_are_recomputed_from_digits(quotient)


@pytest.mark.parametrize("name", READ_BACK_TORI)
def test_both_inexact_division_errors_match_the_reference(name):
    # 2 X^e over 3 fails at the coefficient step; X^e over 1 + X^f, with f a
    # later variable than e, puts the first quotient key outside its box
    ctx = read_back_torus(name)
    e = at_places(ctx, {ctx.n - 1: 1})
    f = at_places(ctx, {ctx.n - 2: 1} if ctx.n > 1 else {0: 2})
    unit = at_places(ctx, {})
    cases = {
        "coefficient step": (ctx.monomial(e, HalfLaurent({0: 2})), ctx.monomial(unit, HalfLaurent({0: 3}))),
        "outside its box": (ctx.monomial(e), ctx.one() + ctx.monomial(f)),
    }
    for message, (s, p) in cases.items():
        for divide in (divide_right, reference_divide_right):
            with pytest.raises(ArithmeticError, match=message):
                divide(s, p)


@seed(20261021)
@given(st.integers(min_value=1, max_value=20).flatmap(
    lambda n: st.lists(st.lists(st.integers(-(1 << 15) + 1, (1 << 15) - 1), min_size=n, max_size=n),
                       min_size=n, max_size=n)
))
@settings(max_examples=100, deadline=None)
def test_packed_gram_rows_equal_the_digit_sums(gram):
    # every row, negative entries included, packs to sum(x << W k)
    ctx = QuantumTorus([f"v{k}" for k in range(len(gram))], gram)
    assert ctx._rows == [sum(x << (ctx.W * k) for k, x in enumerate(row)) for row in gram]
    assert ctx.mmax == max(abs(x) for row in gram for x in row)


def monomial_route(yt, i, p):
    """The fundamental t-character at (i, p) through one shifted exponent
    map per term, entered by `YTorus.element`."""
    cd = yt.cartan
    return yt.element(({(j, q + p): e for (j, q), e in m}, c) for m, c in _fm_base(cd.kind, cd.n, i).items())


@pytest.mark.parametrize("name", X_TYPES + ["E6"])
def test_fundamentals_packed_from_their_base_equal_the_monomial_route(name):
    cd = cartan_datum(name)
    for p in (-7, 0, 3):
        yt = fundamental_window(quantum_cartan(cd), [(i, p) for i in cd.vertices])
        for i in cd.vertices:
            got, want = fundamental_tchar(yt, i, p), monomial_route(yt, i, p)
            assert list(got.terms.items()) == list(want.terms.items())
            assert (got.forms, got.l1) == (want.forms, want.l1)


def test_a_fundamental_off_its_window_raises_the_monomial_routes_error():
    cd = cartan_datum("A3")
    yt = YTorus(quantum_cartan(cd), [(1, 0), (2, 1), (3, 2)])
    messages = []
    for route in (fundamental_tchar, monomial_route):
        with pytest.raises(ValueError) as err:
            route(yt, 1, 0)
        messages.append(str(err.value))
    assert messages == ["variable Y[1, 2] is outside the torus window"] * 2
