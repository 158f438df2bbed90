from hypothesis import given, strategies as st

from qgroth.laurent import HalfLaurent


def hl(d):
    return HalfLaurent(d)


laurents = st.dictionaries(
    st.integers(min_value=-8, max_value=8), st.integers(min_value=-9, max_value=9), max_size=5
).map(hl)


def test_basic_arithmetic():
    a = hl({0: 1, 2: 1})  # 1 + t
    b = hl({-2: 1})  # t^-1
    assert (a * b) == hl({-2: 1, 0: 1})
    assert (a + (-a)).is_zero()
    assert a - a == HalfLaurent.zero()
    assert HalfLaurent.one() * a == a


def test_no_zero_coefficients_stored():
    assert hl({3: 0, 1: 2}).c == {1: 2}
    assert (hl({1: 1}) - hl({1: 1})).c == {}


def test_conj_and_symmetry():
    a = hl({1: 2, -1: 2})
    assert a.conj() == a
    assert a.is_symmetric()
    b = hl({1: 1, -1: -1})
    assert b.is_antisymmetric()
    assert b.conj() == -b
    assert hl({1: 1}).conj() == hl({-1: 1})


def test_negative_part():
    a = hl({-4: 2, -1: 1, 0: 5, 3: 7})
    assert a.negative_part() == hl({-4: 2, -1: 1})


def test_exact_division():
    a = hl({0: 1, 2: 2, 4: 1})  # (1+t^1/2... in doubled exps: (1 + u)^2 with u = t^(1/2)
    b = hl({0: 1, 2: 1})
    q = a.exact_div(b)
    assert q == b
    assert hl({0: 1, 2: 1, 4: 1}).exact_div(b) is None
    # unit monomial shifts divide everything
    assert a.exact_div(hl({-2: 1})) == a.shift(2)


def test_render():
    assert hl({}).render() == "0"
    assert hl({0: 1}).render() == "1"
    assert hl({2: 1, -2: 1}).render() == "t + t^-1"
    assert hl({1: -1}).render() == "-t^(1/2)"
    assert hl({1: 1}).render() == "t^(1/2)"
    assert hl({-3: 1}).render() == "t^(-3/2)"
    assert hl({1: -2}).render() == "-2*t^(1/2)"
    assert hl({2: 1}).render() == "t"
    assert hl({-2: 1}).render() == "t^-1"


@given(laurents, laurents, laurents)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(laurents, laurents)
def test_division_roundtrip(a, b):
    if not b.is_zero():
        q = (a * b).exact_div(b)
        assert q == a


@given(laurents)
def test_conj_involution(a):
    assert a.conj().conj() == a


def reference_exact_div(a, b):
    """Long division from the top, bounded by a step count rather than by the
    quotient's exponent box."""
    lead_e = b.max_exp2()
    rem, quot = dict(a.c), {}
    for _ in range(len(a.c) + len(b.c) + a.max_exp2() - a.min_exp2() + 2):
        if not rem:
            return hl(quot)
        e = max(rem)
        if rem[e] % b.c[lead_e]:
            return None
        q, qe = rem[e] // b.c[lead_e], e - lead_e
        quot[qe] = quot.get(qe, 0) + q
        for oe, ov in b.c.items():
            rem[qe + oe] = rem.get(qe + oe, 0) - q * ov
            if not rem[qe + oe]:
                del rem[qe + oe]
    return None if rem else hl(quot)


nonzero = laurents.filter(bool)


@given(nonzero, nonzero, st.integers(-20, 20), st.integers(-9, 9).filter(bool))
def test_division_stops_at_the_exponent_box(a, b, k, c):
    # on exact products the quotient is a; a product perturbed by one term
    # c t^(k/2) gives what the step-bounded division gives, and None when b
    # has two or more terms, since no such b divides a monomial
    exact, perturbed = a * b, a * b + hl({k: c})
    assert exact.exact_div(b) == reference_exact_div(exact, b) == a
    if perturbed:
        assert perturbed.exact_div(b) == reference_exact_div(perturbed, b)
        if len(b.c) > 1:
            assert perturbed.exact_div(b) is None
