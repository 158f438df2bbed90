from operator import add

import pytest

import qgroth.torus as torus
from qgroth.cartan import ResourceCap, cartan_datum
from qgroth.laurent import HalfLaurent
from qgroth.qcartan import quantum_cartan
from qgroth.quiver import AdaptedWord, QuiverContext
from qgroth.torus import (
    MAX_QUOTIENT_TERMS,
    XTorus,
    YTorus,
    divide_right,
    render_monomial,
)

from conftest import (
    a_monomial,
    all_orientations,
    bar,
    beta_of,
    mon,
    orientations_and_bipartites,
    power,
    wide_torus,
    y,
)


def test_commutation_examples(ytorus):
    yt = ytorus("A3")
    # the two deformation conventions differ here: this product picks up t
    x = yt.monomial(y(1, 0)) * yt.monomial(y(2, 1))
    assert x == yt.monomial(mon(y(1, 0), y(2, 1)), HalfLaurent.t_power(1))
    # swapping costs the full antisymmetric exponent: m1*m2 = t^D m2*m1
    a, b = mon(y(1, 0), y(1, 2, -1)), mon(y(2, 1), y(3, 2))
    d = yt.pair2(a, b)
    lhs = yt.monomial(a) * yt.monomial(b)
    rhs = (yt.monomial(b) * yt.monomial(a)).tshift(2 * d)
    assert lhs == rhs
    assert yt.monomial(a) * yt.one() == yt.monomial(a)


def test_prop_sign_rule_via_phi(contexts):
    # N(i,p;j,s) = (-1)^(l-m) (beta, delta) whenever p < s
    ctx = contexts("D4")
    cd = ctx.cartan
    yt = YTorus(quantum_cartan(cd))
    pts = [(i, p) for i in cd.vertices for p in range(-6, 7) if ctx.quiver.in_ihat(i, p)]
    for (i, p) in pts:
        for (j, s) in pts:
            if p < s:
                beta, m = ctx.phi.phi(i, p)
                delta, l = ctx.phi.phi(j, s)
                assert yt.qc.n_pair(i, p, j, s) == (-1) ** (l - m) * cd.sprod(beta, delta)


def test_bar_involution(ytorus):
    yt = ytorus("A2")
    x = yt.monomial(y(1, 0), HalfLaurent.t_power(1)) + yt.monomial(mon(y(2, 1), y(1, 2, -1)))
    assert bar(bar(x)) == x
    assert bar(yt.monomial(y(1, 0))) == yt.monomial(y(1, 0))
    assert bar(yt.monomial(y(1, 0), HalfLaurent.t_power(1))) == yt.monomial(
        y(1, 0), HalfLaurent.t_power(-1)
    )
    z = yt.monomial(mon(y(2, 3), y(1, 0)), HalfLaurent.t_power(-2)) + yt.one()
    assert bar(x * z) == bar(z) * bar(x)


def test_a_monomials(ytorus, categories):
    yt = ytorus("A3")
    assert a_monomial(yt.cartan, 2, 1) == {(2, 0): 1, (2, 2): 1, (1, 1): -1, (3, 1): -1}
    yt1 = ytorus("A1")
    assert a_monomial(yt1.cartan, 1, 1) == {(1, 0): 1, (1, 2): 1}
    # exchange monomials supported on the subtorus have degree zero
    cat = categories("A3")
    for (i, s) in [(1, 1), (2, 2), (3, 1)]:
        a = a_monomial(yt.cartan, i, s)
        if all(v in cat.index_of_position for v in a):
            assert not any(beta_of(cat, cat.avec_of(a)))


def test_nakajima_order(ytorus, categories):
    yt4 = ytorus("D4")
    top = {(1, 0): 1, (2, 0): 1, (3, 5): 1, (4, 0): 1}
    assert yt4.nakajima_leq(y(3, 1), top)
    assert yt4.nakajima_leq(top, top)
    yt = ytorus("A2")
    assert not yt.nakajima_leq(y(1, 0), y(2, 1))
    assert not yt.nakajima_leq(y(2, 1), y(1, 0))


def test_a_solve_roundtrip(ytorus):
    yt = ytorus("A3")
    cd = yt.cartan
    prod = mon(a_monomial(cd, 1, 1), power(a_monomial(cd, 2, 2), 2), a_monomial(cd, 1, 3))
    v = yt.a_solve(prod)
    assert v == {(1, 1): 1, (2, 2): 2, (1, 3): 1}
    assert yt.a_solve(y(1, 0)) is None


def test_x_torus_products(contexts):
    ctx = contexts("A3")
    xt = XTorus(ctx.word.euler)
    M_expected = [
        [0, -1, -1, 0, 1, 1],
        [1, 0, 0, -1, 1, -1],
        [1, 0, 0, -1, -1, 1],
        [0, 1, 1, 0, -1, -1],
        [-1, -1, 1, 1, 0, 0],
        [-1, 1, -1, 1, 0, 0],
    ]
    for k in range(6):
        for l in range(6):
            assert xt.pair2(xt.unit_vector(k + 1), xt.unit_vector(l + 1)) == M_expected[k][l]
    # worked entries: mu_12 = -1, mu_45 = -1
    assert M_expected[0][1] == -1 and M_expected[3][4] == -1
    e1 = xt.unit_vector(1)
    assert xt.monomial(e1) * xt.one() == xt.monomial(e1) == xt.one() * xt.monomial(e1)
    # sigma fixes the basis and inverts the half power
    x = xt.monomial((1, 2, 0, -1, 0, 0), HalfLaurent.t_power(1))
    assert bar(x) == xt.monomial((1, 2, 0, -1, 0, 0), HalfLaurent.t_power(-1))
    assert bar(bar(x)) == x


def test_x_torus_pairing_is_the_symmetrized_euler_form():
    # the torus reads s = E + E^T off the word's Euler table E, and its Gram
    # matrix is s signed -1 above the diagonal; an independent route is
    # (beta_k, beta_l) = beta_k^T C beta_l on the Cartan matrix
    for quiver in orientations_and_bipartites():
        word = AdaptedWord.build(quiver)
        xt = XTorus(word.euler)
        assert xt.s == [[quiver.cartan.sprod(b, c) for c in word.roots] for b in word.roots], quiver
        assert xt.gram == [[((k > l) - (k < l)) * e for l, e in enumerate(row)] for k, row in enumerate(xt.s)]


def test_division(ytorus, monkeypatch):
    yt = ytorus("A2")
    a = yt.monomial(y(1, 0)) + yt.monomial(mon(y(2, 1), y(1, 2, -1))) + yt.monomial(y(2, 3, -1))
    b = yt.monomial(y(2, 1)) + yt.monomial(mon(y(1, 2), y(2, 3, -1)), HalfLaurent.t_power(2))
    assert divide_right(a * b, b) == a
    # the first quotient key Y[1,0] Y[2,1]^-1 is outside the exponent box of
    # a / b (Y[2,1] has exponent 0 in a and at least 0 in b); the elimination
    # alone would go on through Y[1,0] Y[2,1]^-k Y[1,2]^(k-1) Y[2,3]^(1-k).
    # With a budget of one quotient term it still ends as not exact.
    monkeypatch.setattr(torus, "MAX_QUOTIENT_TERMS", 1)
    with pytest.raises(ArithmeticError, match="not exact"):
        divide_right(a, b)


def test_exact_division_past_the_term_budget_is_a_resource_cap(contexts):
    # (1 - X^N) / (1 - X) = 1 + X + ... + X^(N-1) has N quotient terms
    ctx = contexts("A1")
    xt = XTorus(ctx.word.euler)
    minus = HalfLaurent({0: -1})
    p = xt.one() + xt.monomial((1,), minus)
    for n, fits in ((MAX_QUOTIENT_TERMS, True), (MAX_QUOTIENT_TERMS + 1, False)):
        s = xt.one() + xt.monomial((n,), minus)
        if fits:
            assert divide_right(s, p) == xt.element(((k,), HalfLaurent.one()) for k in range(n))
        else:
            with pytest.raises(ResourceCap, match=f"{MAX_QUOTIENT_TERMS} quotient terms"):
                divide_right(s, p)


def test_x_torus_division(contexts):
    ctx = contexts("A3")
    xt = XTorus(ctx.word.euler)
    e = [xt.unit_vector(k) for k in range(1, 7)]
    a = xt.monomial(e[0], HalfLaurent({1: 1, -1: 2})) + xt.monomial(tuple(map(add, e[1], e[4])))
    b = xt.monomial(e[2]) + xt.monomial(tuple(-x for x in e[3]), HalfLaurent.t_power(2)) + xt.one()
    assert divide_right(a * b, b) == a
    assert divide_right(b * a, a) == b
    assert divide_right(xt.zero(), b) == xt.zero()
    # a leading coefficient that does not divide
    with pytest.raises(ArithmeticError, match="coefficient step"):
        divide_right(xt.monomial(e[0]), xt.monomial(e[0], HalfLaurent({0: 2})) + xt.monomial(e[1]))
    # a non-unit divisor of a monomial: the first quotient key leaves the box
    with pytest.raises(ArithmeticError, match="not exact"):
        divide_right(xt.monomial(e[5]), xt.monomial(e[0]) + xt.monomial(e[1]))
    with pytest.raises(ZeroDivisionError):
        divide_right(a, xt.zero())


def test_element_json_roundtrip(ytorus):
    yt = ytorus("A2")
    x = yt.monomial(y(1, 0), HalfLaurent.t_power(3)) + yt.monomial(
        y(2, 1, -2), HalfLaurent({0: 2, -2: 1})
    )
    # a key is its [i, p, e] triples, a coefficient its [exp2, value] pairs
    back = [({(i, p): e for i, p, e in k}, HalfLaurent(dict(c))) for k, c in x.to_json()]
    assert yt.element(back) == x


def test_render():
    yt = YTorus(quantum_cartan(cartan_datum("A2")), [(1, 0), (1, 2), (2, 1)])
    x = yt.monomial(y(1, 0)) + yt.monomial(mon(y(1, 2, -1), y(2, 1)))
    assert x.render() == "Y[1,0] + Y[2,1] Y[1,2]^-1"


def window_keys(yt, rng) -> list[int]:
    """The key of every variable of the window, the unit, and 200 random
    exponent maps on the window with negative entries, zeros dropped."""
    keys = [yt.key({v: 1}) for v in yt.window] + [yt.key({})]
    for _ in range(200):
        keys.append(yt.key({v: e for v in yt.window if (e := rng.choice((-3, -1, 0, 0, 0, 1, 2)))}))
    return keys


@pytest.mark.parametrize("name", ["A3", "A4", "D4"])
def test_key_json_is_the_monomial_json(name, contexts):
    # an element's JSON reads the window in its (p, i) order, the order of
    # the sorted [i, p, e] triples of its exponent map; checked on the
    # category window and a wide window
    import random

    from qgroth.characters import CategoryQ

    rng = random.Random(name)
    for yt in (CategoryQ(contexts(name)).yt, wide_torus(name)):
        for k in window_keys(yt, rng):
            m = yt.monomial_of(k)
            want = [[i, p, e] for (p, i), e in sorted(((p, i), e) for (i, p), e in m.items())]
            assert yt.monomial(m).to_json() == [[want, [[0, 1]]]]


@pytest.mark.parametrize("name", ["A3", "A4", "D4"])
def test_the_monomial_render_is_the_key_render(name, contexts):
    # one render of a Y-monomial: its exponent map, read back from a key,
    # renders as the torus renders the key, the unit and negative exponents
    # included, whatever the order of its entries
    import random

    from qgroth.characters import CategoryQ

    rng = random.Random(name)
    for yt in (CategoryQ(contexts(name)).yt, wide_torus(name)):
        keys = window_keys(yt, rng)
        assert render_monomial(yt.monomial_of(0)) == yt.render_key(0) == "1"
        assert any("^-" in yt.render_key(k) for k in keys)
        for k in keys:
            m = yt.monomial_of(k)
            assert render_monomial(m) == render_monomial(dict(reversed(m.items()))) == yt.render_key(k)
