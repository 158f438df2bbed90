from fractions import Fraction

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from qgroth.cartan import cartan_datum
from qgroth.characters import CategoryQ
from qgroth.hall import (
    GF,
    DerivedHall,
    IsoClass,
    Rep,
    ResourceCap,
    UScalar,
    aut_count,
    check_h_relations,
    constant_identity_holds,
    hall_number,
    _iso_tables,
    hom_basis,
    hom_dim,
    interval_rep,
    iota_check,
    iso_class,
    model_rep,
    toen_gamma,
)
from qgroth.quiver import QuiverContext, QuiverDatum


def a2_quiver():
    return QuiverDatum.from_xi(cartan_datum("A2"), (1, 0))  # arrow 1 -> 2


S1 = IsoClass({(1, 0): 1})
S2 = IsoClass({(0, 1): 1})
X12 = IsoClass({(1, 1): 1})
ZERO = IsoClass({})


def test_iso_class_examples():
    q = a2_quiver()
    F = GF(2)
    assert iso_class(Rep(q, F, (0, 0), {(1, 2): ()}), 2) == ZERO
    assert iso_class(Rep(q, F, (1, 1), {(1, 2): ((1,),)}), 2) == X12
    assert iso_class(Rep(q, F, (1, 1), {(1, 2): ((0,),)}), 2) == IsoClass(
        {(1, 0): 1, (0, 1): 1}
    )
    # model representations decompose back to their own class
    for iso in (S1, X12, IsoClass({(1, 0): 2, (1, 1): 1})):
        assert iso_class(model_rep(q, F, iso), 2) == iso


def test_hall_numbers():
    q = a2_quiver()
    for p in (2, 3):
        assert hall_number(X12, ZERO, X12, q, p) == 1  # g^X_{X,0} = 1
        assert hall_number(S2, S1, X12, q, p) == 1
        assert hall_number(S1, S2, X12, q, p) == 0
        assert hall_number(S1, S2, IsoClass({(1, 0): 1, (0, 1): 1}), q, p) == 1


def test_riedtmann_count_consistency():
    # the number of exact pairs X >-> W ->> Y equals g^W_{X,Y} |Aut X| |Aut Y|
    import itertools

    from qgroth.hall import _hom_elements, mat_mul, mat_rank, _zero

    q = a2_quiver()
    p = 2
    F = GF(p)
    for X, Y, W in [
        (S2, S1, X12),
        (S1, S2, IsoClass({(1, 0): 1, (0, 1): 1})),
        (S1, S1, IsoClass({(1, 0): 2})),
    ]:
        RX, RY, RW = (model_rep(q, F, Z) for Z in (X, Y, W))
        n = q.cartan.n
        dX, dY, dW = RX.dims, RY.dims, RW.dims
        count = 0
        sf = [(dW[v], dX[v]) for v in range(n)]
        sg = [(dY[v], dW[v]) for v in range(n)]
        for f in _hom_elements(F, hom_basis(RX, RW), sf):
            if any(mat_rank(F, f[v]) != dX[v] for v in range(n)):
                continue
            for g in _hom_elements(F, hom_basis(RW, RY), sg):
                ok = True
                for v in range(n):
                    if dX[v] and dY[v] and any(any(r) for r in mat_mul(F, g[v], f[v])):
                        ok = False
                        break
                    if mat_rank(F, g[v]) != dY[v]:
                        ok = False
                        break
                if ok:
                    count += 1
        expected = hall_number(X, Y, W, q, p) * aut_count(RX, p) * aut_count(RY, p)
        assert count == expected, (X, Y, W)


def test_gamma_examples():
    q = a2_quiver()
    for p in (2, 3):
        assert toen_gamma(S1, S2, S2, S1, q, p) == 1
        assert toen_gamma(S1, S1, S1, S1, q, p) == 1
        assert toen_gamma(S1, S1, ZERO, ZERO, q, p) == Fraction(1, p - 1)
        # the raw sequence count behind the i != j case is (q-1)^2
        from qgroth.hall import _gamma_raw

        F = GF(p)
        auts = aut_count(model_rep(q, F, S1), p) * aut_count(model_rep(q, F, S2), p)
        assert _gamma_raw(S2, S2, S1, S1, q, p) * auts == (p - 1) ** 2


def test_resource_caps():
    q = a2_quiver()
    big = IsoClass({(1, 0): 3, (0, 1): 3})
    with pytest.raises(ResourceCap):
        hall_number(IsoClass({(1, 0): 3}), IsoClass({(0, 1): 3}), big, q, 2)
    with pytest.raises(ResourceCap):
        GF(5)


def test_uscalar_field():
    for q in (2, 3):
        u = UScalar.u(q)
        assert u * u == UScalar.of(q, q)
        h = UScalar.half_u(q)
        assert h * h == u
        x = UScalar(q, [1, 2, 0, 1])
        assert x * x.inverse() == UScalar.of(q, 1)
    assert constant_identity_holds(2) and constant_identity_holds(3)
    # x^4 - 4 = (x^2 - 2)(x^2 + 2): u - 2 is a zero divisor, u^(1/2) a unit
    with pytest.raises(ZeroDivisionError):
        (UScalar.u(4) - UScalar.of(4, 2)).inverse()
    h4 = UScalar.half_u(4)
    assert h4 * h4.inverse() == UScalar.of(4, 1)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=4, max_size=4),
)
def test_uscalar_inverse_of_nonzero_elements(q, coeffs):
    # x^4 - q is irreducible over Q for q in {2, 3}: every nonzero element is a unit
    x = UScalar(q, coeffs)
    assume(not x.is_zero())
    inv = x.inverse()
    assert x * inv == UScalar.of(q, 1) == inv * x


def _orientations(cd):
    for flips in itertools.product((False, True), repeat=len(cd.edges)):
        yield QuiverDatum.from_arrows(
            cd, [(b, a) if f else (a, b) for (a, b), f in zip(cd.edges, flips)]
        )


@pytest.mark.parametrize("name", ["A1", "A2", "A3"])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_gram_inverse_is_integral_on_every_orientation(name, q):
    # building the tables runs the unimodularity check; the inverse must also
    # undo the Gram matrix of hom dimensions
    for quiver in _orientations(cartan_datum(name)):
        roots, models, inv = _iso_tables(quiver, q)
        gram = [[hom_dim(models[r1], models[r2]) for r2 in roots] for r1 in roots]
        n = len(roots)
        assert all(isinstance(x, int) for row in inv for x in row)
        assert [[sum(inv[i][k] * gram[k][j] for k in range(n)) for j in range(n)] for i in range(n)] == [
            [int(i == j) for j in range(n)] for i in range(n)
        ]


def test_dh_same_level_and_distant():
    quiv = a2_quiver()
    dh = DerivedHall(quiv, 2)
    z1, z2 = dh.z_simple(1, 0), dh.z_simple(2, 0)
    # same level: z_{S_1} z_{S_2} = u^{<S_2,S_1>} (split only)
    prod = dh.mul(z1, z2)
    assert prod == {((0, IsoClass({(1, 0): 1, (0, 1): 1})),): dh.upow(dh.euler(S2, S1))}
    # the opposite order also picks up the extension
    prod2 = dh.mul(z2, z1)
    assert set(prod2) == {
        ((0, IsoClass({(1, 0): 1, (0, 1): 1})),),
        ((0, X12),),
    }
    # distant levels commute with the symmetric exponent
    za, zb = dh.z_simple(1, 0), dh.z_simple(2, 3)
    aij = -1
    lhs = dh.mul(za, zb)
    rhs = dh.scal(dh.mul(zb, za), dh.upow((-1) ** 3 * aij))
    assert dh.equal(lhs, rhs)


def test_dh_boson_specialization():
    # z_{i,m} z_{i,m+1} - u^-2 z_{i,m+1} z_{i,m} = u^-1/(u^2-1)
    for q in (2, 3):
        dh = DerivedHall(a2_quiver(), q)
        zi0, zi1 = dh.z_simple(1, 0), dh.z_simple(1, 1)
        lhs = dh.add(dh.mul(zi0, zi1), dh.neg(dh.scal(dh.mul(zi1, zi0), dh.upow(-2))))
        const = dh.upow(-1) * (dh.upow(2) - dh.scalar(1)).inverse()
        assert dh.equal(lhs, dh.scal(dh.one(), const))


def test_dh_associativity_spot_checks():
    dh = DerivedHall(a2_quiver(), 2)
    gens = [dh.z_simple(1, 0), dh.z_simple(2, 1), dh.z_simple(1, 2), dh.z_simple(2, 0)]
    for a in gens[:3]:
        for b in gens:
            for c in gens[1:]:
                assert dh.equal(dh.mul(dh.mul(a, b), c), dh.mul(a, dh.mul(b, c)))


@pytest.mark.parametrize("name,q", [("A2", 2), ("A2", 3), ("A3", 2), ("A3", 3)])
def test_h_relations(name, q):
    quiv = QuiverDatum.bipartite(cartan_datum(name))
    dh = DerivedHall(quiv, q)
    assert check_h_relations(dh, range(4)) == []


@pytest.mark.parametrize("name,xi,q", [("A2", (2, 1), 2), ("A2", (2, 1), 3), ("A3", (2, 3, 2), 2), ("A3", (2, 3, 2), 3)])
def test_iota_check(name, xi, q, categories):
    cat = categories(name, xi)
    rep = iota_check(cat, q, max_len=3, m_offsets=range(3))
    assert rep["constant_identity"]
    assert rep["relation_failures"] == []
    assert rep["consistent"], rep["witnesses"][:3]
    # singleton words certify: fundamental classes map to scalar multiples of
    # the indecomposable generators
    r = cat.qctx.word.r
    for k in range(r):
        unit = tuple(1 if j == k else 0 for j in range(r))
        assert unit in rep["scalars"]
        assert not rep["scalars"][unit].is_zero()


def test_gf4_arithmetic():
    F = GF(4)
    for a in range(4):
        if a:
            assert F.mul(a, F.inv(a)) == 1
        for b in range(4):
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
    # Frobenius: x^4 = x in F_4
    for a in range(4):
        assert F.mul(F.mul(a, a), F.mul(a, a)) == a


def test_hall_number_gf4():
    q = a2_quiver()
    assert hall_number(S2, S1, X12, q, 4) == 1
    assert toen_gamma(S1, S1, ZERO, ZERO, q, 4) == Fraction(1, 3)
