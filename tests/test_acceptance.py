"""Acceptance criteria: each test reproduces one pinned battery of worked
values exactly (tolerance zero throughout) and prints a PASS line with its
runtime.  Criteria with stated wall-clock budgets assert them.
"""

import time
from fractions import Fraction

import pytest

from qgroth.cartan import cartan_datum
from qgroth.characters import (
    CategoryQ,
    fundamental_tchar,
    simple_tchar,
    tsystem_exponents,
)
from qgroth.hall import (
    DerivedHall,
    check_h_relations,
    constant_identity_holds,
    iota_check,
    toen_gamma,
)
from qgroth.laurent import HalfLaurent
from qgroth.presentation import Presentation
from qgroth.qcartan import quantum_cartan
from qgroth.qgroup import QGroupSide
from qgroth.quiver import AdaptedWord, QuiverContext, QuiverDatum
from qgroth.torus import monomial_items

from conftest import (
    all_orientations,
    bar,
    expand_by_monomials,
    flag_exponent,
    in_tinv_ztinv,
    iso,
    mon,
    on_positions,
    standards_below,
    truncate,
    wide_torus,
    y,
)


def report(num, desc, t0, budget=None):
    dt = time.time() - t0
    print(f"ACCEPTANCE {num:2d}: PASS ({dt:6.2f}s)  {desc}")
    if budget is not None:
        assert dt < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_01_rank4_inverse_series():
    t0 = time.time()
    qc = quantum_cartan(cartan_datum("A4"))
    expected = {
        (1, 1): {1: 1, 9: -1, 11: 1, 19: -1},
        (1, 2): {2: 1, 8: -1, 12: 1, 18: -1},
        (1, 3): {3: 1, 7: -1, 13: 1, 17: -1},
        (1, 4): {4: 1, 6: -1, 14: 1, 16: -1},
        (2, 1): {2: 1, 8: -1, 12: 1, 18: -1},
        (2, 2): {1: 1, 3: 1, 7: -1, 9: -1, 11: 1, 13: 1, 17: -1, 19: -1},
        (2, 3): {2: 1, 4: 1, 6: -1, 8: -1, 12: 1, 14: 1, 16: -1, 18: -1},
        (2, 4): {3: 1, 7: -1, 13: 1, 17: -1},
    }
    for (i, j), want in expected.items():
        assert qc.series(i, j, 19) == [want.get(m, 0) for m in range(1, 20)], (i, j)
    report(1, "rank-4 inverse quantum Cartan series to z^19", t0, budget=1.0)


def test_criterion_02_two_route_agreement_and_periodicity():
    t0 = time.time()
    for name in ("A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6"):
        cd = cartan_datum(name)
        qc = quantum_cartan(cd)
        h = cd.coxeter_number()
        q = QuiverDatum.bipartite(cd)
        for i in cd.vertices:
            for j in cd.vertices:
                for m in range(1, 4 * h + 1):
                    assert qc.ctilde(i, j, m) == qc.ar_value(i, j, m, q), (name, i, j, m)
                    assert qc.ctilde(i, j, m + 2 * h) == qc.ctilde(i, j, m)
    report(2, "series/translation route agreement and 2h-periodicity", t0, budget=30.0)


def test_criterion_03_d4_labelling():
    t0 = time.time()
    cd = cartan_datum("D4")
    ctx = QuiverContext(QuiverDatum.from_xi(cd, (0, 0, 1, 2)))
    a = cd.unit

    def rt(*cs):
        return cs

    figure = {
        (3, 3): (rt(1, 1, 1, 0), 1),
        (1, 2): (a(1), 1), (2, 2): (a(2), 1), (4, 2): (a(4), 0),
        (3, 1): (rt(0, 0, 1, 1), 0),
        (1, 0): (rt(1, 0, 1, 1), 0), (2, 0): (rt(0, 1, 1, 1), 0), (4, 0): (a(3), 0),
        (3, -1): (rt(1, 1, 2, 1), 0),
        (1, -2): (rt(0, 1, 1, 0), 0), (2, -2): (rt(1, 0, 1, 0), 0), (4, -2): (rt(1, 1, 1, 1), 0),
        (3, -3): (rt(1, 1, 1, 0), 0),
        (1, -4): (a(1), 0), (2, -4): (a(2), 0), (4, -4): (a(4), -1),
    }
    for (i, p), want in figure.items():
        assert ctx.phi.phi(i, p) == want, (i, p)
    report(3, "rank-4 fork labelling table (all figure rows)", t0, budget=1.0)


def test_criterion_04_tsystem_exponents():
    t0 = time.time()
    qc1 = quantum_cartan(cartan_datum("A1"))
    for k in range(1, 6):
        assert tsystem_exponents(qc1, 1, k)[0] == Fraction(-1)
    qc3 = quantum_cartan(cartan_datum("A3"))
    assert tsystem_exponents(qc3, 1, 1) == (Fraction(-1, 2), Fraction(1, 2))
    report(4, "deformed T-system exponents (rank 1 and rank 3)", t0)


def test_criterion_05_rank3_end_to_end():
    t0 = time.time()
    cd = cartan_datum("A3")
    cat = CategoryQ(QuiverContext(QuiverDatum.from_xi(cd, (2, 3, 2))))
    qg = QGroupSide(cat)
    w = cat.qctx.word
    L = [
        [0, -1, -1, 0, 0, 0],
        [1, 0, 0, 0, 1, -1],
        [1, 0, 0, 0, -1, 1],
        [0, 0, 0, 0, 0, 0],
        [0, -1, 1, 0, 0, 0],
        [0, 1, -1, 0, 0, 0],
    ]
    M = [
        [0, -1, -1, 0, 1, 1],
        [1, 0, 0, -1, 1, -1],
        [1, 0, 0, -1, -1, 1],
        [0, 1, 1, 0, -1, -1],
        [-1, -1, 1, 1, 0, 0],
        [-1, 1, -1, 1, 0, 0],
    ]
    for k in range(1, 7):
        for l in range(1, 7):
            assert qg.xt.pair2(qg.xt.unit_vector(k), qg.xt.unit_vector(l)) == M[k - 1][l - 1]
            if k < l:
                lam = flag_exponent(cd, w, k, l)
                assert lam == L[k - 1][l - 1]
                assert qg.flag(k) * qg.flag(l) == (qg.flag(l) * qg.flag(k)).tshift(2 * lam)

    yt = cat.yt
    fundamentals = {
        (1, 2): [mon(y(1, 2))],
        (1, 0): [mon(y(1, 0)), mon(y(1, 2, -1), y(2, 1)), mon(y(2, 3, -1), y(3, 2))],
        (2, 1): [mon(y(2, 1)), mon(y(1, 2), y(2, 3, -1), y(3, 2))],
        (2, 3): [mon(y(2, 3))],
        (3, 2): [mon(y(3, 2))],
        (3, 0): [mon(y(3, 0)), mon(y(3, 2, -1), y(2, 1)), mon(y(2, 3, -1), y(1, 2))],
    }
    one = HalfLaurent.one()
    for (i, p), monos in fundamentals.items():
        want = on_positions(cat, yt.element((m, one) for m in monos))
        assert cat.kr(i, 1, p) == want, (i, p)

    def img(m):
        return cat.xt.monomial(cat.avec_of(m))

    assert img(y(2, 3)) == qg.flag(1)
    assert img(y(1, 2)) == qg.flag(2).tshift(-1)
    assert img(y(3, 2)) == qg.flag(3).tshift(-1)
    assert img(mon(y(2, 1), y(2, 3))) == qg.flag(4).tshift(-2)
    assert img(mon(y(1, 0), y(1, 2))) == qg.flag(5).tshift(-2)
    assert img(mon(y(3, 0), y(3, 2))) == qg.flag(6).tshift(-2)
    assert qg.minor(1, 4).tshift(-2) == cat.kr(2, 1, 1)
    assert qg.minor(2, 5) == cat.kr(1, 1, 0)
    assert qg.minor(3, 6) == cat.kr(3, 1, 0)
    report(5, "rank-3 worked example end to end (matrices, flags, minors)", t0)


def test_criterion_06_rank2_identities():
    t0 = time.time()
    yt = wide_torus("A2")
    f10 = simple_tchar(yt, y(1, 0))
    f12 = simple_tchar(yt, y(1, 2))
    f21 = simple_tchar(yt, y(2, 1))
    kr = simple_tchar(yt, mon(y(1, 0), y(1, 2)))
    th = HalfLaurent.t_power
    assert f10 * f12 == kr.tshift(-1) + f21.tshift(1)
    assert f12 * f10 == kr.tshift(1) + f21.tshift(-1)
    lhs = f21.scal(th(-1) - th(3))
    rhs = f12 * f10 - (f10 * f12).tshift(2)
    assert lhs == rhs
    tpt = th(2) + th(-2)
    assert (f10 * f10 * f12 - (f10 * f12 * f10).scal(tpt) + f12 * f10 * f10).is_zero()
    assert (f12 * f12 * f10 - (f12 * f10 * f12).scal(tpt) + f10 * f12 * f12).is_zero()
    report(6, "rank-2 T-system pair, elimination identity, Serre relations", t0)


def test_criterion_07_main_theorem_desk_scale():
    t0 = time.time()
    quivers = []
    for q in all_orientations("A2"):
        quivers.append(q)
    for q in all_orientations("A3"):
        quivers.append(q)
    quivers.append(QuiverDatum.from_xi(cartan_datum("D4"), (0, 0, 1, 2)))
    total = 0
    for q in quivers:
        cat = CategoryQ(QuiverContext(q))
        qg = QGroupSide(cat)
        for r in qg.verify_mainth(4):
            total += 1
            assert r["simple_matches_dual_canonical"], (q.to_json(), r["avec"])
            assert r["standard_matches_dual_pbw"], (q.to_json(), r["avec"])
    assert total == 429  # 2 x 22 (rank 2) + 4 x 62 (rank 3) + 137 (rank 4 fork)
    report(7, f"simples map onto the dual canonical basis ({total} classes)", t0, budget=300.0)


def test_criterion_08_d4_decomposition_table():
    t0 = time.time()
    cat = CategoryQ(QuiverContext(QuiverDatum.from_xi(cartan_datum("D4"), (4, 4, 5, 4))))
    rows = cat.dominant_pairs((1, 1, 1, 1))
    assert len(rows) == 8
    table = {monomial_items(r["monomial"]): r["a_column"] for r in rows}
    A = lambda *pairs: {k: v for k, v in pairs}
    expected = [
        (mon(y(1, 0), y(2, 0), y(3, 5), y(4, 0)), {}),
        (mon(y(1, 4), y(2, 0), y(4, 0)), A(((1, 1), 1), ((3, 2), 1), ((2, 3), 1), ((4, 3), 1), ((3, 4), 1))),
        (mon(y(2, 4), y(1, 0), y(4, 0)), A(((2, 1), 1), ((3, 2), 1), ((1, 3), 1), ((4, 3), 1), ((3, 4), 1))),
        (mon(y(4, 4), y(1, 0), y(2, 0)), A(((4, 1), 1), ((3, 2), 1), ((1, 3), 1), ((2, 3), 1), ((3, 4), 1))),
        (mon(y(4, 2), y(4, 0)), A(((1, 1), 1), ((2, 1), 1), ((3, 2), 2), ((1, 3), 1), ((2, 3), 1), ((4, 3), 1), ((3, 4), 1))),
        (mon(y(2, 2), y(2, 0)), A(((1, 1), 1), ((4, 1), 1), ((3, 2), 2), ((1, 3), 1), ((2, 3), 1), ((4, 3), 1), ((3, 4), 1))),
        (mon(y(1, 2), y(1, 0)), A(((2, 1), 1), ((4, 1), 1), ((3, 2), 2), ((1, 3), 1), ((2, 3), 1), ((4, 3), 1), ((3, 4), 1))),
        (mon(y(3, 1)), A(((1, 1), 1), ((2, 1), 1), ((4, 1), 1), ((3, 2), 2), ((1, 3), 1), ((2, 3), 1), ((4, 3), 1), ((3, 4), 1))),
    ]
    assert table == {monomial_items(m): col for m, col in expected}
    report(8, "rank-4 fork decomposition table with exchange columns", t0)


def test_criterion_09_presentation():
    t0 = time.time()
    for name, xi in [("A1", (0,)), ("A2", (0, 1)), ("A3", (0, 1, 0))]:
        pres = Presentation(QuiverContext(QuiverDatum.from_xi(cartan_datum(name), xi)))
        assert pres.verify_relations(0, 3) == [], name
    # the rank-1 displayed specialization
    p1 = Presentation(QuiverContext(QuiverDatum.from_xi(cartan_datum("A1"), (0,))))
    yt = p1.window(range(4))
    x = {m: p1.x_gen(yt, 1, m) for m in range(4)}
    for m in range(3):
        lhs = x[m] * x[m + 1] - (x[m + 1] * x[m]).tshift(-4)
        assert lhs == yt.one().scal(HalfLaurent.one() - HalfLaurent.t_power(-4))
    for m in range(4):
        for p in range(m + 2, 4):
            assert x[m] * x[p] == (x[p] * x[m]).tshift(4 * (-1) ** (p - m))
    report(9, "deformed ring presentation relations (ranks 1-3)", t0)


def test_criterion_10_hall_side():
    t0 = time.time()
    for name in ("A2", "A3"):
        cd = cartan_datum(name)
        quiv = QuiverDatum.bipartite(cd)
        s = lambda i: iso(quiv, {tuple(1 if v == i else 0 for v in range(1, cd.n + 1)): 1})
        zero = iso(quiv)
        for q in (2, 3):
            dh = DerivedHall(AdaptedWord.build(quiv), q)
            for i in cd.vertices:
                assert toen_gamma(dh, s(i), s(i), zero, zero) == Fraction(1, q - 1)
                for j in cd.vertices:
                    if i != j:
                        assert toen_gamma(dh, s(i), s(j), s(j), s(i)) == 1
            assert check_h_relations(dh, range(4)) == []
            assert constant_identity_holds(q)
    for name, xi in [("A2", (2, 1)), ("A3", (2, 3, 2))]:
        cat = CategoryQ(QuiverContext(QuiverDatum.from_xi(cartan_datum(name), xi)))
        for q in (2, 3):
            rep = iota_check(cat, q, max_len=3, m_offsets=range(4))
            assert rep["ok"], (name, q, rep["witnesses"][:2])
    report(10, "brute-force Hall side and the specialization equivalence", t0, budget=120.0)


def test_criterion_11_property_suite():
    t0 = time.time()
    # pairing antisymmetry, star associativity, bar anti-automorphism
    yt = wide_torus("A3")
    pts = [(1, 0), (2, 1), (3, 2), (1, 4), (2, -3), (3, -2)]
    for (i, p) in pts:
        for (j, s) in pts:
            assert yt.qc.n_pair(i, p, j, s) == -yt.qc.n_pair(j, s, i, p)
    ms = [mon(y(1, 0)), mon(y(2, 1), y(1, 2, -1)), mon(y(3, 2), y(2, -1)), mon(y(1, 4, -2))]
    for a in ms:
        for b in ms:
            for c in ms:
                ea, eb, ec = yt.monomial(a), yt.monomial(b), yt.monomial(c)
                assert (ea * eb) * ec == ea * (eb * ec)
            x = yt.monomial(a, HalfLaurent.t_power(3)) + yt.one()
            yv = yt.monomial(b, HalfLaurent.t_power(-1))
            assert bar(x * yv) == bar(yv) * bar(x)

    # positivity of simple classes in N[t, t^-1]
    for m in [mon(y(1, 0), y(1, 2)), mon(y(1, 0), y(2, 1)), mon(y(2, 1), y(2, 3))]:
        simple = simple_tchar(yt, m)
        assert bar(simple) == simple
        assert all(c.is_nonnegative() for c in simple.terms.values())

    # unitriangularity of both transition matrices
    from qgroth.characters import expand_in_dominant_basis

    m = mon(y(1, 0), y(1, 2))
    basis = standards_below(yt, m)
    coeffs = expand_by_monomials(yt, simple_tchar(yt, m), basis)
    assert coeffs[monomial_items(m)] == HalfLaurent.one()
    assert all(in_tinv_ztinv(c) for k, c in coeffs.items() if k != monomial_items(m))

    cat3 = CategoryQ(QuiverContext(QuiverDatum.from_xi(cartan_datum("A3"), (2, 3, 2))))
    qg = QGroupSide(cat3)
    deg = (1, 1, 1)
    depth = cat3.depths(deg)
    ebasis = {c: qg.e_tilde(cat3.xt.exponents(c)) for c in depth}
    for a in depth:
        coeffs = expand_in_dominant_basis(qg.b_tilde(cat3.xt.exponents(a)), ebasis, depth)
        assert coeffs[a] == HalfLaurent.one()
        assert all(in_tinv_ztinv(c) for k, c in coeffs.items() if k != a)

    # dual-route equality for every fundamental on the index set
    for name in ("A1", "A2", "A3", "A4", "D4"):
        cd = cartan_datum(name)
        xi = {"A1": (0,), "A2": (2, 1), "A3": (2, 3, 2), "A4": (0, 1, 0, 1), "D4": (0, 0, 1, 2)}[name]
        cat = CategoryQ(QuiverContext(QuiverDatum.from_xi(cd, xi)))
        yt = wide_torus(name)
        for (i, p) in cat.positions:
            kr = cat.kr(i, 1, p)
            assert cat.truncated_fundamental(i, p) == kr, (name, i, p)
            assert truncate(cat, fundamental_tchar(yt, i, p)) == kr, (name, i, p)
    report(11, "property suite (pairing, bar, positivity, triangularity, dual routes)", t0)
