import functools
import json

import pytest

import qgroth.characters as characters
import qgroth.hall as hall
import qgroth.presentation as presentation
import qgroth.qcartan as qcartan
import qgroth.qgroup as qgroup
from qgroth.cartan import cartan_datum
from qgroth.characters import CategoryQ, fundamental_tchar
from qgroth.laurent import HalfLaurent
from qgroth.presentation import Presentation
from qgroth.qcartan import QuantumCartan
from qgroth.quiver import AdaptedWord, QuiverContext, QuiverDatum
from qgroth.torus import TorusElement

from conftest import all_orientations, mon, order_depth, reference_relation_failures, uscalar


def pres_for(name, xi):
    return Presentation(QuiverContext(QuiverDatum.from_xi(cartan_datum(name), xi)))


def sl2_relations_hold(pres: Presentation, m_hi: int = 3) -> bool:
    """The rank-one specialization: y_m y_{m+1} = t^-2 y_{m+1} y_m + 1 - t^-2
    and y_m y_p = t^(2(-1)^(p-m)) y_p y_m for p > m + 1."""
    if pres.cartan.n != 1:
        raise ValueError("rank-one check on a bigger diagram")
    return not pres.verify_relations(0, m_hi)


def test_generator_positions():
    p = pres_for("A3", (0, 1, 0))
    cd = p.cartan
    h = cd.coxeter_number()
    for i in cd.vertices:
        j0, p0 = p.qctx.phi.generator_position(i, 0)
        assert p.qctx.phi.phi(j0, p0) == (cd.unit(i), 0)
        # the level shift moves through the diagram involution
        j1, p1 = p.qctx.phi.generator_position(i, 1)
        assert (j1, p1) == (cd.nu(j0), p0 + h)
        assert p.qctx.phi.phi(j1, p1) == (cd.unit(i), 1)
        j2, p2 = p.qctx.phi.generator_position(i, 2)
        assert (j2, p2) == (j0, p0 + 2 * h)


def test_shift_moves_fundamentals():
    p = pres_for("A2", (0, 1))
    yt = p.window(range(4))
    for i in p.cartan.vertices:
        for m in (0, 1, 2):
            a = p.x_gen(yt, i, m + 1)
            j, q = p.qctx.phi.generator_position(i, m)
            h = p.cartan.coxeter_number()
            nu = p.cartan.nu
            b = fundamental_tchar(yt, nu(j), q + h)
            assert a == b


def test_sl2_displayed_relations():
    p = pres_for("A1", (0,))
    assert sl2_relations_hold(p, 3)
    # and explicitly: y_0 y_1 - t^-2 y_1 y_0 = (1 - t^-2) 1
    yt = p.window(range(4))
    y0, y1, y3 = p.x_gen(yt, 1, 0), p.x_gen(yt, 1, 1), p.x_gen(yt, 1, 3)
    lhs = y0 * y1 - (y1 * y0).tshift(-4)
    assert lhs == yt.one().scal(HalfLaurent.one() - HalfLaurent.t_power(-4))
    # far levels: y_0 y_3 = t^(2(-1)^3) y_3 y_0
    assert y0 * y3 == (y3 * y0).tshift(-4)


def test_relations_sink_source():
    for name, xi in [("A1", (0,)), ("A2", (0, 1)), ("A3", (0, 1, 0))]:
        assert pres_for(name, xi).verify_relations(0, 3) == []


def test_relations_non_sink_source_orientation():
    assert pres_for("A3", (2, 1, 0)).verify_relations(0, 3) == []


def test_adjacent_level_constant_instance():
    # the inhomogeneous term appears exactly for i = nu(j) at distance h
    p = pres_for("A3", (0, 1, 0))
    cd = p.cartan
    yt = p.window(range(2))
    for i in cd.vertices:
        for j in cd.vertices:
            xi = p.x_gen(yt, i, 0)
            xj = p.x_gen(yt, j, 1)
            aij = cd.sprod(cd.unit(i), cd.unit(j))
            res = xi * xj - (xj * xi).tshift(-2 * aij)
            if i == j:
                assert res == yt.one().scal(HalfLaurent.one() - HalfLaurent.t_power(-4))
            else:
                assert res.is_zero()


def test_normal_ordering_completeness():
    # every product of generators re-expands over products of per-level
    # standard classes taken in strictly decreasing level order
    from itertools import product as iproduct

    from qgroth.characters import dominant_below, expand_in_dominant_basis, standard_tchar

    p = pres_for("A2", (0, 1))
    yt = p.window(range(2))
    cd = p.cartan
    # level monomials of small degree at levels 0 and 1
    lvl = {}
    for m_level in (0, 1):
        pos = [p.qctx.phi.generator_position(i, m_level) for i in cd.vertices]
        monos = [{}]
        monos += [{ip: 1} for ip in pos]
        monos += [mon({pos[0]: 1}, {pos[1]: 1})]
        monos += [{pos[0]: 2}, {pos[1]: 2}]
        lvl[m_level] = monos
    basis = {}
    for m1 in lvl[1]:
        for m0 in lvl[0]:
            el = standard_tchar(yt, m1) * standard_tchar(yt, m0)
            key = yt.key(mon(m1, m0))
            c = el.coeff(key)
            e, v = next(iter(c.c.items()))
            assert v == 1
            basis[key] = el.tshift(-e)
    depth = order_depth(list(basis), lambda k, l: yt.nakajima_leq(yt.monomial_of(k), yt.monomial_of(l)))
    for i, j in iproduct(cd.vertices, repeat=2):
        x = p.x_gen(yt, i, 0) * p.x_gen(yt, j, 1)  # wrong order: needs straightening
        coeffs = expand_in_dominant_basis(x, basis, depth)
        assert coeffs  # expansion exists and terminated exactly


def build_rows_with(monkeypatch, *raised) -> None:
    """Every QuantumCartan built from here on, none taken from the registry,
    has each entry (i, j, k) of `raised`, N(i, j) at d = k + 1, of its
    pairing rows raised by one before the build checks them."""
    real = qcartan.QuantumCartan._pairing_rows

    def raised_rows(self):
        rows = real(self)
        for i, j, k in raised:
            rows[i][j][k] += 1
        return rows

    monkeypatch.setattr(qcartan.QuantumCartan, "_pairing_rows", raised_rows)
    monkeypatch.setattr(qcartan, "_registry", {})


def test_corrupted_inputs_fail_every_relation_family(monkeypatch, capsys):
    # one generator with a foreign term
    real = presentation.fundamental_tchar
    bad = pres_for("A2", (0, 1)).qctx.phi.generator_position(1, 0)

    def corrupted(yt, i, p):
        x = real(yt, i, p)
        return x + yt.monomial({(i, p + 2): 1}) if (i, p) == bad else x

    monkeypatch.setattr(presentation, "fundamental_tchar", corrupted)
    fails = pres_for("A2", (0, 1)).verify_relations(0, 2)
    assert {f[0] for f in fails} == {"R1", "R2", "R3"}
    monkeypatch.undo()
    # one entry of the pairing table, raised where the rows are built: refused
    # before any generator, with the hypothesis it breaks
    from qgroth.cli import main

    build_rows_with(monkeypatch, (1, 1, 1))
    with pytest.raises(RuntimeError, match="^the pairing rows of A3 are not nu-invariant$"):
        pres_for("A3", (0, 1, 0))
    assert main(["verify", "presentation", "--type", "A3", "--xi", "0,1,0", "--m-range", "0..2"]) == 2
    assert capsys.readouterr() == ("", "internal check failed: the pairing rows of A3 are not nu-invariant\n")


def cancelling_pairs(x, y, exp2) -> tuple[int, int]:
    """(pairs of terms whose two products in x y - t^(exp2/2) y x cancel,
    all pairs): a pair cancels when its pairing is exp2/2."""
    pairings = [x.ctx.pair(x.forms[k1], k2) for k1 in x.terms for k2 in y.terms]
    return sum(2 * s == exp2 for s in pairings), len(pairings)


def test_qcommutator_equals_the_two_products_where_pairs_cancel():
    # R3 (levels m, m+2): every pair cancels; R2 (m, m+1): some pairs do,
    # and on i = j one that does not has pairing 0; R1 [x_i, x_j] at exp2 = 0
    for name, m in (("A3", -1), ("D4", 2)):
        cd = cartan_datum(name)
        pres = Presentation(QuiverContext(QuiverDatum.bipartite(cd)))
        yt = pres.window(range(m, m + 3))
        a = cd.cartan_matrix()
        cases = []
        for i in cd.vertices:
            for j in cd.vertices:
                x = pres.x_gen(yt, i, m)
                cases.append(("R3", x, pres.x_gen(yt, j, m + 2), 2 * a[i - 1][j - 1]))
                cases.append(("R2", x, pres.x_gen(yt, j, m + 1), -2 * a[i - 1][j - 1]))
                if i != j and not cd.adjacent(i, j):
                    cases.append(("R1", x, pres.x_gen(yt, j, m), 0))
        for family, x, y, e in cases:
            assert x.qcommutator(y, e) == x * y - (y * x).tshift(e), (name, family, e)
            cancel, total = cancelling_pairs(x, y, e)
            assert 0 < cancel <= total
            if family == "R3":
                assert cancel == total and not x.qcommutator(y, e)
        r2_same = [cancelling_pairs(x, y, e) for family, x, y, e in cases if family == "R2" and e == -4]
        assert r2_same and all(cancel < total for cancel, total in r2_same)


def varied_gen(variant: str, levels, gen, unit, half):
    """gen, with gen(1, 0) plus the unit (unit(x)) for variant "unit", or
    gen(2, m) at the middle level m times t^(1/2) (half(x)) for "shift"."""
    middle = (2, levels[len(levels) // 2])

    def varied(i, m):
        x = gen(i, m)
        if variant == "unit" and (i, m) == (1, 0):
            return unit(x)
        return half(x) if variant == "shift" and (i, m) == middle else x

    return varied


def compared_table(module, variant: str, unit, half, seen: list):
    """module.relation_failures on the generators of `varied_gen`, asserting
    that it returns the list of the reference table with one nested
    commutator per ordered pair.  Each list goes to seen."""
    real = module.relation_failures

    def table(quiver, levels, gen, qcomm, boson):
        varied = varied_gen(variant, levels, gen, unit, half)
        fails = real(quiver, levels, varied, qcomm, boson)
        assert fails == reference_relation_failures(quiver.cartan, levels, varied, qcomm, boson)
        seen.append(fails)
        return fails

    return table


def torus_variants(module, variant, seen):
    return compared_table(module, variant, lambda x: x + x.ctx.one(), lambda x: x.tshift(1), seen)


QUIVERS = [q for name in ("A2", "A3", "A4") for q in all_orientations(name)]
QUIVERS.append(QuiverDatum.bipartite(cartan_datum("D4")))


def serre_rows_of_1(cartan) -> set:
    """Both orders of every level-0 Serre row between vertex 1 and a
    neighbour: the rows that the unit on x_{1,0} fails."""
    return {("R1", 0, 0, a, b) for j in cartan.vertices if cartan.adjacent(1, j) for a, b in ((1, j), (j, 1))}


def reference_table(pres: Presentation, lo: int, hi: int) -> list[tuple]:
    """The nested full table over the generators and the boson constant that
    `verify_relations(lo, hi)` uses."""
    levels = range(lo, hi + 1)
    yt = pres.window(levels)
    gens = {(i, m): pres.x_gen(yt, i, m) for m in levels for i in pres.cartan.vertices}
    boson = yt.one().scal(presentation.BOSON)
    gen = lambda i, m: gens[i, m]  # noqa: E731
    return reference_relation_failures(pres.cartan, levels, gen, TorusElement.qcommutator, boson)


def spy_first_levels(monkeypatch, module=presentation) -> list:
    """Per call of `module.relation_failures`, whether it read its rows off
    the shift and the levels m of the generators x_{i,m} that it puts first
    in a q-commutator."""
    real, calls = module.relation_failures, []

    def spy(quiver, levels, gen, qcomm, boson, translated=False):
        level, firsts = {}, set()

        def gen_(i, m):
            x = gen(i, m)
            level[id(x)] = m
            return x

        def qcomm_(x, y, e):
            if id(x) in level:
                firsts.add(level[id(x)])
            return qcomm(x, y, e)

        calls.append((translated, firsts))
        return real(quiver, levels, gen_, qcomm_, boson, translated)

    monkeypatch.setattr(module, "relation_failures", spy)
    return calls


@pytest.mark.parametrize("variant", ["true", "unit", "shift"])
def test_shared_serre_rows_equal_the_nested_table_in_k_t(monkeypatch, variant):
    # the unit on x_{1,0} fails both orders of every Serre pair at 1; the
    # shift fails the boson rows of x_{2,1} and nothing else.  Both enter at
    # the generators, where the shift proof sees them: the whole table runs
    real = Presentation.x_gen

    def varied(self, yt, i, m):
        x = real(self, yt, i, m)
        if variant == "unit" and (i, m) == (1, 0):
            return x + x.ctx.one()
        return x.tshift(1) if variant == "shift" and (i, m) == (2, 1) else x

    monkeypatch.setattr(Presentation, "x_gen", varied)
    calls = spy_first_levels(monkeypatch)
    seen = []
    for quiver in QUIVERS:
        pres = Presentation(QuiverContext(quiver))
        fails = pres.verify_relations(0, 2)
        assert fails == reference_table(pres, 0, 2)
        seen.append(fails)
    assert len(seen) == len(QUIVERS) == len(calls)
    assert all(call == (variant == "true", {0} if variant == "true" else {0, 1, 2}) for call in calls)
    for quiver, fails in zip(QUIVERS, seen):
        if variant == "true":
            assert fails == []
        elif variant == "unit":
            assert serre_rows_of_1(quiver.cartan) <= set(fails)
        else:
            assert fails == [("R2", 0, 1, 2, 2), ("R2", 1, 2, 2, 2)]


CROSS_QUIVERS = QUIVERS + [QuiverDatum.bipartite(cartan_datum(name)) for name in ("A5", "D5")]


@pytest.mark.parametrize("quiver", CROSS_QUIVERS, ids=lambda q: f"{q.cartan.kind}{q.cartan.n}{q.xi}")
@pytest.mark.parametrize("boson", [None, HalfLaurent({0: 1, -4: -1, -6: 1})], ids=["true", "boson"])
def test_rows_read_off_the_shift_equal_the_nested_full_table(monkeypatch, quiver, boson):
    # the rows with m = lo and their translates give the full table's list,
    # in its order; a perturbed boson constant fails every R2 row i = j at
    # every level, and T fixes it, so the shift proof still holds
    if boson is not None:
        monkeypatch.setattr(presentation, "BOSON", boson)
    calls = spy_first_levels(monkeypatch)
    pres = Presentation(QuiverContext(quiver))
    for lo, hi in ((0, 2), (-3, 1), (2, 5)):
        fails = pres.verify_relations(lo, hi)
        assert fails == reference_table(pres, lo, hi)
        assert len(fails) == (0 if boson is None else (hi - lo) * quiver.cartan.n)
        assert calls.pop() == (True, {lo})


@pytest.mark.parametrize("variant", ["true", "unit", "shift"])
def test_shared_serre_rows_equal_the_nested_table_in_u_q_n(monkeypatch, variant):
    seen = []
    monkeypatch.setattr(qgroup, "relation_failures", torus_variants(qgroup, variant, seen))
    for quiver in QUIVERS:
        qgroup.QGroupSide(CategoryQ(QuiverContext(quiver))).serre_check()
    assert len(seen) == len(QUIVERS)
    for quiver, fails in zip(QUIVERS, seen):
        assert fails == sorted(serre_rows_of_1(quiver.cartan)) if variant == "unit" else fails == []


DH_QUIVERS = [q for name in ("A2", "A3") for q in all_orientations(name)]


def dh_boson(dh) -> dict:
    """The boson constant of `hall.check_h_relations` on dh."""
    return dh.scal(dh.one(), hall.specialize(dh.q, hall.DH_BOSON_NUMERATOR, dh.q - 1))


@pytest.mark.parametrize("variant", ["true", "unit", "shift"])
def test_shared_serre_rows_equal_the_nested_table_in_the_derived_hall_algebra(monkeypatch, variant):
    # the unit on z_{1,0} fails both orders of every Serre pair at 1; the
    # u^(1/2) on z_{2,1} fails the boson rows of z_{2,1} and nothing else.
    # Both enter at dh.z_simple, where the shift proof sees them: the whole
    # table runs
    seen, levels = [], range(3)
    calls = spy_first_levels(monkeypatch, hall)
    for quiver in DH_QUIVERS:
        for q in (2, 3):
            dh = hall.DerivedHall(AdaptedWord.build(quiver), q)
            unit = lambda x: dh.add(x, dh.one())  # noqa: E731
            half = lambda x: dh.scal(x, uscalar(q, [0, 1]))  # noqa: E731
            dh.z_simple = varied_gen(variant, levels, dh.z_simple, unit, half)
            fails = hall.check_h_relations(dh, levels)
            assert fails == reference_relation_failures(dh.cartan, levels, dh.z_simple, dh.qcommutator, dh_boson(dh))
            seen.append(fails)
    assert len(seen) == 2 * len(DH_QUIVERS) == len(calls)
    assert all(call == (variant == "true", {0} if variant == "true" else {0, 1, 2}) for call in calls)
    for quiver, fails in zip((q for q in DH_QUIVERS for _ in (2, 3)), seen):
        if variant == "true":
            assert fails == []
        elif variant == "unit":
            assert serre_rows_of_1(quiver.cartan) <= set(fails)
        else:
            assert fails == [("R2", 0, 1, 2, 2), ("R2", 1, 2, 2, 2)]


@pytest.mark.parametrize("quiver", DH_QUIVERS, ids=lambda q: f"{q.cartan.kind}{q.cartan.n}{q.arrows}")
@pytest.mark.parametrize("boson", [None, HalfLaurent({-2: 2})], ids=["true", "boson"])
def test_dh_rows_read_off_the_shift_equal_the_nested_full_table(monkeypatch, quiver, boson):
    # on levels range(L), L = 1..4, the rows with m = 0 and their translates
    # give the full table's list, in its order; a perturbed boson term fails
    # every R2 row i = j at every level, and the shift fixes it, so the
    # shift proof still holds and only the rows with m = 0 run
    if boson is not None:
        monkeypatch.setattr(hall, "DH_BOSON_NUMERATOR", boson)
    calls = spy_first_levels(monkeypatch, hall)
    for q in (2, 3):
        dh = hall.DerivedHall(AdaptedWord.build(quiver), q)
        for size in range(1, 5):
            levels = range(size)
            fails = hall.check_h_relations(dh, levels)
            assert fails == reference_relation_failures(dh.cartan, levels, dh.z_simple, dh.qcommutator, dh_boson(dh))
            boson_rows = [("R2", m, m + 1, i, i) for m in levels[:-1] for i in dh.cartan.vertices]
            assert fails == ([] if boson is None else boson_rows)
            assert calls.pop() == (True, {0})


def test_levels_that_skip_a_level_get_every_row(monkeypatch):
    # the read-off steps one level at a time, so on levels 0, 2, 3 the proved
    # shift is not used: every row runs and the list is the full table's
    monkeypatch.setattr(hall, "DH_BOSON_NUMERATOR", HalfLaurent({-2: 2}))
    calls = spy_first_levels(monkeypatch, hall)
    dh = hall.DerivedHall(AdaptedWord.build(QuiverDatum.bipartite(cartan_datum("A2"))), 2)
    levels = [0, 2, 3]
    fails = hall.check_h_relations(dh, levels)
    assert fails == reference_relation_failures(dh.cartan, levels, dh.z_simple, dh.qcommutator, dh_boson(dh))
    assert fails == [("R2", 2, 3, i, i) for i in dh.cartan.vertices]
    assert calls == [(True, {0, 2, 3})]


def matrix_product(x: dict, y: dict) -> dict:
    """x y for matrices {(row, column): entry} over Z[t^(+-1/2)]."""
    out: dict = {}
    for (r, k), a in x.items():
        for (l, c), b in y.items():
            if k == l:
                out[r, c] = out[r, c] + a * b if (r, c) in out else a * b
    return out


def matrix_qcommutator(x: dict, y: dict, exp2: int) -> dict:
    """x y - t^(exp2/2) y x, zero entries left out."""
    out = matrix_product(x, y)
    for rc, v in matrix_product(y, x).items():
        out[rc] = out[rc] - v.shift(exp2) if rc in out else -v.shift(exp2)
    return {rc: v for rc, v in out.items() if not v.is_zero()}


@pytest.mark.parametrize("quiver", all_orientations("A3"), ids=lambda q: ",".join(f"{i}-{j}" for i, j in q.arrows))
def test_shared_rows_tell_the_two_orders_of_a_pair_apart(quiver):
    # 2 x 2 matrices: x_1 = E12, x_2 = E11, x_3 = E21.  x_1^2 = x_1 x_2 x_1 = 0
    # kills the Serre row (1, 2) but not (2, 1), which is E12, whichever sign
    # the arrow between 1 and 2 gives the inner commutator; [x_1, x_3] =
    # E11 - E22 fails both commuting rows of the pair (1, 3)
    gens = {i: {rc: HalfLaurent.one()} for i, rc in ((1, (1, 2)), (2, (1, 1)), (3, (2, 1)))}
    args = ([0], lambda i, m: gens[i], matrix_qcommutator, None)
    fails = presentation.relation_failures(quiver, *args)
    assert fails == reference_relation_failures(quiver.cartan, *args)
    assert ("R1", 0, 0, 2, 1) in fails and ("R1", 0, 0, 1, 2) not in fails
    assert {("R1", 0, 0, 1, 3), ("R1", 0, 0, 3, 1)} <= set(fails)


def test_a4_table_takes_at_most_19_products_over_1025_term_pairs(monkeypatch):
    # each Serre pair is nested around the inner commutator of its arrow's
    # sign, once for both orders, only the rows of level 0 run, and the
    # locality lemma decides every R3 row and some R1 and R2 rows without a
    # product: 19 products over 1025 term pairs on this quiver, where the
    # products of every row of level 0 take 47 over 2575
    real, pairs = TorusElement._convolve, []

    def spy(self, other, *args):
        pairs.append(len(self.terms) * len(other.terms))
        return real(self, other, *args)

    monkeypatch.setattr(TorusElement, "_convolve", spy)
    quiver = QuiverDatum.from_arrows(cartan_datum("A4"), [(2, 1), (2, 3), (4, 3)])
    assert Presentation(QuiverContext(quiver)).verify_relations(0, 2) == []
    assert len(pairs) <= 19 and sum(pairs) <= 1025


def arrow_sign(quiver, i: int, j: int) -> int:
    """s of the inner commutator [x_i, x_j]_{t^(s/2)} of the Serre pair i < j."""
    return 2 if (i, j) in quiver.arrows else -2


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "A5", "D4", "D5"])
def test_the_arrows_inner_commutator_is_the_smaller_in_k_t(name):
    # on every orientation, at levels 0 and 1 of the window 0..1: the inner
    # commutator of the arrow's sign has no more terms than the other sign's
    for quiver in all_orientations(name):
        pres = Presentation(QuiverContext(quiver))
        yt = pres.window(range(2))
        for m in range(2):
            for i, j in quiver.cartan.edges:
                x, y, s = pres.x_gen(yt, i, m), pres.x_gen(yt, j, m), arrow_sign(quiver, i, j)
                assert len(x.qcommutator(y, s).terms) <= len(x.qcommutator(y, -s).terms), (quiver.arrows, i, j, m)


@pytest.mark.parametrize("quiver", DH_QUIVERS, ids=lambda q: f"{q.cartan.kind}{q.cartan.n}{q.arrows}")
def test_the_arrows_inner_commutator_is_the_smaller_in_the_derived_hall_algebra(quiver):
    for q in (2, 3):
        dh = hall.DerivedHall(AdaptedWord.build(quiver), q)
        for m in range(2):
            for i, j in quiver.cartan.edges:
                x, y, s = dh.z_simple(i, m), dh.z_simple(j, m), arrow_sign(quiver, i, j)
                assert len(dh.qcommutator(x, y, s)) <= len(dh.qcommutator(x, y, -s)), (q, i, j, m)


def spy_asks(monkeypatch, module=presentation) -> list:
    """Per call of `module.relation_failures`, its quiver and the number of
    q-commutators asked per pair of generators {(i, m), (j, p)}: a call on two
    generators opens the pair, and every call after it on a generator and an
    element that is none belongs to the pair last opened."""
    real, calls = module.relation_failures, []

    def spy(quiver, levels, gen, qcomm, boson, translated=False):
        label, asks, kept, last = {}, {}, [], []

        def gen_(i, m):
            x = gen(i, m)
            kept.append(x)  # no id is reused while the table runs
            label[id(x)] = (i, m)
            return x

        def qcomm_(x, y, e):
            if id(y) in label:
                last[:] = [frozenset((label[id(x)], label[id(y)]))]
            asks[last[0]] = asks.get(last[0], 0) + 1
            return qcomm(x, y, e)

        calls.append((quiver, asks))
        return real(quiver, levels, gen_, qcomm_, boson, translated)

    monkeypatch.setattr(module, "relation_failures", spy)
    return calls


def assert_three_asks_per_serre_pair(quiver, asks: dict) -> None:
    """Within a level, an adjacent pair asks three q-commutators and any other
    pair one, for every pair i < j of each level whose R1 rows ran."""
    cd, same = quiver.cartan, {}
    for pair, n in asks.items():
        (i, m), (j, p) = sorted(pair)
        if m == p:
            same[i, j, m] = n
    levels = {m for _, _, m in same}
    assert levels and same == {
        (i, j, m): 3 if cd.adjacent(i, j) else 1 for m in levels for i in cd.vertices for j in cd.vertices if i < j
    }


def test_each_serre_pair_asks_three_q_commutators(monkeypatch):
    # the inner commutator of the arrow's sign and the two outer ones, in
    # K_t, U_q(n) and DH(Q); a commuting pair asks one
    k_t, u_q, dh = (spy_asks(monkeypatch, module) for module in (presentation, qgroup, hall))
    for quiver in QUIVERS:
        assert Presentation(QuiverContext(quiver)).verify_relations(0, 2) == []
        assert qgroup.QGroupSide(CategoryQ(QuiverContext(quiver))).serre_check() == []
    for quiver in DH_QUIVERS:
        assert hall.check_h_relations(hall.DerivedHall(AdaptedWord.build(quiver), 2), range(3)) == []
    assert len(k_t) == len(u_q) == len(QUIVERS) and len(dh) == len(DH_QUIVERS)
    for quiver, asks in k_t + u_q + dh:
        assert_three_asks_per_serre_pair(quiver, asks)


def test_the_d5_table_forms_no_element_above_100_terms(monkeypatch):
    # bipartite D5 at levels 0..2: with the other sign the largest inner
    # commutator has 5390 terms, and every element formed with the arrow's
    # has at most 16
    real, sizes = presentation.relation_failures, []

    def table(quiver, levels, gen, qcomm, boson, translated=False):
        def qcomm_(x, y, e):
            out = qcomm(x, y, e)
            sizes.append(len(out.terms))
            return out

        return real(quiver, levels, gen, qcomm_, boson, translated)

    monkeypatch.setattr(presentation, "relation_failures", table)
    pres = Presentation(QuiverContext(QuiverDatum.bipartite(cartan_datum("D5"))))
    assert pres.verify_relations(0, 2) == []
    assert sizes and max(sizes) <= 100


def perturb_x22(monkeypatch, pres):
    """x_{2,2} times t^(1/2), injected where the generators are built."""
    real, bad = presentation.fundamental_tchar, pres.qctx.phi.generator_position(2, 2)
    monkeypatch.setattr(
        presentation, "fundamental_tchar", lambda yt, i, p: real(yt, i, p).tshift(int((i, p) == bad))
    )


def perturb_pairing_row(monkeypatch, pres):
    """One entry of the row N(1, 1) raised where the rows are built, which
    nu = (1 3) does not fix."""
    build_rows_with(monkeypatch, (1, 1, 1))


@pytest.mark.parametrize("perturb", [perturb_x22, perturb_pairing_row])
def test_a_perturbation_the_shift_does_not_carry_fails_through_the_whole_table(monkeypatch, capsys, perturb):
    # x_{2,2} is no longer its node's base character, so the shift is not
    # proved and the whole table runs and gives its own list; a row that nu
    # does not fix is refused where the rows are built, before any table
    from qgroth.cli import main

    pres = Presentation(QuiverContext(QuiverDatum.bipartite(cartan_datum("A3"))))
    perturb(monkeypatch, pres)
    calls = spy_first_levels(monkeypatch)
    code = main(["verify", "presentation", "--type", "A3", "--m-range", "0..3", "--format", "json"])
    out, err = capsys.readouterr()
    if perturb is perturb_pairing_row:
        assert (code, out, err) == (2, "", "internal check failed: the pairing rows of A3 are not nu-invariant\n")
        assert calls == []
        return
    expected = reference_table(pres, 0, 3)
    assert code == 2 and err == ""
    assert json.loads(out) == {"ok": False, "failures": [str(f) for f in expected]}
    assert expected and calls == [(False, {0, 1, 2, 3})]


@pytest.mark.parametrize("variant", ["unit", "shift"])
def test_a_one_level_z_simple_perturbation_fails_through_the_whole_table(monkeypatch, capsys, variant):
    # the shift proof of check_h_relations fails, so hall relations computes
    # the whole table, gives its list and exits 2
    from qgroth.cli import main

    real, levels = hall.DerivedHall.z_simple, range(4)

    def varied(dh, i, m):
        unit = lambda x: dh.add(x, dh.one())  # noqa: E731
        half = lambda x: dh.scal(x, uscalar(dh.q, [0, 1]))  # noqa: E731
        return varied_gen(variant, levels, lambda i, m: real(dh, i, m), unit, half)(i, m)

    monkeypatch.setattr(hall.DerivedHall, "z_simple", varied)
    dh = hall.DerivedHall(AdaptedWord.build(QuiverDatum.bipartite(cartan_datum("A3"))), 3)
    expected = reference_relation_failures(dh.cartan, levels, dh.z_simple, dh.qcommutator, dh_boson(dh))
    calls = spy_first_levels(monkeypatch, hall)
    assert main(["hall", "relations", "--type", "A3", "--q", "3", "--format", "json"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out == {"constant_identity": True, "failures": [list(map(str, f)) for f in expected]}
    assert expected and calls == [(False, {0, 1, 2, 3})]


def decided_rows(pres, lo, hi) -> tuple[list, list]:
    """verify_relations(lo, hi) on pres, and each q-commutator that it asks
    for as (family, x, y, e, decided): decided when the locality lemma
    answered it without `TorusElement.qcommutator`."""
    real_q, real_table, products, asked = TorusElement.qcommutator, presentation.relation_failures, [], []

    def counted(x, y, e):
        products.append(1)
        return real_q(x, y, e)

    def table(quiver, levels, gen, qcomm, boson, translated=False):
        level = {}

        def gen_(i, m):
            x = gen(i, m)
            level[id(x)] = m
            return x

        def qcomm_(x, y, e):
            before = len(products)
            out = qcomm(x, y, e)
            if id(x) in level and id(y) in level:
                d = level[id(y)] - level[id(x)]
                asked.append(("R1" if d == 0 else "R2" if d == 1 else "R3", x, y, e, len(products) == before))
            return out

        return real_table(quiver, levels, gen_, qcomm_, boson, translated)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TorusElement, "qcommutator", counted)
        mp.setattr(presentation, "relation_failures", table)
        return pres.verify_relations(lo, hi), asked


LEMMA_COUNTS = {
    "A1": {"R2": (0, 1), "R3": (2, 2)},
    "A2": {"R1": (0, 2), "R2": (2, 8), "R3": (16, 16)},
    "A3": {"R1": (2, 12), "R2": (14, 36), "R3": (72, 72)},
    "A4": {"R1": (12, 48), "R2": (60, 128), "R3": (256, 256)},
    "A5": {"R1": (48, 160), "R2": (208, 400), "R3": (800, 800)},
    "D4": {"R1": (12, 48), "R2": (60, 128), "R3": (256, 256)},
    "D5": {"R1": (46, 160), "R2": (206, 400), "R3": (800, 800)},
}


@pytest.mark.parametrize("name", list(LEMMA_COUNTS))
def test_the_locality_lemma_decides_only_zero_rows_and_every_r3_row(name):
    # on every orientation at levels 0..3: every row the lemma decides is 0
    # by the one-pass product (equal to x y - t^(e/2) y x, as tested above),
    # every R3 row of level 0 is decided, and the counts (decided, asked) per
    # family of generator pairs sum over the orientations
    counts: dict = {}
    for quiver in all_orientations(name):
        fails, asked = decided_rows(Presentation(QuiverContext(quiver)), 0, 3)
        assert fails == []
        for family, x, y, e, decided in asked:
            if decided:
                assert not x.qcommutator(y, e), (quiver.arrows, family)
            assert decided or family != "R3", quiver.arrows
            done, total = counts.get(family, (0, 0))
            counts[family] = (done + decided, total + 1)
    assert counts == LEMMA_COUNTS[name]


def test_a_foreign_term_makes_the_lemma_decline_on_its_generator(monkeypatch):
    # one term Y_{i,p+2} added to x_{1,2}: the lemma no longer applies to it,
    # its R3 rows with x_{j,0} are products again, and they fail
    pres = Presentation(QuiverContext(QuiverDatum.bipartite(cartan_datum("A3"))))
    real, bad = presentation.fundamental_tchar, pres.qctx.phi.generator_position(1, 2)

    def corrupted(yt, i, p):
        x = real(yt, i, p)
        return x + yt.monomial({(i, p + 2): 1}) if (i, p) == bad else x

    monkeypatch.setattr(presentation, "fundamental_tchar", corrupted)
    fails, asked = decided_rows(pres, 0, 3)
    assert fails == reference_table(pres, 0, 3)
    r3 = [(x, y, decided) for family, x, y, e, decided in asked if family == "R3"]
    foreign = {id(y) for x, y, decided in r3 if not decided}
    assert len(foreign) == 1 and all(decided == (id(y) not in foreign) for x, y, decided in r3)
    assert {("R3", 0, 2, j, 1) for j in pres.cartan.vertices} <= set(fails)


def test_a_node_that_is_not_nu_symmetric_turns_the_read_off_off(monkeypatch, capsys):
    # the per-node check answering False at node 1 turns the read-off off:
    # the whole table runs and prints what the read-off prints
    from qgroth.cli import main

    argv = ["verify", "presentation", "--type", "A3", "--m-range", "0..3", "--format", "json"]
    pres = Presentation(QuiverContext(QuiverDatum.bipartite(cartan_datum("A3"))))
    assert main(argv) == 0
    expected = capsys.readouterr()
    real = presentation._nu_symmetric
    monkeypatch.setattr(presentation, "_nu_symmetric", lambda kind, n, j: j != 1 and real(kind, n, j))
    calls = spy_first_levels(monkeypatch)
    assert main(argv) == 0 and capsys.readouterr() == expected
    assert calls == [(False, {0, 1, 2, 3})]
    # the base character at node 1 with the coefficient of its last monomial
    # doubled: every generator is still its node's base, but node 1 is no
    # longer nu-symmetric, so the whole table runs and fails
    monkeypatch.setattr(presentation, "_nu_symmetric", functools.lru_cache(maxsize=None)(real.__wrapped__))
    base = characters._fm_base

    def changed(kind, n, i):
        chi = base(kind, n, i)
        last = list(chi)[-1]
        return chi | {last: chi[last] + chi[last]} if i == 1 else chi

    for module in (characters, presentation):
        monkeypatch.setattr(module, "_fm_base", changed)
    assert not presentation._nu_symmetric("A", 3, 1) and presentation._nu_symmetric("A", 3, 2)
    failures = reference_table(pres, 0, 3)
    calls.clear()
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out) == {"ok": False, "failures": [str(f) for f in failures]}
    assert failures and calls == [(False, {0, 1, 2, 3})]


def test_positions_that_do_not_step_by_t_turn_the_read_off_off(monkeypatch, capsys):
    # the generators of levels 2 and 3 moved two levels up: each is still its
    # node's base character, but (i, 2) no longer sits at T of (i, 1), so the
    # whole table runs and gives its own list
    from qgroth.cli import main

    pres = Presentation(QuiverContext(QuiverDatum.bipartite(cartan_datum("A3"))))
    phi = type(pres.qctx.phi)
    real = phi.generator_position
    monkeypatch.setattr(phi, "generator_position", lambda self, i, m: real(self, i, m + 2 * (m >= 2)))
    expected = reference_table(pres, 0, 3)
    calls = spy_first_levels(monkeypatch)
    assert main(["verify", "presentation", "--type", "A3", "--m-range", "0..3", "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out) == {"ok": False, "failures": [str(f) for f in expected]}
    assert expected and calls == [(False, {0, 1, 2, 3})]


def test_a_replaced_pairing_row_makes_the_lemma_decline_on_every_row(monkeypatch, capsys):
    # N(2, 2) at d = 1 raised where the rows are built: nu = (1 3) fixes it,
    # but it breaks the rule the lemma rests on, so no row is decided by the
    # lemma or by a product: the build refuses the rows and names the rule
    from qgroth.cli import main

    build_rows_with(monkeypatch, (2, 2, 0))
    calls = spy_first_levels(monkeypatch)
    with pytest.raises(RuntimeError, match="^the pairing rows of A3 are not A-local$"):
        Presentation(QuiverContext(QuiverDatum.bipartite(cartan_datum("A3"))))
    assert main(["verify", "presentation", "--type", "A3", "--m-range", "0..3"]) == 2
    assert capsys.readouterr() == ("", "internal check failed: the pairing rows of A3 are not A-local\n")
    assert calls == []


@pytest.mark.parametrize("name", [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"])
def test_the_pairing_rows_are_local(monkeypatch, name):
    # the build checks the rows of every type, and refuses them once one
    # diagonal entry is raised on a nu-orbit of nodes, which nu fixes
    cd = cartan_datum(name)
    QuantumCartan(cd)
    build_rows_with(monkeypatch, *{(i, i, 0) for i in (1, cd.nu(1))})
    with pytest.raises(RuntimeError, match=f"^the pairing rows of {name} are not A-local$"):
        QuantumCartan(cd)
