import hashlib
import json

import pytest

from qgroth.cartan import cartan_datum
from qgroth.quiver import AdaptedWord, QuiverContext, QuiverDatum, ringel_form

from conftest import all_orientations, tau_inv


def d4_fig_quiver():
    return QuiverDatum.from_xi(cartan_datum("D4"), (0, 0, 1, 2))


def test_height_function_validation():
    cd = cartan_datum("A2")
    with pytest.raises(ValueError):
        QuiverDatum(cd, ((1, 2),), (0, 0))
    q = QuiverDatum.from_xi(cd, (1, 0))
    assert q.arrows == ((1, 2),)


def test_from_arrows_fixes_sink_at_zero():
    cd = cartan_datum("A3")
    q = QuiverDatum.from_arrows(cd, [(2, 1), (2, 3)])
    assert q.xi[0] == 0  # smallest-index sink pinned to 0
    assert q.xi == (0, 1, 0)


def test_gamma_examples():
    cd = cartan_datum("D4")
    q = d4_fig_quiver()
    assert cd.root_coords(q.gamma(1)) == (1, 0, 1, 1)
    assert cd.root_coords(q.gamma(4)) == (0, 0, 0, 1)
    cd4 = cartan_datum("A4")
    q4 = QuiverDatum.from_xi(cd4, (0, 1, 0, 1))
    assert cd4.root_coords(q4.gamma(2)) == (0, 1, 0, 0)


def test_adapted_coxeter_rank4():
    cd = cartan_datum("A4")
    q = QuiverDatum.from_xi(cd, (0, 1, 0, 1))
    # the element is the one with reduced word s_2 s_4 s_1 s_3
    for lam in [cd.varpi(i) for i in cd.vertices]:
        assert q.tau(lam) == cd.apply_word((2, 4, 1, 3), lam)
    g2 = q.gamma(2)
    assert q.tau_power(g2, 2) == cd.alpha(3)
    h = cd.coxeter_number()
    for i in cd.vertices:
        assert q.tau_power(cd.varpi(i), h) == cd.varpi(i)


def test_phi_d4_figure():
    cd = cartan_datum("D4")
    ctx = QuiverContext(d4_fig_quiver())
    a = cd.alpha

    def rc(*cs):
        w = cd.zero_weight()
        for i, c in enumerate(cs, start=1):
            w = w + a(i).scale(c)
        return w

    expected = {
        (3, 3): (rc(1, 1, 1, 0), 1),
        (1, 2): (a(1), 1),
        (2, 2): (a(2), 1),
        (4, 2): (a(4), 0),
        (3, 1): (rc(0, 0, 1, 1), 0),
        (1, 0): (rc(1, 0, 1, 1), 0),
        (2, 0): (rc(0, 1, 1, 1), 0),
        (4, 0): (a(3), 0),
        (3, -1): (rc(1, 1, 2, 1), 0),
        (1, -2): (rc(0, 1, 1, 0), 0),
        (2, -2): (rc(1, 0, 1, 0), 0),
        (4, -2): (rc(1, 1, 1, 1), 0),
        (3, -3): (rc(1, 1, 1, 0), 0),
        (1, -4): (a(1), 0),
        (2, -4): (a(2), 0),
        (4, -4): (a(4), -1),
    }
    for (i, p), (root, m) in expected.items():
        assert ctx.phi.phi(i, p) == (root, m), (i, p)


def test_phi_rules_and_inverse():
    for name in ("A3", "D4"):
        cd = cartan_datum(name)
        ctx = QuiverContext(QuiverDatum.bipartite(cd))
        for i in cd.vertices:
            assert ctx.phi.phi(i, ctx.quiver.xi[i - 1]) == (ctx.quiver.gamma(i), 0)
        for beta in cd.positive_roots():
            for m in (-2, -1, 0, 1, 2):
                i, p = ctx.phi.phi_inverse(beta, m)
                assert ctx.phi.phi(i, p) == (beta, m)


def test_adapted_word_rank3_worked_example():
    cd = cartan_datum("A3")
    w = AdaptedWord.build(QuiverDatum.from_xi(cd, (2, 3, 2)))
    assert w.word == (2, 1, 3, 2, 1, 3)
    assert w.betas[0] == cd.alpha(2)
    assert w.betas[5] == cd.alpha(1)
    assert w.lambdas[0] == cd.varpi(2) - cd.alpha(2)
    assert w.lambdas[3] == cd.varpi(2) - cd.alpha(1) - cd.alpha(2).scale(2) - cd.alpha(3)


def test_adapted_word_invariants_all_orientations():
    for name in ("A2", "A3", "A4", "D4"):
        cd = cartan_datum(name)
        pos = {b.coords for b in cd.positive_roots()}
        for q in all_orientations(name):
            w = AdaptedWord.build(q)
            assert len(w.word) == cd.num_positive_roots()
            assert {b.coords for b in w.betas} == pos
            for k in range(1, w.r + 1):
                km = w.kminus(k)
                assert w.lam(k) == w.lam(km, letter=w.word[k - 1]) - w.betas[k - 1]


@pytest.mark.parametrize("quiver", [
    *all_orientations("A3"),
    *all_orientations("A4"),
    *all_orientations("D4"),
    QuiverDatum.bipartite(cartan_datum("D5")),
    QuiverDatum.bipartite(cartan_datum("E6")),
])
def test_mu_table_is_the_word_prefix_applied(quiver):
    # the table built down the word against each prefix applied to varpi_j
    cd = quiver.cartan
    w = AdaptedWord.build(quiver)
    for b in range(w.r + 1):
        for j in cd.vertices:
            assert w.mu(b, j) == cd.apply_word(w.word[:b], cd.varpi(j)), (b, j)
    for k in range(1, w.r + 1):
        assert w.lam(k) == w.mu(k, w.word[k - 1])


def test_kminus():
    w = AdaptedWord.build(QuiverDatum.from_xi(cartan_datum("A3"), (2, 3, 2)))
    assert w.kminus(4) == 1
    assert w.kminus(1) == 0
    assert w.kminus(6, j=1) == 5


def test_ringel_form_properties():
    for name in ("A3", "D4"):
        cd = cartan_datum(name)
        for q in [QuiverDatum.bipartite(cd), next(iter(all_orientations(name)))]:
            for i in cd.vertices:
                for j in cd.vertices:
                    assert ringel_form(q, cd.alpha(i), q.gamma(j)) == (1 if i == j else 0)
            roots = cd.positive_roots()
            for x in roots[:5]:
                for y in roots[:5]:
                    sym = ringel_form(q, x, y) + ringel_form(q, y, x)
                    assert sym == cd.sprod(x, y)
                    assert ringel_form(q, tau_inv(q, x), y) == -ringel_form(q, y, x)


def test_mesh_relation():
    # the translates of the gamma_k around (i, p) sum to the two translates of
    # gamma_i; the neighbour shift is (xi_k - xi_i - 1)/2 relative to the
    # lower end of the mesh (the production in the source text shows +1,
    # which already fails in rank 2; see the decisions notes)
    for name in ("A2", "A3", "D4"):
        cd = cartan_datum(name)
        q = QuiverDatum.bipartite(cd)
        h = cd.coxeter_number()
        for i in cd.vertices:
            for ell in range(0, 2 * h):
                lhs = q.tau_power(q.gamma(i), ell % h) + q.tau_power(q.gamma(i), (ell - 1) % h)
                rhs = cd.zero_weight()
                for k in cd.neighbors(i):
                    shift = ell + (q.xi[k - 1] - q.xi[i - 1] - 1) // 2
                    rhs = rhs + q.tau_power(q.gamma(k), shift % h)
                assert lhs == rhs


def test_ihat_Q_examples():
    ctx = QuiverContext(d4_fig_quiver())
    assert sorted(ctx.positions) == sorted(
        [
            (1, 0), (1, -2), (1, -4),
            (2, 0), (2, -2), (2, -4),
            (3, 1), (3, -1), (3, -3),
            (4, 2), (4, 0), (4, -2),
        ]
    )
    ctx3 = QuiverContext(QuiverDatum.from_xi(cartan_datum("A3"), (2, 3, 2)))
    assert sorted(ctx3.positions) == [(1, 0), (1, 2), (2, 1), (2, 3), (3, 0), (3, 2)]
    assert len(ctx3.positions) == 6


def test_position_order_reverses_word_order():
    # phi(i,p) = (beta_k, 0), phi(j,s) = (beta_l, 0): p < s implies k > l
    for name in ("A3", "A4", "D4"):
        for q in [QuiverDatum.bipartite(cartan_datum(name))]:
            ctx = QuiverContext(q)
            for k, (i, p) in enumerate(ctx.positions, start=1):
                for l, (j, s) in enumerate(ctx.positions, start=1):
                    if p < s:
                        assert k > l


def test_quiver_json_roundtrip():
    q = d4_fig_quiver()
    assert QuiverDatum.from_json(q.to_json()) == q


# The positions of every orientation of A1-A5, D4, D5 and of bipartite E6,
# as computed when every column of phi was extended 2h steps per round.
PHI_QUIVERS = ("A1", "A2", "A3", "A4", "A5", "D4", "D5")
PINNED_POSITIONS = "d0cb1e2914fcbc47a7a392f81f04785f961f254870b581028140fc54d4cdb8d8"


def test_phi_table_inverts_and_positions_are_pinned():
    quivers = [q for name in PHI_QUIVERS for q in all_orientations(name)]
    quivers.append(QuiverDatum.bipartite(cartan_datum("E6")))
    rows = []
    for q in quivers:
        ctx = QuiverContext(q)
        for beta in q.cartan.positive_roots():
            for m in range(-2, 3):
                assert ctx.phi.phi(*ctx.phi.phi_inverse(beta, m)) == (beta, m)
        rows.append([q.to_json()["type"], [list(a) for a in q.arrows], [list(ip) for ip in ctx.positions]])
    assert len(rows) == 56
    assert hashlib.sha256(json.dumps(sorted(rows)).encode()).hexdigest() == PINNED_POSITIONS


@pytest.mark.parametrize("quiver", [
    *(q for name in PHI_QUIVERS for q in all_orientations(name)),
    QuiverDatum.bipartite(cartan_datum("E6")),
])
def test_phi_obeys_the_translation_the_shift_and_the_normalization(quiver):
    # the construction phi was once grown by, column by column from
    # phi(i, xi_i) = (gamma_i, 0) through tau, checked at every (i, p) with
    # |p| <= 3h, together with the shift [1]: (i, p) -> (nu(i), p + h)
    cd = quiver.cartan
    phi = QuiverContext(quiver).phi.phi
    h = cd.coxeter_number()
    for i in cd.vertices:
        assert phi(i, quiver.xi[i - 1]) == (quiver.gamma(i), 0)
        for p in range(-3 * h, 3 * h + 1):
            if not quiver.in_ihat(i, p):
                continue
            beta, m = phi(i, p)
            below = quiver.tau(beta)
            want = (below, m) if cd.is_positive_root(below) else (-below, m - 1)
            assert phi(i, p - 2) == want, (i, p)
            assert phi(cd.nu(i), p + h) == (beta, m + 1), (i, p)


@pytest.mark.parametrize("quiver", [
    *(q for name in PHI_QUIVERS for q in all_orientations(name)),
    QuiverDatum.bipartite(cartan_datum("E6")),
])
def test_positions_run_top_level_first_ties_by_vertex(quiver):
    # the word order of the positions is the factor order of a standard class:
    # a truncated standard class is the ordered product of the truncated
    # fundamentals at the positions, in position order
    positions = QuiverContext(quiver).positions
    assert list(positions) == sorted(positions, key=lambda ip: (-ip[1], ip[0]))
