import hashlib
import json
from operator import add, mul

import pytest

from qgroth.cartan import cartan_datum
from qgroth.quiver import AdaptedWord, PhiMap, QuiverContext, QuiverDatum, ringel_form

from conftest import all_orientations, reflect_weight, tau_inv


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
    q = d4_fig_quiver()
    assert q.gamma(1) == (1, 0, 1, 1)
    assert q.gamma(4) == (0, 0, 0, 1)
    q4 = QuiverDatum.from_xi(cartan_datum("A4"), (0, 1, 0, 1))
    assert q4.gamma(2) == (0, 1, 0, 0)


def test_adapted_coxeter_rank4():
    cd = cartan_datum("A4")
    q = QuiverDatum.from_xi(cd, (0, 1, 0, 1))
    # the element is the one with reduced word s_2 s_4 s_1 s_3
    for b in [cd.unit(i) for i in cd.vertices] + [(1, 2, 0, -1)]:
        assert q.tau(b) == cd.apply_word((2, 4, 1, 3), b)
    g2 = q.gamma(2)
    assert q.tau_power(g2, 2) == cd.unit(3)
    h = cd.coxeter_number()
    for i in cd.vertices:
        assert q.tau_power(cd.unit(i), h) == cd.unit(i)


def test_phi_d4_figure():
    cd = cartan_datum("D4")
    ctx = QuiverContext(d4_fig_quiver())

    def a(i):
        return cd.unit(i)

    def rc(*cs):
        return cs

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
    assert w.roots[0] == cd.unit(2)
    assert w.roots[5] == cd.unit(1)
    # lambda_k = mu(k, i_k) = varpi_{i_k} - x(k, i_k)
    assert w.sums[1][1] == (0, 1, 0)
    assert w.sums[4][1] == (1, 2, 1)
    # x(r, j) = varpi_j - w0(varpi_j) = varpi_j + varpi_nu(j)
    assert w.sums[6] == ((1, 1, 1), (1, 2, 1), (1, 1, 1))


def test_adapted_word_invariants_all_orientations():
    for name in ("A2", "A3", "A4", "D4"):
        cd = cartan_datum(name)
        pos = set(cd.positive_roots())
        for q in all_orientations(name):
            w = AdaptedWord.build(q)
            assert len(w.word) == cd.num_positive_roots()
            assert set(w.roots) == pos
            assert w.sums[0] == ((0,) * cd.n,) * cd.n
            for k in range(1, w.r + 1):
                # lambda_k = lambda_{k-} - beta_k: x(k, i_k) = x(k-, i_k) + beta_k
                i = w.word[k - 1]
                assert w.sums[k][i - 1] == tuple(map(sum, zip(w.sums[w.kminus(k)][i - 1], w.roots[k - 1])))
                assert all(w.sums[k][j - 1] == w.sums[k - 1][j - 1] for j in cd.vertices if j != i)


def _weight(cartan, b):
    """A root-lattice vector in fundamental-weight coordinates: C b."""
    return tuple(sum(c * x for c, x in zip(row, b)) for row in cartan.cartan_matrix())


@pytest.mark.parametrize("quiver", [
    *(q for name in ("A1", "A2", "A3", "A4", "A5", "D4") for q in all_orientations(name)),
    QuiverDatum.bipartite(cartan_datum("D5")),
    QuiverDatum.bipartite(cartan_datum("E6")),
])
def test_mu_table_is_the_word_prefix_applied(quiver):
    # beta_k = s_{i_1} ... s_{i_(k-1)} (alpha_{i_k}) and mu(b, j) = varpi_j -
    # x(b, j), whose fundamental-weight coordinates are e_j - C x(b, j),
    # against the prefixes applied by the oracle reflection; and the pairing
    # (beta, mu(b, j)) of weight coordinates is beta_j - beta^T C x(b, j)
    cd = quiver.cartan
    w = AdaptedWord.build(quiver)
    for b in range(w.r + 1):
        if b:
            alpha = cd.cartan_matrix()[w.word[b - 1] - 1]
            for letter in reversed(w.word[: b - 1]):
                alpha = reflect_weight(cd, letter, alpha)
            assert _weight(cd, w.roots[b - 1]) == alpha, b
        for j in cd.vertices:
            mu = cd.unit(j)
            for letter in reversed(w.word[:b]):
                mu = reflect_weight(cd, letter, mu)
            x = w.sums[b][j - 1]
            assert tuple(e - y for e, y in zip(cd.unit(j), _weight(cd, x))) == mu, (b, j)
            for beta in w.roots:
                assert sum(map(mul, beta, mu)) == beta[j - 1] - cd.sprod(beta, x)


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
                    assert ringel_form(q, cd.unit(i), q.gamma(j)) == (1 if i == j else 0)
            roots = cd.positive_roots()
            for x in roots[:5]:
                for y in roots[:5]:
                    sym = ringel_form(q, x, y) + ringel_form(q, y, x)
                    assert sym == cd.sprod(x, y)
                    assert ringel_form(q, tau_inv(q, x), y) == -ringel_form(q, y, x)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6"])
def test_the_word_carries_the_euler_and_hom_tables_of_the_heart(name):
    # entry by entry: euler is <beta_k, beta_l> of ringel_form, its
    # symmetrization is the Cartan pairing (beta_k, beta_l), and hom is 1 on
    # the diagonal, 0 above it and max(0, euler) below it
    cd = cartan_datum(name)
    for quiver in all_orientations(name):
        w = AdaptedWord.build(quiver)
        e, r = w.euler, w.r
        assert e == tuple(tuple(ringel_form(quiver, b, c) for c in w.roots) for b in w.roots), quiver.arrows
        assert [[e[k][l] + e[l][k] for l in range(r)] for k in range(r)] == [
            [cd.sprod(b, c) for c in w.roots] for b in w.roots
        ], quiver.arrows
        assert all(w.hom[k][l] == (k == l) for k in range(r) for l in range(k, r)), quiver.arrows
        assert all(w.hom[k][l] == max(0, e[k][l]) for k in range(r) for l in range(k)), quiver.arrows


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
                lhs = map(add, q.tau_power(q.gamma(i), ell % h), q.tau_power(q.gamma(i), (ell - 1) % h))
                rhs = (0,) * cd.n
                for k in cd.neighbors(i):
                    shift = ell + (q.xi[k - 1] - q.xi[i - 1] - 1) // 2
                    rhs = tuple(map(add, rhs, q.tau_power(q.gamma(k), shift % h)))
                assert tuple(lhs) == rhs


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
            want = (below, m) if cd.is_positive_root(below) else (tuple(-x for x in below), m - 1)
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


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_a_wrong_injective_hull_fails_the_euler_check(name, monkeypatch):
    # gamma_2 moved by e_1, with phi made to agree with it: the table's
    # <e_1, gamma_2> is then 1, which the context refuses with its message
    quiver = QuiverDatum.bipartite(cartan_datum(name))
    true_gamma = QuiverDatum.gamma

    def gamma(self, j):
        return tuple(x + (j == 2 and k == 0) for k, x in enumerate(true_gamma(self, j)))

    monkeypatch.setattr(QuiverDatum, "gamma", gamma)
    monkeypatch.setattr(PhiMap, "phi", lambda self, i, p: (quiver.gamma(i), 0))
    with pytest.raises(RuntimeError, match=r"^Euler form <alpha_1, gamma_2> is not delta$"):
        QuiverContext(quiver)
