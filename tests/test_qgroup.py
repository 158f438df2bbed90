import itertools
import json
import re
from fractions import Fraction
from math import comb

import pytest

from qgroth import characters
from qgroth.cartan import cartan_datum
from qgroth.characters import CategoryQ, CharacterError, fundamental_tchar, standard_tchar
from qgroth.laurent import HalfLaurent
from qgroth.qgroup import QGroupSide
from qgroth.qcartan import quantum_cartan
from qgroth.quiver import QuiverContext, QuiverDatum
from qgroth.torus import TorusElement, monomial_items, render_monomial

from conftest import (
    all_orientations,
    avecs_up_to,
    bar,
    beta_of,
    boundary_terms,
    doubled_off_label,
    expand_by_monomials,
    flag_exponent,
    in_tinv_ztinv,
    mon,
    perturb_euler,
    standards_below,
    truncate,
    wide_torus,
    y,
)


@pytest.fixture(scope="module")
def a3(categories):
    cat = categories("A3")
    return cat, QGroupSide(cat)


def n_of(cartan, gamma) -> int:
    """N(gamma) = (gamma, gamma)/2 - deg gamma on the Cartan matrix, the
    reference for the side's N(beta_k) = <beta_k, beta_k> - deg beta_k."""
    return cartan.sprod(gamma, gamma) // 2 - sum(gamma)


def test_n_gamma():
    cd = cartan_datum("A2")
    assert n_of(cd, (1, 0)) == 0
    assert n_of(cd, (1, 1)) == -1
    cd4 = cartan_datum("D4")
    for b in cd4.positive_roots():
        assert n_of(cd4, b) == 1 - sum(b)
    # the side reads N(beta_k) off the diagonal of the word's Euler table
    for name in ("A2", "A3", "D4"):
        for quiver in all_orientations(name):
            qg = QGroupSide(CategoryQ(QuiverContext(quiver)))
            assert qg._n == [n_of(quiver.cartan, b) for b in qg.word.roots], quiver.arrows


def test_minor_base_cases(a3):
    _, qg = a3
    for b in range(7):
        assert qg.minor(b, b) == qg.xt.one()
    assert qg.minor(0, 1) == qg.flag(1)


def test_each_flag_minor_is_built_once_per_side(monkeypatch):
    # the determinantal recursion reads each D(0,d) many times; the flag
    # product is formed once per side, on every orientation
    built = []
    real = QGroupSide.flag
    monkeypatch.setattr(QGroupSide, "flag", lambda self, b: built.append((self, b)) or real(self, b))
    for name in ("A3", "A4", "D4"):
        for quiver in all_orientations(name):
            built.clear()
            qg = QGroupSide(CategoryQ(QuiverContext(quiver)))
            assert len(qg.generators) == qg.r
            assert sorted(b for _, b in built) == list(range(1, qg.r + 1)), quiver.arrows


def test_flag_minor_images(a3):
    cat, qg = a3

    def img(m):
        return cat.xt.monomial(cat.avec_of(m))

    assert img(y(2, 3)) == qg.flag(1)
    assert img(y(1, 2)) == qg.flag(2).tshift(-1)
    assert img(y(3, 2)) == qg.flag(3).tshift(-1)
    assert img(mon(y(2, 1), y(2, 3))) == qg.flag(4).tshift(-2)
    assert img(mon(y(1, 0), y(1, 2))) == qg.flag(5).tshift(-2)
    assert img(mon(y(3, 0), y(3, 2))) == qg.flag(6).tshift(-2)


def test_derived_minor_images(a3):
    cat, qg = a3
    assert qg.minor(1, 4).tshift(-2) == cat.kr(2, 1, 1)
    assert qg.minor(2, 5) == cat.kr(1, 1, 0)
    assert qg.minor(3, 6) == cat.kr(3, 1, 0)


def test_flag_commutation_matches_weight_formula(a3):
    # D(0,k) D(0,l) v-commute with exponent (varpi_{i_k} - lam_k, varpi_{i_l} + lam_l)
    cat, qg = a3
    cd, w = cat.cartan, cat.qctx.word
    L_expected = [
        [0, -1, -1, 0, 0, 0],
        [1, 0, 0, 0, 1, -1],
        [1, 0, 0, 0, -1, 1],
        [0, 0, 0, 0, 0, 0],
        [0, -1, 1, 0, 0, 0],
        [0, 1, -1, 0, 0, 0],
    ]
    for k in range(1, 7):
        for l in range(1, 7):
            if k < l:
                lam = flag_exponent(cd, w, k, l)
                assert lam == L_expected[k - 1][l - 1]
                # and the torus realization commutes with the same exponent
                dk, dl = qg.flag(k), qg.flag(l)
                assert dk * dl == (dl * dk).tshift(2 * lam)


def test_sigma_fixes_rescaled_generators(contexts):
    for name, xi in [("A3", (2, 3, 2)), ("A3", (2, 1, 0)), ("D4", (0, 0, 1, 2))]:
        cat = CategoryQ(contexts(name, xi))
        qg = QGroupSide(cat)
        for k in range(1, qg.r + 1):
            xk = qg.xt.monomial(qg.xt.unit_vector(k))
            z = qg.flag(k) * _inv(qg, qg.word.kminus(k))
            # X_k = v^(c2/2) Z_k is sigma-fixed
            assert bar(xk) == xk
            assert z.tshift(qg._c2[k - 1]) == xk


@pytest.mark.parametrize("k", range(1, 7))
def test_a_wrong_n_ends_canonical_in_exit_2(monkeypatch, capsys, k):
    # N(beta_k) + 1 on one k, read off the diagonal of the word's Euler table
    # (which the torus check does not read): the sigma check of the generators
    # refuses some E*(j), j >= k, before any solve; the rescaling c_j moves
    # with N(beta_j), so E*(1) alone cannot see its own N
    from qgroth.cli import main
    from qgroth.quiver import AdaptedWord

    real = AdaptedWord.euler.func

    def euler(word):
        return tuple(tuple(e + (l == m == k - 1) for m, e in enumerate(row)) for l, row in enumerate(real(word)))

    monkeypatch.setattr(AdaptedWord, "euler", property(euler))
    assert main(["canonical", "--type", "A3", "--degree-bound", "1"]) == 2
    out, err = capsys.readouterr()
    j = re.fullmatch(r"internal check failed: conj\(E\*\((\d)\)\) is not v\^N\(beta_\1\) E\*\(\1\), .*\n", err)
    assert out == "" and j and int(j[1]) >= k, err


def test_a_perturbed_euler_entry_ends_canonical_in_exit_2(monkeypatch, capsys):
    # one off-diagonal entry of the word's Euler table off by 2 moves the
    # rank-r torus off the Y-pairing at the positions: the Phi check refuses it
    from qgroth.cli import main

    perturb_euler(monkeypatch, (0, 1, 0), (1, 1, 0))
    assert main(["canonical", "--type", "A3", "--degree-bound", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and re.fullmatch(r"internal check failed: pairings disagree at positions \d,\d: N = -?\d, X = -?\d\n", err)
    monkeypatch.undo()
    assert main(["canonical", "--type", "A3", "--degree-bound", "1"]) == 0


def _inv(qg, b):
    """Inverse of a flag minor (a unit times a single basis monomial)."""
    if b == 0:
        return qg.xt.one()
    f = qg.flag(b)
    ((a, coeff),) = boundary_terms(f)
    e, v = next(iter(coeff.c.items()))
    assert v == 1
    inv = tuple(-x for x in a)
    return qg.xt.monomial(inv, HalfLaurent.t_power(-e)).tshift(-qg.xt.pair2(a, inv))


def _pbw_by_definition(qg, a):
    """v^(N(beta)/2) E*(1)^a1 ... E*(r)^ar, shifted by -sum a_k(a_k - 1), one factor at a time."""
    out = qg.xt.one()
    for k, x in enumerate(a, start=1):
        for _ in range(x):
            out = out * qg.e_star(k)
    nb = n_of(qg.cartan, beta_of(qg.cat, a))
    return out.tshift(nb - sum(x * (x - 1) for x in a))


@pytest.mark.parametrize("quiver", [
    *all_orientations("A3"),
    *all_orientations("A4"),
    QuiverDatum.bipartite(cartan_datum("D4")),
])
def test_rescaling_is_the_quadratic_form(quiver):
    # the normalization shifts of E~ add up to the paper's rescaling, the
    # integer form s(a) = sum_k a_k N(beta_k) + sum_{k<l} a_k a_l (beta_k, beta_l)
    # with N(beta_k) = 1 - deg beta_k, which is N(beta(a)) - sum a_k(a_k - 1) on
    # the weight beta(a); and E~ is the product with that rescaling
    qg = QGroupSide(CategoryQ(QuiverContext(quiver)))
    s, degs = qg.xt.s, [sum(b) for b in qg.word.roots]
    avecs = avecs_up_to(qg.cat, 4)
    assert len(avecs) > qg.r
    for a in avecs:
        nb = n_of(qg.cartan, beta_of(qg.cat, a))
        form = sum(x * (1 - d) for x, d in zip(a, degs))
        form += sum(a[k] * a[l] * s[k][l] for k in range(qg.r) for l in range(k + 1, qg.r))
        assert form == nb - sum(x * (x - 1) for x in a), (quiver.arrows, a)
        assert qg.e_tilde(a) == _pbw_by_definition(qg, a), (quiver.arrows, a)


def test_dual_pbw(a3):
    _, qg = a3
    assert qg.e_tilde((0,) * 6) == _pbw_by_definition(qg, (0,) * 6) == qg.xt.one()
    for k in range(1, 7):
        ek = tuple(1 if j == k - 1 else 0 for j in range(6))
        nb = n_of(qg.cartan, beta_of(qg.cat, ek))
        assert qg.e_tilde(ek) == _pbw_by_definition(qg, ek) == qg.e_star(k).tshift(nb)


def test_dual_pbw_rank2_product(contexts):
    cat = CategoryQ(contexts("A2", (2, 1)))
    qg = QGroupSide(cat)
    # word (1,2,1): a = (1,0,1): product of the two extreme generators
    prod = qg.e_star(1) * qg.e_star(3)
    nb = n_of(cat.cartan, beta_of(cat, (1, 0, 1)))
    assert qg.e_tilde((1, 0, 1)) == _pbw_by_definition(qg, (1, 0, 1)) == prod.tshift(nb)


def b_star(qg, a):
    """The dual canonical vector B*(a) = v^(-N) B~(a)."""
    n = n_of(qg.cartan, beta_of(qg.cat, a))
    return qg.b_tilde(a).tshift(-n)


def test_dual_canonical_unit_vectors(a3):
    _, qg = a3
    for k in range(1, 7):
        ek = tuple(1 if j == k - 1 else 0 for j in range(6))
        assert b_star(qg, ek) == qg.e_star(k)


def test_dual_canonical_rank2_weight_space(contexts):
    cat = CategoryQ(contexts("A2", (2, 1)))
    qg = QGroupSide(cat)
    cd = cat.cartan
    # weight alpha_1 + alpha_2: two exponent vectors; one correction step
    space = [tuple(r["avec"]) for r in cat.dominant_pairs((1, 1))]
    assert len(space) == 2
    corrections = 0
    for a in space:
        b = b_star(qg, a)
        n = n_of(cd, beta_of(cat, a))
        # sigma(B*) = v^N B*
        assert bar(b) == b.tshift(2 * n)
        coeffs = _expand_in_pbw(qg, qg.b_tilde(a), space)
        assert coeffs[a] == HalfLaurent.one()
        for c, val in coeffs.items():
            if c != a and not val.is_zero():
                corrections += 1
                assert in_tinv_ztinv(val)
    assert corrections == 1  # exactly one nontrivial correction in this weight space


def _expand_in_pbw(qg, x, candidates):
    """Expansion over the rescaled dual PBW family (the transition matrix is
    unchanged by the common weight-space rescaling)."""
    from qgroth.characters import expand_in_dominant_basis

    xt = qg.xt
    basis = {xt.key(c): qg.e_tilde(c) for c in candidates}
    depth = qg.cat.depths(qg.cat.root_of(next(iter(candidates))))
    coeffs = expand_in_dominant_basis(x, basis, depth)
    return {xt.exponents(k): c for k, c in coeffs.items()}


def test_unitriangularity_both_transitions(a3, ytorus):
    cat, qg = a3
    yt = ytorus("A3")
    # standard-to-simple: off-diagonal coefficients in t^-1 Z[t^-1]
    from qgroth.characters import simple_tchar

    m = mon(y(1, 0), y(2, 1))
    simple = simple_tchar(yt, m)
    std = standard_tchar(yt, m)
    basis = standards_below(yt, m)
    coeffs = expand_by_monomials(yt, simple, basis)
    assert coeffs[monomial_items(m)] == HalfLaurent.one()
    assert all(in_tinv_ztinv(c) for k, c in coeffs.items() if k != monomial_items(m))
    # dual PBW to dual canonical over a degree-3 weight space
    deg = (1, 1, 1)
    space = [tuple(r["avec"]) for r in cat.dominant_pairs(deg)]
    for a in space:
        coeffs = _expand_in_pbw(qg, qg.b_tilde(a), space)
        assert coeffs[a] == HalfLaurent.one()
        assert all(in_tinv_ztinv(c) for k, c in coeffs.items() if k != a)


def test_phi_intertwines_bar_and_sigma(a3):
    # truncation carries the bar involution of the big torus to sigma
    cat, qg = a3
    yt = wide_torus("A3")
    x = fundamental_tchar(yt, 2, 1) + fundamental_tchar(yt, 1, 0).tshift(3)
    assert truncate(cat, bar(x)) == bar(truncate(cat, x))


def test_verify_mainth_degree3_several_orientations(contexts):
    quivers = [("A2", (2, 1)), ("A2", (1, 2)), ("A3", (2, 3, 2)), ("A3", (2, 1, 0))]
    for name, xi in quivers:
        cat = CategoryQ(contexts(name, xi))
        qg = QGroupSide(cat)
        for r in qg.verify_mainth(3):
            assert r["simple_matches_dual_canonical"], (name, xi, r["avec"])
            assert r["standard_matches_dual_pbw"], (name, xi, r["avec"])


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "D4"])
def test_verify_mainth_rows_are_every_avec_up_to_the_bound_in_order(name):
    # the rows read off the weight spaces are the brute-force exponent
    # vectors, once each, in increasing lexicographic order
    cat = CategoryQ(QuiverContext(next(all_orientations(name))))
    for degree in range(4):
        rows = QGroupSide(cat).verify_mainth(degree)
        assert [r["avec"] for r in rows] == avecs_up_to(cat, degree)
        assert all(r["simple_matches_dual_canonical"] and r["standard_matches_dual_pbw"] for r in rows)


@pytest.mark.parametrize("quiver,degree", [
    *((q, 4) for q in all_orientations("A3")),
    (next(all_orientations("D4")), 3),
])
def test_verify_mainth_rows_match_one_vector_at_a_time(quiver, degree):
    # the weight-space grouping and the request-wide memos change no row: each
    # vector again on fresh objects, and the bases themselves compared
    ctx = QuiverContext(quiver)
    qg = QGroupSide(CategoryQ(ctx))
    rows = qg.verify_mainth(degree)
    assert [r["avec"] for r in rows] == avecs_up_to(qg.cat, degree)
    for row in rows:
        a = row["avec"]
        cat = CategoryQ(ctx)
        fresh = QGroupSide(cat)
        simple, btilde = cat.truncated_simple(a), fresh.b_tilde(a)
        standard, etilde = cat.truncated_standard(a), fresh.e_tilde(a)
        assert row == {
            "avec": a,
            "simple_matches_dual_canonical": simple == btilde,
            "standard_matches_dual_pbw": standard == etilde,
        }
        assert qg.b_tilde(a) == btilde and qg.e_tilde(a) == etilde == _pbw_by_definition(fresh, a)


@pytest.mark.parametrize("name,arrows,degree", [("A3", "1-2,3-2", 4), ("D4", "1-3,2-3,3-4", 3)])
def test_canonical_request_builds_each_basis_vector_once(capsys, monkeypatch, name, arrows, degree):
    # and runs one Lusztig-lemma solve per weight space: the dual canonical
    # rows are checked, not solved a second time.  While the r generators
    # agree, the dual PBW vectors are the standard classes too, one family in
    # one memo
    _check_canonical_builds(capsys, monkeypatch, name, arrows, degree, moved=False)


@pytest.mark.parametrize("name,arrows,degree", [("A3", "1-2,3-2", 4), ("D4", "1-3,2-3,3-4", 3)])
def test_canonical_request_with_a_moved_generator_builds_one_family(capsys, monkeypatch, name, arrows, degree):
    # with the last E*(k) moved off its label, the request fails and still
    # builds the dual PBW vectors alone, each once; only the weight spaces
    # with no row that has a_r > 0 are solved
    _check_canonical_builds(capsys, monkeypatch, name, arrows, degree, moved=True)


def _check_canonical_builds(capsys, monkeypatch, name, arrows, degree, moved):
    from qgroth import characters, qgroup
    from qgroth.cli import main
    from qgroth.torus import TorusElement

    built = {}  # id of a memo -> the vectors built into it
    solved = []

    def spy(basis, depth, _fn=characters.bar_invariant_correction):
        solved.append(frozenset(depth))
        return _fn(basis, depth)

    def product(memo, a, gen, labels, _fn=characters.ordered_product, _mul=TorusElement.mul_shift):
        before, products = set(memo), []

        def mul(x, y, exp2):
            products.append(a)
            return _mul(x, y, exp2)

        with monkeypatch.context() as m:
            m.setattr(TorusElement, "mul_shift", mul)
            out = _fn(memo, a, gen, labels)
        new = [b for b in memo if b not in before]
        assert len(products) == len(new)  # each build is one product
        built.setdefault(id(memo), []).extend(new)
        return out

    monkeypatch.setattr(characters, "ordered_product", product)
    monkeypatch.setattr(qgroup, "ordered_product", product)
    monkeypatch.setattr(characters, "bar_invariant_correction", spy)
    monkeypatch.setattr(qgroup, "bar_invariant_correction", spy)
    cd = cartan_datum(name)
    arrow_list = [tuple(int(v) for v in tok.split("-")) for tok in arrows.split(",")]
    cat = CategoryQ(QuiverContext(QuiverDatum.from_arrows(cd, arrow_list)))
    if moved:
        e_star = QGroupSide.e_star

        def moved_last(qg, k):
            return doubled_off_label(e_star(qg, k), cat.labels[-1]) if k == qg.r else e_star(qg, k)

        monkeypatch.setattr(QGroupSide, "e_star", moved_last)
    argv = ["canonical", "--type", name, "--arrows", arrows, "--degree-bound", str(degree)]
    assert main(argv) == (2 if moved else 0)
    assert ("FAIL" in capsys.readouterr().out) == moved
    avecs = avecs_up_to(cat, degree)
    # one family in one memo, which holds X(0) = 1 from the start and gains
    # every other dominant a once
    (log,) = built.values()
    assert sorted(log) == sorted(a for a in avecs if any(a))
    spaces = {}
    for a in avecs:
        spaces.setdefault(cat.root_of(a), set()).add(a)
    # a moved last generator leaves unsolved each weight space with a row that has a_r > 0
    clean = [frozenset(map(cat.xt.key, s)) for s in spaces.values() if not (moved and any(a[-1] for a in s))]
    assert sorted(solved, key=sorted) == sorted(clean, key=sorted)
    assert 0 < len(clean) and (len(clean) < len(spaces)) == moved


@pytest.mark.parametrize("name,arrows,degree", [("A3", "1-2,3-2", 4), ("D4", "1-3,2-3,3-4", 3)])
def test_canonical_request_enumerates_each_weight_space_once(capsys, monkeypatch, name, arrows, degree):
    # the walk over the dimension vectors up to the degree bound gives every
    # weight space its depths: no decomposition into roots is enumerated a
    # second time, not even for the dual canonical vectors of the json output
    from qgroth import characters
    from qgroth.cli import main

    enumerated = []

    def spy(roots, d, _fn=characters.kostant_partitions):
        enumerated.append(tuple(d))
        return _fn(roots, d)

    monkeypatch.setattr(characters, "kostant_partitions", spy)
    argv = ["canonical", "--type", name, "--arrows", arrows, "--degree-bound", str(degree), "--format", "json"]
    assert main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    n = cartan_datum(name).n
    assert len(enumerated) == len(set(enumerated)) == comb(degree + n, n)
    assert set(enumerated) == {d for d in itertools.product(range(degree + 1), repeat=n) if sum(d) <= degree}
    assert all(r["dual_canonical"] is not None for r in rows)


def test_fundamental_to_rescaled_pbw(a3):
    # the image of a truncated fundamental is v^(N(beta_d)/2) E*(beta_d)
    cat, qg = a3
    for k in range(1, 7):
        i, p = cat.positions[k - 1]
        n = n_of(cat.cartan, qg.word.roots[k - 1])
        assert cat.kr(i, 1, p) == qg.e_star(k).tshift(n)


def test_serre_check(categories):
    for name in ("A2", "A3"):
        assert categories(name) is not None
        qg = QGroupSide(categories(name))
        assert qg.serre_check() == []


def test_rank2_chevalley_images(contexts):
    # the two fundamental classes map to the two extreme minors D(0,1), D(1,3)
    cat = CategoryQ(contexts("A2", (2, 1)))
    qg = QGroupSide(cat)
    assert cat.kr(1, 1, 2) == qg.minor(0, 1)
    assert cat.kr(1, 1, 0) == qg.minor(1, 3)


def test_phi_is_algebra_homomorphism(contexts):
    # truncation respects products of the generators: the torus commutation
    # exponents agree
    for name, xi in [("A3", (2, 3, 2)), ("A4", (0, 1, 0, 1)), ("D4", (0, 0, 1, 2))]:
        cat = CategoryQ(contexts(name, xi))
        yt, xt = cat.yt, cat.xt
        for k, (i, p) in enumerate(cat.positions, start=1):
            for l, (j, s) in enumerate(cat.positions, start=1):
                assert cat.yt.qc.n_pair(i, p, j, s) == xt.pair2(
                    xt.unit_vector(k), xt.unit_vector(l)
                ), (name, (i, p), (j, s))
                y_prod = yt.monomial(y(i, p)) * yt.monomial(y(j, s))
                x_prod = xt.monomial(xt.unit_vector(k)) * xt.monomial(xt.unit_vector(l))
                assert truncate(cat, y_prod) == x_prod, (name, k, l)


def test_phi_check_rejects_a_corrupted_pairing(contexts, monkeypatch):
    # one entry of the N rows that feed the Y Gram matrix, at the first and
    # last positions, is off by one
    ctx = contexts("A3", (2, 3, 2))
    (i, p), (j, s) = ctx.positions[0], ctx.positions[-1]
    assert p != s
    rows = quantum_cartan(ctx.cartan)._n[i]
    bad = list(rows[j])
    bad[abs(p - s) - 1] += 1
    monkeypatch.setitem(rows, j, bad)
    with pytest.raises(CharacterError, match="pairings disagree at positions 1,6: N = 2, X = 1"):
        CategoryQ(ctx)


def three_route_failures(cat: CategoryQ) -> tuple[int, list]:
    """(pairs, failing pairs) over every minor D(b, d) with b = 0 or matching
    letters: with i = word[d], s the letters i in (b, d] and p the level of
    position d, the minor normalized at its leading key must be kr(i, s, p),
    bar-invariant, and the truncated simple class at that key."""
    qg, word = QGroupSide(cat), cat.qctx.word.word
    pairs, failures = 0, []
    for d in range(1, len(word) + 1):
        i, p = cat.positions[d - 1]
        for b in range(d):
            if b and word[b - 1] != i:
                continue
            pairs += 1
            try:
                x = qg.minor(b, d)
                lead = x.leading_key()
                ((e, v),) = x.coeff(lead).c.items()
                x = x.tshift(-e)
                ok = v == 1 and x == cat.kr(i, word[b:d].count(i), p) and bar(x) == x
                ok = ok and x == cat.truncated_simple(cat.xt.exponents(lead))
            except ArithmeticError:
                ok = False
            if not ok:
                failures.append((b, d))
    return pairs, failures


@pytest.mark.parametrize("name,pairs", [("A2", 8), ("A3", 38), ("A4", 148), ("A5", 504), ("D4", 192)])
def test_minors_kr_classes_and_truncated_simples_are_one_element(name, pairs):
    # three independent routes: the determinantal identity, the T-system and
    # Lusztig's lemma over the closure, on every orientation
    seen = 0
    for q in all_orientations(name):
        n, failures = three_route_failures(CategoryQ(QuiverContext(q)))
        assert failures == [], (name, q.xi)
        seen += n
    assert seen == pairs


@pytest.mark.parametrize("name,failing", [("A2", 2), ("A3", 14)])
def test_a_moved_t_system_exponent_fails_the_three_routes(monkeypatch, name, failing):
    # alpha of the T-system moved by 1, gamma kept: each failing pair ends in
    # a mismatch or an inexact division
    real = characters.tsystem_exponents

    def moved(qc, i, k):
        a, g = real(qc, i, k)
        return a + 1, g

    monkeypatch.setattr(characters, "tsystem_exponents", moved)
    assert sum(len(three_route_failures(CategoryQ(QuiverContext(q)))[1]) for q in all_orientations(name)) == failing


# -- one warm side per orientation ------------------------------------------


def _request(capsys, argv):
    from qgroth.cli import main

    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _arrows(quiver: QuiverDatum) -> str:
    return ",".join(f"{i}-{j}" for i, j in quiver.arrows)


def _canonical_json(quiver: QuiverDatum, degree: int) -> tuple[dict, str]:
    """The object `canonical --format json` reports, built whole on a side of
    its own, and its `json.dumps` as the CLI encodes objects: the reference
    for the rows a warm side encodes once and joins."""
    qg = QGroupSide(CategoryQ(QuiverContext(quiver)))
    report = qg.verify_mainth(degree)
    obj = {
        "ok": all(r["simple_matches_dual_canonical"] and r["standard_matches_dual_pbw"] for r in report),
        "rows": [
            {
                "avec": list(r["avec"]),
                "dual_canonical": qg.b_tilde(r["avec"]).to_json() if r["simple_matches_dual_canonical"] else None,
                "simple_ok": r["simple_matches_dual_canonical"],
                "standard_ok": r["standard_matches_dual_pbw"],
            }
            for r in report
        ],
    }
    return obj, json.dumps(obj, sort_keys=True, check_circular=False) + "\n"


def _assert_json_is(out: str, reference: tuple[dict, str]) -> None:
    obj, text = reference
    assert json.loads(out) == obj and out == text


@pytest.mark.parametrize("name,degree", [("A3", 4), ("A4", 3), ("D4", 3)])
def test_a_warm_side_prints_what_a_fresh_side_prints(capsys, monkeypatch, name, degree):
    # every orientation, in text and json, twice over in one process: each
    # request prints what it prints on a side built for it alone
    from qgroth import qgroup

    argvs = [
        ["canonical", "--type", name, "--arrows", _arrows(q), "--degree-bound", str(degree), "--format", fmt]
        for q in all_orientations(name)
        for fmt in ("text", "json")
    ]
    fresh = []
    for argv in argvs:
        qgroup._registry.clear()
        fresh.append(_request(capsys, argv))
    for q, (_, out, _) in zip(all_orientations(name), fresh[1::2]):
        _assert_json_is(out, _canonical_json(q, degree))
    qgroup._registry.clear()
    warm = [_request(capsys, argv) for argv in argvs]
    # a second pass reads every row off the warm sides: no E~, no solve, no
    # enumeration of a weight space and no encoding of a dual canonical row
    built = []
    with monkeypatch.context() as m:
        m.setattr(qgroup, "ordered_product", lambda *args: built.append(args[1]))
        m.setattr(qgroup, "bar_invariant_correction", lambda *args: built.append(args[1]))
        m.setattr(characters, "kostant_partitions", lambda roots, d: built.append(d))
        m.setattr(TorusElement, "to_json", lambda self: built.append(self))
        warm += [_request(capsys, argv) for argv in argvs]
    assert warm == fresh * 2 and all(code == 0 and err == "" for code, _, err in fresh) and not built
    # and the sides keep neither E~ nor minors
    assert len(qgroup._registry) == 2 ** len(cartan_datum(name).edges)
    for side in qgroup._registry.values():
        assert list(side._etilde) == [(0,) * side.r] and not side._minors


def test_every_height_function_of_one_orientation_shares_its_side(capsys):
    # five shifts of one A3 height function and both listings of its arrows
    # are one side; every column but m= is the same, and m= names the
    # positions of the request's own heights
    from qgroth import qgroup

    cd = cartan_datum("A3")
    quivers = [(["--xi", f"{k + 1},{k},{k + 1}"], QuiverDatum.from_xi(cd, (k + 1, k, k + 1))) for k in range(5)]
    for arrows in ("1-2,3-2", "3-2,1-2"):
        arrow_list = [tuple(map(int, tok.split("-"))) for tok in arrows.split(",")]
        quivers.append((["--arrows", arrows], QuiverDatum.from_arrows(cd, arrow_list)))
    rests = []
    for flags, quiver in quivers:
        code, out, err = _request(capsys, ["canonical", "--type", "A3", *flags, "--degree-bound", "3"])
        assert code == 0 and err == ""
        cat = CategoryQ(QuiverContext(quiver))
        rest = []
        for line in out.splitlines():
            a, m, tail = re.fullmatch(r"a=(\S+) m=(.*) (simple->.*)", line).groups()
            assert m == render_monomial(cat.monomial_of_avec(tuple(map(int, a.split(",")))))
            rest.append((a, tail))
        rests.append(rest)
    assert len(qgroup._registry) == 1
    assert rests == [rests[0]] * len(quivers) and len(rests[0]) == len(avecs_up_to(cat, 3))


def test_hall_iota_and_canonical_share_a_side_in_either_order(capsys):
    # on one orientation each prints after the other what it prints alone
    from qgroth import qgroup

    iota = ["hall", "iota", "--type", "A3", "--arrows", "2-1,2-3", "--q", "2", "--format", "json"]
    canonical = ["canonical", "--type", "A3", "--xi", "4,5,4", "--degree-bound", "3", "--format", "json"]
    alone = {}
    for argv in (iota, canonical):
        qgroup._registry.clear()
        alone[argv[0]] = _request(capsys, argv)
    for order in ((iota, canonical), (canonical, iota)):
        qgroup._registry.clear()
        for argv in order:
            assert _request(capsys, argv) == alone[argv[0]]
        assert len(qgroup._registry) == 1
    assert alone["hall"][0] == alone["canonical"][0] == 0
    # canonical after hall iota reads the weight spaces iota enumerated, and
    # still prints the whole object's encoding
    quiver = QuiverDatum.from_xi(cartan_datum("A3"), (4, 5, 4))
    _assert_json_is(alone["canonical"][1], _canonical_json(quiver, 3))


def test_mixed_degree_bounds_on_one_side_print_the_whole_object(capsys):
    # A3 at degree bounds 4, 2, 4 and 0 on one warm side: each prints what a
    # fresh side prints, the json.dumps of the object built whole
    from qgroth import qgroup

    quiver = QuiverDatum.bipartite(cartan_datum("A3"))
    for degree in (4, 2, 4, 0):
        argv = ["canonical", "--type", "A3", "--degree-bound", str(degree), "--format", "json"]
        code, out, err = _request(capsys, argv)
        assert code == 0 and err == ""
        _assert_json_is(out, _canonical_json(quiver, degree))
        warm = dict(qgroup._registry)
        qgroup._registry.clear()
        assert _request(capsys, argv) == (code, out, err)
        qgroup._registry.clear()
        qgroup._registry.update(warm)
    assert len(qgroup._registry) == 1


def test_a_refused_row_prints_null_on_a_fresh_and_a_warm_side(capsys, monkeypatch):
    # one key refused by its characterization: its row carries null and
    # simple_ok false, the report ok false and exit 2, and the same argv on
    # the warm side prints the same bytes, the whole object's encoding
    from qgroth import qgroup

    quiver = QuiverDatum.bipartite(cartan_datum("A3"))
    xt = CategoryQ(QuiverContext(quiver)).xt
    refused = xt.key((1, 0, 0, 0, 0, 1))
    real = QGroupSide._characterized
    monkeypatch.setattr(
        QGroupSide,
        "_characterized",
        staticmethod(lambda a, row, depth, pbw: None if a == refused else real(a, row, depth, pbw)),
    )
    reference = _canonical_json(quiver, 3)
    nulls = [r["avec"] for r in reference[0]["rows"] if r["dual_canonical"] is None]
    assert nulls == [[1, 0, 0, 0, 0, 1]] and reference[0]["ok"] is False
    argv = ["canonical", "--type", "A3", "--degree-bound", "3", "--format", "json"]
    runs = [_request(capsys, argv) for _ in range(2)]
    assert runs[0] == runs[1] and runs[0][0] == 2 and runs[0][2] == ""
    _assert_json_is(runs[0][1], reference)
    assert len(qgroup._registry) == 1


def test_a_request_that_raises_registers_nothing(capsys, monkeypatch):
    # a request that ends at the product cap exits 3 the same way twice and
    # leaves no side, neither its own nor the warm one it started on; with
    # the cap restored the next request prints what a fresh side prints
    from qgroth import qgroup, torus

    argv = ["canonical", "--type", "A3", "--degree-bound", "3"]
    fresh = _request(capsys, argv)
    qgroup._registry.clear()
    assert _request(capsys, ["canonical", "--type", "A3", "--degree-bound", "1"])[0] == 0
    assert len(qgroup._registry) == 1
    with monkeypatch.context() as m:
        m.setattr(torus, "MAX_PRODUCT_PAIRS", 20)
        capped = [_request(capsys, argv) for _ in range(2)]
        assert capped == [(3, "", "resource cap exceeded: torus product of 8 by 3 terms passes 20 pairs\n")] * 2
        assert not qgroup._registry
    assert _request(capsys, argv) == fresh
