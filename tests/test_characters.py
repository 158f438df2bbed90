import hashlib
import json
import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest

from qgroth import characters
from qgroth.cartan import ResourceCap, cartan_datum
from qgroth.characters import (
    CategoryQ,
    CharacterError,
    dominant_below,
    fundamental_tchar,
    simple_tchar,
    sl2_simple_patterns,
    standard_tchar,
    string_decomposition,
    tsystem_exponents,
)
from qgroth.cli import main
from qgroth.laurent import HalfLaurent
from qgroth.qcartan import quantum_cartan
from qgroth.quiver import QuiverContext, QuiverDatum
from qgroth.torus import monomial_items

from conftest import (
    a_monomial,
    all_orientations,
    avecs_up_to,
    bar,
    boundary_terms,
    fm_classical,
    mon,
    on_positions,
    power,
    reference_truncated_simple,
    tensor_simple_check,
    truncate,
    value_at_one,
    wide_torus,
    y,
)


# -- sl2 machinery -----------------------------------------------------------


def test_string_decomposition():
    assert string_decomposition({0: 1, 2: 1}) == [(0, 2)]
    assert string_decomposition({0: 2}) == [(0, 1), (0, 1)]
    assert string_decomposition({0: 1, 4: 1}) == [(0, 1), (4, 1)]
    assert string_decomposition({0: 1, 2: 2}) == [(0, 2), (2, 1)]
    assert string_decomposition({0: 1, 2: 1, 4: 1}) == [(0, 3)]
    # a string steps by 2: {0, 3} is two strings, not one that covers 2
    assert string_decomposition({0: 1, 3: 1}) == [(0, 1), (3, 1)]


def test_sl2_pattern_dimensions():
    def dim(positions):
        return sum(value_at_one(c) for c in sl2_simple_patterns(positions).values())

    assert dim(((0, 1), (2, 1))) == 3
    assert dim(((0, 2),)) == 4
    assert dim(((0, 1), (2, 2))) == 6


def test_sl2_patterns_are_bar_invariant_with_a_central_t_plus_t_inverse():
    # Y_0^2: the two strings {0} and {0} meet at Y_0 Y_2^-1 from both sides
    two = sl2_simple_patterns(((0, 2),))
    assert two[()] == HalfLaurent.one() and two[(1, 1)] == HalfLaurent.one()
    assert two[(1,)] == HalfLaurent({2: 1, -2: 1})
    for positions in (((0, 1), (2, 1)), ((0, 2),), ((0, 1), (2, 2)), ((0, 3),), ((0, 1), (4, 2))):
        assert all(c.is_symmetric() and c.is_nonnegative() for c in sl2_simple_patterns(positions).values())


# -- fundamentals ------------------------------------------------------------


def test_rank1_fundamental(ytorus):
    f = fundamental_tchar(ytorus("A1"), 1, 0)
    assert f == ytorus("A1").monomial(y(1, 0)) + ytorus("A1").monomial(y(1, 2, -1))


def test_fundamental_dimensions_and_extremes():
    import math

    for name, dims in [("A2", [3, 3]), ("A3", [4, 6, 4]), ("A4", [5, 10, 10, 5])]:
        cd = cartan_datum(name)
        h = cd.coxeter_number()
        for i in cd.vertices:
            chi = fm_classical(cd, i, 0)
            assert sum(chi.values()) == dims[i - 1]
            assert math.comb(cd.n + 1, i) == dims[i - 1]
            doms = [m for m in chi if all(e >= 0 for _, e in m)]
            assert doms == [monomial_items(y(i, 0))]
            antis = [m for m in chi if all(e <= 0 for _, e in m)]
            assert antis == [monomial_items(y(cd.nu(i), h, -1))]
            assert all(0 <= p <= h for m in chi for (_, p), _ in m)


def test_d4_dimensions_and_multiplicity():
    cd = cartan_datum("D4")
    for i, dim in [(1, 8), (2, 8), (3, 29), (4, 8)]:
        chi = fm_classical(cd, i, 0)
        assert sum(chi.values()) == dim
    chi = fm_classical(cd, 3, 0)
    assert chi[monomial_items(mon(y(3, 2), y(3, 4, -1)))] == 2


def closed_form_dimension(name, i):
    """dim of the fundamental module at node i, in this labelling."""
    kind, n = name[0], int(name[1:])
    if kind == "A":
        return math.comb(n + 1, i)
    if kind == "D":
        if i <= 2:
            return 2 ** (n - 1)
        k = n + 1 - i
        return sum(math.comb(2 * n, l) for l in range(k % 2, k + 1, 2))
    return {"E6": [27, 79, 378, 3732, 378, 27]}[name][i - 1]


@pytest.mark.parametrize("name", [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6"])
def test_fundamental_dimensions_match_closed_forms(name):
    cd = cartan_datum(name)
    dims = [sum(fm_classical(cd, i, 0).values()) for i in cd.vertices]
    assert dims == [closed_form_dimension(name, i) for i in cd.vertices]


# node: (dimension, sha256 of the sorted JSON terms)
E7_FUNDAMENTALS = {
    1: (134, "fe4abfd10dc9aa5eeba325ac823e59556b2fa5e160375202a5e8a4e1aae79042"),
    2: (968, "1ce1f25ad262c54effbaab2f04d8c71b2cd137ecbdada549f2ac6efffe3150f8"),
    3: (10451, "77423606b12888fe182d7884f1fa1f2a20d647adc9fc0a6dc1d3ff516c122429"),
    6: (1673, "825d2e21976e2b2be1b4f6048f7feb4f84ea68ddf0bbc2b46822305c09393ea6"),
    7: (56, "c22fe922591f711701edcabaa7f48c9b3530b7a13fd6ca203ed92a4fc319225f"),
}


def test_e7_fundamentals_are_pinned():
    cd = cartan_datum("E7")
    for i, pinned in E7_FUNDAMENTALS.items():
        chi = fm_classical(cd, i, 0)
        rows = sorted(([[i, p, e] for (i, p), e in m], c) for m, c in chi.items())
        assert (sum(chi.values()), hashlib.sha256(json.dumps(rows).encode()).hexdigest()) == pinned, i


def test_fundamental_monomial_cap_names_the_node(monkeypatch, capsys):
    monkeypatch.setattr(characters, "MAX_FM_MONOMIALS", 10)
    fresh_fm_memo(monkeypatch)
    assert main(["qchar", "fundamental", "--type", "D4", "--i", "3", "--p", "0"]) == 3
    assert "fundamental character of D4 at node 3 passed 10 monomials" in capsys.readouterr().err


def test_d4_trivalent_fundamental_carries_t_plus_t_inverse(ytorus):
    yt = ytorus("D4")
    f = fundamental_tchar(yt, 3, 0)
    assert f.coeff(yt.key(mon(y(3, 2), y(3, 4, -1)))) == HalfLaurent({2: 1, -2: 1})
    assert all(c.is_one() for k, c in f.terms.items() if yt.monomial_of(k) != mon(y(3, 2), y(3, 4, -1)))


def fresh_fm_memo(monkeypatch):
    """A fresh memo for the duration of a test, so that no cached character
    slips past a patched check and none computed under it outlives the test."""
    monkeypatch.setattr(characters, "_fm_base", lru_cache(maxsize=None)(characters._fm_base.__wrapped__))


def test_a_coefficient_that_is_not_bar_invariant_is_refused(monkeypatch):
    fresh_fm_memo(monkeypatch)
    patterns = characters.sl2_simple_patterns
    # every step below the top of an sl2 string gains a factor t^(1/2)
    monkeypatch.setattr(
        characters,
        "sl2_simple_patterns",
        lambda positions: {pat: c.shift(1) if pat else c for pat, c in patterns(positions).items()},
    )
    with pytest.raises(CharacterError, match="is not bar-invariant and positive"):
        fm_classical(cartan_datum("A2"), 1, 0)


@pytest.mark.parametrize(
    "argv",
    [
        ["qchar", "fundamental", "--type", "A3", "--i", "1", "--p", "4"],
        ["canonical", "--type", "A3", "--degree-bound", "1"],
    ],
    ids=["fundamental", "canonical"],
)
def test_a_wrong_fundamental_base_ends_both_readers_in_exit_2(argv, monkeypatch, capsys):
    # with no sl2 string expanded the base is its top monomial alone, which
    # has no antidominant monomial: the check on the shift-invariant base
    # refuses it for `fundamental_tchar` and for canonical's truncations
    fresh_fm_memo(monkeypatch)
    monkeypatch.setattr(characters, "sl2_simple_patterns", lambda positions: {(): HalfLaurent.one()})
    assert main(argv) == 2
    assert capsys.readouterr().err.endswith("has unexpected antidominant set []\n")


def sl2_class(yt, m, j):
    """E_{j,t}(m) for a j-dominant monomial m, evaluated in the window torus
    yt itself: the product of the j-free part of m with the thin string
    characters of its j-part, normalized so that m has coefficient 1."""
    prod = yt.monomial({v: e for v, e in m.items() if v[0] != j})
    for a, k in string_decomposition({p: e for (i, p), e in m.items() if i == j}):
        steps = [{(j, a + 2 * c): 1 for c in range(k)}]
        for c in range(k):
            steps.append(mon(steps[-1], power(a_monomial(yt.cartan, j, a + 2 * (k - c) - 1), -1)))
        prod = prod * yt.element((x, HalfLaurent.one()) for x in steps)
    return prod.tshift(-prod.coeff(yt.key(m)).max_exp2())


@pytest.mark.parametrize("name, nodes", [("A3", (1, 2, 3)), ("D4", (1, 2, 3, 4)), ("D5", (3, 4)), ("E6", (1, 2))])
def test_fundamentals_lie_in_every_sl2_subring(name, nodes):
    # at each vertex j the t-character is a positive sum of E_{j,t}(m) over
    # j-dominant m, each computed in the full window torus: peel the term of
    # least depth off the remainder until nothing is left
    cd = cartan_datum(name)
    for i in nodes:
        yt = characters.fundamental_window(quantum_cartan(cd), [(i, 0)])
        chi = fundamental_tchar(yt, i, 0)

        def depth(k):
            return sum(yt.a_solve(mon(y(i, 0), power(yt.monomial_of(k), -1))).values())

        for j in cd.vertices:
            rem = chi
            while rem:
                k = min(rem.terms, key=depth)
                m, c = yt.monomial_of(k), rem.terms[k]
                assert all(e > 0 for (v, _), e in m.items() if v == j), (name, i, j, m)
                assert c.is_symmetric() and c.is_nonnegative(), (name, i, j, m)
                rem = rem - sl2_class(yt, m, j).scal(c)


# -- T-system exponents ------------------------------------------------------


def test_tsystem_exponents_examples():
    qc1 = quantum_cartan(cartan_datum("A1"))
    for k in range(1, 6):
        a, g = tsystem_exponents(qc1, 1, k)
        assert a == Fraction(-1) and g == Fraction(0)
    qc3 = quantum_cartan(cartan_datum("A3"))
    a, g = tsystem_exponents(qc3, 1, 1)
    assert (a, g) == (Fraction(-1, 2), Fraction(1, 2))
    for i in (1, 2, 3):
        for k in range(1, 5):
            a, g = tsystem_exponents(qc3, i, k)
            assert g - a == 1


# -- Kirillov-Reshetikhin via the T-system ------------------------------------


def test_kr_seeds_and_worked_values(categories):
    cat = categories("A3")
    yt = cat.yt
    assert cat.kr(2, 2, 1) == on_positions(cat, yt.monomial(mon(y(2, 1), y(2, 3))))
    assert cat.kr(1, 1, 2) == on_positions(cat, yt.monomial(y(1, 2)))
    assert cat.kr(2, 1, 1) == on_positions(
        cat, yt.monomial(y(2, 1)) + yt.monomial(mon(y(1, 2), y(2, 3, -1), y(3, 2)))
    )
    assert cat.kr(3, 1, 0) == on_positions(
        cat,
        yt.monomial(y(3, 0))
        + yt.monomial(mon(y(3, 2, -1), y(2, 1)))
        + yt.monomial(mon(y(2, 3, -1), y(1, 2))),
    )
    with pytest.raises(ValueError):
        cat.kr(1, 3, 2)


def test_tw_identity_holds_truncated(categories):
    # the deformed T-system itself, checked exactly at every applicable index
    for name in ("A2", "A3", "D4"):
        cat = categories(name)
        qc = cat.qc
        for (i, p) in cat.positions:
            xi = cat.quiver.xi[i - 1]
            for s in range(1, (xi - p) // 2 + 1):
                a, g = tsystem_exponents(qc, i, s)
                lhs = cat.kr(i, s, p) * cat.kr(i, s, p + 2)
                rhs = (cat.kr(i, s - 1, p + 2) * cat.kr(i, s + 1, p)).tshift(int(2 * a))
                prod = None
                for j in cat.cartan.neighbors(i):
                    f = cat.kr(j, s, p + 1)
                    prod = f if prod is None else prod * f
                rhs = rhs + prod.tshift(int(2 * g))
                assert lhs == rhs, (name, i, s, p)


def test_dual_route_fundamentals(ytorus):
    # the truncation of the fundamental t-character equals the T-system
    # class, exactly, at every position of every orientation
    for name in ("A1", "A2", "A3", "A4", "A5", "D4", "D5"):
        yt = ytorus(name)
        for quiver in all_orientations(name):
            cat = CategoryQ(QuiverContext(quiver))
            for (i, p) in cat.positions:
                assert cat.truncated_fundamental(i, p) == cat.kr(i, 1, p), (name, quiver.xi, i, p)
                assert cat.truncated_fundamental(i, p) == truncate(cat, fundamental_tchar(yt, i, p))


# -- standard and simple classes ----------------------------------------------


def test_standard_single_fundamental(ytorus):
    yt = ytorus("A2")
    assert standard_tchar(yt, y(1, 0)) == fundamental_tchar(yt, 1, 0)
    # no normalizing shift: the fundamental already carries Y[1,0] with coefficient 1
    assert fundamental_tchar(yt, 1, 0).coeff(yt.key(y(1, 0))) == HalfLaurent.one()


def test_standard_rank1_contains_tinv(ytorus):
    yt = ytorus("A1")
    m = mon(y(1, 0), y(1, 2))
    std = standard_tchar(yt, m)
    assert std.coeff(yt.key(m)) == HalfLaurent.one()
    assert std.coeff(yt.key({})) == HalfLaurent.t_power(-2)


def test_standard_class_holds_only_its_running_product():
    # Y[1,0]^30 on A1: a memo of every prefix peaks at about 3.0 MB of traced
    # memory, the running product alone at about 0.9 MB; both give one class
    qc = quantum_cartan(cartan_datum("A1"))
    m = {(1, 0): 30}
    yt = characters.fundamental_window(qc, m)
    tracemalloc.start()
    try:
        std = standard_tchar(yt, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000
    memo = {(0,): yt.one()}
    assert std == characters.ordered_product(memo, (30,), lambda k: fundamental_tchar(yt, 1, 0), [yt.key(y(1, 0))])
    assert len(memo) == 31


def test_an_ordered_product_out_of_range_is_refused_before_its_first_step(monkeypatch):
    # on the A1 window (m = 2, H = 2^15) a factor of L1 bound 100 multiplies
    # twice (2 * 100 * 100 < H) but not three times (2 * 200 * 100 >= H): a
    # product of three is refused before any step is built, and a memo hit
    # runs no range test
    from qgroth.torus import QuantumTorus, TorusElement

    qc = quantum_cartan(cartan_datum("A1"))
    yt = characters.fundamental_window(qc, [(1, 0)])
    gen, labels = yt.monomial(y(1, 0, 100)), [yt.key(y(1, 0, 100))]
    steps, tests = [], []
    mul_shift, check_range = TorusElement.mul_shift, QuantumTorus.check_range
    monkeypatch.setattr(TorusElement, "mul_shift", lambda x, y, e: steps.append(e) or mul_shift(x, y, e))
    monkeypatch.setattr(QuantumTorus, "check_range", lambda ctx, a, b: tests.append((a, b)) or check_range(ctx, a, b))
    memo = {(0,): yt.one()}
    assert characters.ordered_product(memo, (2,), lambda k: gen, labels) == yt.monomial(y(1, 0, 200))
    assert len(steps) == 2 and sorted(memo) == [(0,), (1,), (2,)]
    steps.clear()
    tests.clear()
    with pytest.raises(ResourceCap, match="torus product leaves the 16-bit key digits"):
        characters.ordered_product(memo, (3,), lambda k: gen, labels)
    assert steps == [] and tests == [(200, 100)] and sorted(memo) == [(0,), (1,), (2,)]
    tests.clear()
    characters.ordered_product(memo, (2,), lambda k: gen, labels)
    assert steps == [] and tests == []


def test_a_standard_class_past_the_key_digits_exits_3_at_once(monkeypatch, capsys):
    # Y[1,0]^99999 on A2: the steps leave the key digits from the 4097th on,
    # so the request is refused before its first product
    from qgroth.torus import TorusElement

    steps = []
    mul_shift = TorusElement.mul_shift
    monkeypatch.setattr(TorusElement, "mul_shift", lambda x, y, e: steps.append(e) or mul_shift(x, y, e))
    assert main(["qchar", "standard", "--type", "A2", "-m", "Y[1,0]^99999"]) == 3
    assert capsys.readouterr().err == "resource cap exceeded: torus product leaves the 16-bit key digits\n"
    assert steps == []


def test_simple_rank1(ytorus):
    yt = ytorus("A1")
    m = mon(y(1, 0), y(1, 2))
    simple = simple_tchar(yt, m)
    std = standard_tchar(yt, m)
    # the defect is exactly t^-1 times the trivial class
    assert std - simple == yt.one().scal(HalfLaurent.t_power(-2))
    assert bar(simple) == simple
    assert all(c.is_nonnegative() for c in simple.terms.values())


def test_simple_minuscule_is_completion(ytorus):
    yt = ytorus("A3")
    for i in (1, 2, 3):
        assert simple_tchar(yt, y(i, 0)) == fundamental_tchar(yt, i, 0)


def test_dominant_below(ytorus):
    # the closure of a label's key under the dominant keys of the standard
    # classes built, each key built once
    yt = ytorus("A1")
    built = []

    def standard(k):
        built.append(k)
        return standard_tchar(yt, yt.monomial_of(k))

    m = mon(y(1, 0), y(1, 2))
    below = dominant_below(yt.key(m), standard)
    assert set(below) == {yt.key(m), yt.key({})} and sorted(built) == sorted(below)
    assert below[yt.key(m)] == standard_tchar(yt, m)
    yt2 = ytorus("A2")
    below2 = dominant_below(yt2.key(m), lambda k: standard_tchar(yt2, yt2.monomial_of(k)))
    assert yt2.key(y(2, 1)) in below2


def test_both_tori_read_one_closure_and_truncation_enumerates_no_weight_space(monkeypatch):
    # D4 Y[4,-2]Y[3,-1]Y[1,0]Y[2,0]: its weight space has 515 decompositions
    # into roots, its closure 1 key, so one truncated standard class is built
    qctx = QuiverContext(QuiverDatum.from_xi(cartan_datum("D4"), (0, 0, 1, 2)))
    cat = CategoryQ(qctx)
    a = cat.avec_of(mon(y(4, -2), y(3, -1), y(1, 0), y(2, 0)))
    built, closures = [], []
    real_standard, real_below = CategoryQ.truncated_standard, characters.dominant_below

    def standard(self, b):
        built.append(tuple(b))
        return real_standard(self, b)

    def below(key, build):
        closures.append(key)
        return real_below(key, build)

    def refuse(*args):
        raise AssertionError("the weight space was enumerated")

    monkeypatch.setattr(CategoryQ, "truncated_standard", standard)
    monkeypatch.setattr(characters, "dominant_below", below)
    monkeypatch.setattr(CategoryQ, "dominant_pairs", refuse)
    monkeypatch.setattr(characters, "kostant_partitions", refuse)
    x = cat.truncated_simple(a)
    assert built == [a] and closures == [cat.xt.key(a)]
    yt = wide_torus("A3")
    m = mon(y(1, 0), y(2, 1))
    simple_tchar(yt, m)
    assert closures == [cat.xt.key(a), yt.key(m)]
    monkeypatch.undo()
    assert x == reference_truncated_simple(CategoryQ(qctx), a)


@pytest.mark.parametrize("name,degree,count", [("A3", 4, 248), ("A4", 3, 416), ("D4", 3, 424)])
def test_truncated_simple_matches_the_a_column_route(name, degree, count):
    # every dominant a up to the weight-degree on every orientation: the
    # closure's solve equals the solve over the A-column lower set
    seen = 0
    for q in all_orientations(name):
        cat = CategoryQ(QuiverContext(q))
        for a in avecs_up_to(cat, degree):
            assert cat.truncated_simple(a) == reference_truncated_simple(cat, a), (name, q.xi, a)
            seen += 1
    assert seen == count


def test_simple_positivity_and_bar(ytorus):
    yt = ytorus("A2")
    for m in [mon(y(1, 0), y(1, 2)), mon(y(1, 0), y(2, 1)), mon(y(1, 0), y(2, 3))]:
        s = simple_tchar(yt, m)
        assert bar(s) == s
        assert all(c.is_nonnegative() for c in s.terms.values()), m


def test_tensor_simple_check(ytorus):
    yt1 = ytorus("A1")
    assert tensor_simple_check(yt1, y(1, 0), y(1, 2)) is None
    assert tensor_simple_check(yt1, y(1, 0), y(1, 4)) is not None
    yt3 = ytorus("A3")
    k = tensor_simple_check(yt3, y(1, 0), y(2, 1))
    assert k is not None
    assert tensor_simple_check(yt3, y(1, 0), y(1, 0)) == Fraction(0)


# -- truncation ---------------------------------------------------------------


def test_truncate_examples(categories, ytorus):
    cat = categories("A3")
    full = fundamental_tchar(ytorus("A3"), 1, 0)
    tr = truncate(cat, full)
    assert len(tr.terms) == 3 and len(full.terms) == 4
    kept = [cat.monomial_of_avec(a) for a, _ in boundary_terms(tr)]
    dropped = [m for m, _ in boundary_terms(full) if m not in kept]
    assert dropped == [y(3, 4, -1)]
    outside = ytorus("A3").monomial(y(3, 4, -1), full.coeff(ytorus("A3").key(y(3, 4, -1))))
    assert tr == on_positions(cat, full - outside)


TRUNCATION_CASES = {
    "A3": [mon(y(2, 1)), mon(y(1, 0), y(3, 0)), mon(y(1, 0), y(1, 2)), mon(y(2, 1), y(2, 3))],
    "A4": [
        mon(y(2, -3), y(2, 1)),
        mon(y(1, -2), y(1, 0)),
        mon(y(4, -3), y(3, -2), y(2, 1)),
        mon(y(2, -3), y(4, -3), y(1, 0), y(3, 0)),
        mon(y(1, -2), y(3, -2), y(2, -1), y(4, 1)),
    ],
    "D4": [
        mon(y(3, -3), y(3, 1)),
        mon(y(1, -4), y(2, -2), y(4, 0)),
        mon(y(1, -4), y(1, 0)),
        mon(y(4, -2), y(3, -1), y(1, 0), y(2, 0)),
    ],
}


def test_truncated_simple_matches_full(categories, ytorus):
    # on the subtorus the two pipelines agree (the truncation of the full
    # simple class equals the class computed inside the category, whose
    # candidates come from the root decompositions)
    for name, monomials in TRUNCATION_CASES.items():
        cat, yt = categories(name), ytorus(name)
        for m in monomials:
            assert cat.truncated_simple(cat.avec_of(m)) == truncate(cat, simple_tchar(yt, m)), (name, m)


def test_dominant_survival(categories, ytorus):
    # every dominant monomial of a simple class in the category survives truncation
    cat = categories("A3")
    yt = ytorus("A3")
    for m in [mon(y(1, 0), y(2, 1)), mon(y(1, 0), y(1, 2))]:
        s = simple_tchar(yt, m)
        for k, _ in boundary_terms(s):
            assert any(e < 0 for e in k.values()) or all(v in cat.index_of_position for v in k), (m, k)


# -- dominant pairs -----------------------------------------------------------


def brute_force_decomposition_count(cd, d):
    roots = cd.positive_roots()

    def count(k, rem):
        if all(x == 0 for x in rem):
            return 1
        if k == len(roots):
            return 0
        total = 0
        b = roots[k]
        mx = min((rem[t] // b[t]) for t in range(len(rem)) if b[t])
        for c in range(mx + 1):
            total += count(k + 1, tuple(rem[t] - c * b[t] for t in range(len(rem))))
        return total


    return count(0, tuple(d))


def test_dominant_pairs_d4_table(categories):
    cat = categories("D4", xi=(4, 4, 5, 4))
    rows = cat.dominant_pairs((1, 1, 1, 1))
    assert len(rows) == 8
    by_mon = {monomial_items(r["monomial"]): r for r in rows}
    top = mon(y(1, 0), y(2, 0), y(3, 5), y(4, 0))
    assert by_mon[monomial_items(top)]["a_column"] == {}
    r2 = by_mon[monomial_items(mon(y(1, 4), y(2, 0), y(4, 0)))]
    assert r2["a_column"] == {(1, 1): 1, (3, 2): 1, (2, 3): 1, (4, 3): 1, (3, 4): 1}
    r8 = by_mon[monomial_items(y(3, 1))]
    assert r8["a_column"] == {
        (1, 1): 1, (2, 1): 1, (4, 1): 1, (3, 2): 2, (1, 3): 1, (2, 3): 1, (4, 3): 1, (3, 4): 1,
    }
    expected_monomials = [
        top,
        mon(y(1, 4), y(2, 0), y(4, 0)),
        mon(y(2, 4), y(1, 0), y(4, 0)),
        mon(y(4, 4), y(1, 0), y(2, 0)),
        mon(y(4, 2), y(4, 0)),
        mon(y(2, 2), y(2, 0)),
        mon(y(1, 2), y(1, 0)),
        mon(y(3, 1)),
    ]
    assert set(by_mon) == set(map(monomial_items, expected_monomials))


def test_dominant_pairs_counts_and_simples(categories):
    for name, d in [("A2", (2, 1)), ("A3", (1, 1, 1)), ("D4", (1, 1, 1, 1)), ("D4", (2, 1, 1, 0))]:
        cat = categories(name)
        cd = cat.cartan
        rows = cat.dominant_pairs(d)
        assert len(rows) == brute_force_decomposition_count(cd, d)
        assert len({monomial_items(r["monomial"]) for r in rows}) == len(rows)
    cat = categories("A3")
    rows = cat.dominant_pairs((0, 1, 0))
    assert len(rows) == 1 and rows[0]["monomial"] == y(*cat.qctx.phi.phi_inverse((0, 1, 0), 0))
