import functools
import heapq
import itertools
from fractions import Fraction
from math import lcm
from operator import add, xor

import pytest

import qgroth.characters as characters
import qgroth.hall as hall
import qgroth.qgroup as qgroup
import qgroth.torus as torus
from qgroth.cartan import SUPPORTED, CartanDatum, ResourceCap, cartan_datum, root_sum
from qgroth.characters import (
    CategoryQ,
    bar_invariant_correction,
    combine,
    dominant_below,
    expand_in_dominant_basis,
    simple_tchar,
    standard_tchar,
)
from qgroth.hall import GF, _hom_equations, mat_rank, rref, specialize
from qgroth.laurent import HalfLaurent
from qgroth.qcartan import quantum_cartan
from qgroth.quiver import AdaptedWord, QuiverContext, QuiverDatum
from qgroth.torus import TorusElement, YTorus, monomial_items

# The worked orientations used throughout: heights as in the source examples.
PAPER_XI = {
    "A1": (0,),
    "A2": (2, 1),
    "A3": (2, 3, 2),
    "A4": (0, 1, 0, 1),
    "D4": (0, 0, 1, 2),
}


@pytest.fixture(autouse=True)
def fresh_side_registries():
    """Every test starts and ends with no `DerivedHall` and no warm
    `QGroupSide` in the registries, so that neither a monkeypatch nor a memo
    leaks from one test to another."""
    hall._registry.clear()
    qgroup._registry.clear()
    yield
    hall._registry.clear()
    qgroup._registry.clear()


@pytest.fixture(scope="session")
def contexts():
    cache = {}

    def get(name: str, xi=None) -> QuiverContext:
        cd = cartan_datum(name)
        xi = tuple(xi) if xi is not None else PAPER_XI.get(name)
        key = (name, xi)
        if key not in cache:
            q = QuiverDatum.from_xi(cd, xi) if xi else QuiverDatum.bipartite(cd)
            cache[key] = QuiverContext(q)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def categories(contexts):
    cache = {}

    def get(name: str, xi=None) -> CategoryQ:
        ctx = contexts(name, xi)
        key = id(ctx)
        if key not in cache:
            cache[key] = CategoryQ(ctx)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def ytorus():
    cache = {}

    def get(name: str) -> YTorus:
        if name not in cache:
            cache[name] = wide_torus(name)
        return cache[name]

    return get


def wide_torus(name: str) -> YTorus:
    """A window torus on every Y_{i,p} with -12 <= p <= 24, wide enough for
    every monomial the tests build."""
    cd = cartan_datum(name)
    return YTorus(quantum_cartan(cd), [(i, p) for i in cd.vertices for p in range(-12, 25)])


def y(i: int, p: int, e: int = 1) -> dict:
    """The exponent map of Y_{i,p}^e."""
    return {(i, p): e}


def mon(*ms: dict) -> dict:
    """The product of the exponent maps ms, with no zero entry."""
    out: dict = {}
    for m in ms:
        for v, e in m.items():
            out[v] = out.get(v, 0) + e
    return {v: e for v, e in out.items() if e}


def distinct(pairs) -> list:
    """The pairs (monomial, coefficient), one per monomial: the last one
    given, at the place of the first, as a dict built from the pairs keeps
    them.  A monomial is an exponent vector or an exponent map."""
    out = {}
    for x, c in pairs:
        out[x if isinstance(x, tuple) else monomial_items(x)] = (x, c)
    return list(out.values())


def value_at_one(c: HalfLaurent) -> int:
    """The Laurent polynomial c at t = 1."""
    return sum(c.c.values())


def fm_classical(cd: CartanDatum, i0: int, p0: int) -> dict[tuple, int]:
    """Classical q-character of the fundamental module at (i0, p0): its
    t-character at t = 1, keyed by the (p, i)-sorted items of each monomial."""
    return {
        tuple(((j, q + p0), e) for (j, q), e in m): value_at_one(c)
        for m, c in characters._fm_base(cd.kind, cd.n, i0).items()
    }


def tensor_simple_check(yt: YTorus, m1: dict, m2: dict) -> Fraction | None:
    """If the product of simple classes is t^k times a simple class, return k."""
    prod = simple_tchar(yt, m1) * simple_tchar(yt, m2)
    target = simple_tchar(yt, mon(m1, m2))
    c = prod.coeff(yt.key(mon(m1, m2)))
    if len(c.c) != 1:
        return None
    e, v = next(iter(c.c.items()))
    if v != 1:
        return None
    if prod == target.tshift(e):
        return Fraction(e, 2)
    return None


def boundary_terms(x) -> list:
    """The terms (monomial, coefficient) of x: a monomial is its exponent map
    on a window torus, its exponent vector on the rank-r torus."""
    unpack = x.ctx.monomial_of if isinstance(x.ctx, YTorus) else x.ctx.exponents
    return [(unpack(k), c) for k, c in x.terms.items()]


def doubled_off_label(x, label: int):
    """x with every term other than the one at the key `label` doubled: the
    same keys, so an ordered product over it still carries 1 at its label."""
    return x._with({k: c if k == label else c + c for k, c in x.terms.items()})


def avecs_up_to(cat: CategoryQ, bound: int) -> list[tuple[int, ...]]:
    """Every exponent vector a with sum_k a_k deg beta_k <= bound, once each,
    in increasing lexicographic order: the brute-force product over
    0 <= a_k <= bound // deg beta_k, filtered by the bound."""
    degs = [sum(b) for b in cat.roots]
    ranges = [range(bound // d + 1) for d in degs]
    return [a for a in itertools.product(*ranges) if sum(x * d for x, d in zip(a, degs)) <= bound]


def reference_truncated_simple(cat: CategoryQ, a):
    """The truncated simple class at a by the A-column route: the solve over
    the rows of a's weight space whose A-column dominates a's entry by entry,
    a Nakajima lower set read off every decomposition of the weight."""
    a = tuple(a)
    rows = cat.dominant_pairs(cat.root_of(a))
    col = next(r["a_column"] for r in rows if r["avec"] == a)
    below = [r["avec"] for r in rows if all(r["a_column"].get(k, 0) >= e for k, e in col.items())]
    depth = {cat.xt.key(b): cat.depth(b) for b in below}
    std = cat.standards(depth)
    return combine(std, bar_invariant_correction(std, depth)[cat.xt.key(a)])


def standards_below(yt: YTorus, m: dict) -> dict:
    """`dominant_below` at m in the window torus yt, keyed by the (p, i)-sorted
    items of each dominant monomial."""
    below = dominant_below(yt.key(m), lambda k: standard_tchar(yt, yt.monomial_of(k)))
    return {monomial_items(yt.monomial_of(k)): x for k, x in below.items()}


def sort_key(m: dict) -> tuple:
    """Lex key of an exponent map over the variable axis ordered by (p, i),
    the order the window keys must follow; addition-compatible.  Item
    ((i,p), e) with sign s is the token (s, -s p, -s i, e) and (0,) ends the
    tuple, so at the first differing item the larger exponent at the earlier
    variable wins."""
    items = monomial_items(m)
    sg = [1 if e > 0 else -1 for _, e in items]
    return tuple((s, -s * p, -s * i, e) for s, ((i, p), e) in zip(sg, items)) + ((0,),)


def on_positions(cat: CategoryQ, y):
    """An element of a window torus whose monomials all sit on the positions
    of the orientation, rewritten in the rank-r torus (raises on any other
    monomial)."""
    return cat.xt.element((cat.avec_of(m), c) for m, c in boundary_terms(y))


def reference_product(x, y, pairing=None):
    """x * y by the unpacked route: exponent maps (collected by their sorted
    items) or exponent vectors, multiplied one pair of terms at a time and
    paired by `pairing` (default the torus's reference `pair2`)."""
    ctx = x.ctx
    pairing = pairing or ctx.pair2
    window = isinstance(ctx, YTorus)
    out = {}
    for k1, c1 in boundary_terms(x):
        for k2, c2 in boundary_terms(y):
            k = monomial_items(mon(k1, k2)) if window else tuple(map(add, k1, k2))
            c = (c1 * c2).shift(pairing(k1, k2))
            out[k] = out[k] + c if k in out else c
    return ctx.element((dict(k) if window else k, c) for k, c in out.items())


def form(ctx, key: int) -> int:
    """The form of a key, sum_k (a^T M)_k 2^(W k) for a its exponent vector,
    recomputed digit by digit from the Gram matrix: the oracle for the forms
    that keys carry through products and quotients."""
    a = ctx.exponents(key)
    return sum(sum(e * row[k] for e, row in zip(a, ctx.gram)) << (ctx.W * k) for k in range(ctx.n))


def digit_loop(ctx, key: int) -> tuple[int, ...]:
    """The exponent vector of a key, one W-bit digit at a time: the reference
    read-back, kept by tests alone, against which the one `struct` call of
    `QuantumTorus.exponents` is checked."""
    u = key + ctx._bias
    return tuple(((u >> s) & ctx.mask) - ctx.half for s in ctx._place)


def reference_divide_right(s, p):
    """`torus.divide_right` with its original step: each quotient term c X^qk
    is subtracted as the product of a one-term element and p, through
    `TorusElement._convolve` and its checks."""
    ctx = s.ctx
    if p.is_zero():
        raise ZeroDivisionError("division by zero torus element")
    if s.is_zero():
        return ctx.zero()
    cs, cp = (list(zip(*map(ctx.exponents, x.terms))) for x in (s, p))
    lo = [min(a) - min(b) for a, b in zip(cs, cp)]
    hi = [max(a) - max(b) for a, b in zip(cs, cp)]
    bq = sum(max(abs(a), abs(b)) for a, b in zip(lo, hi))
    rl1 = max(s.l1, bq + p.l1) + p.l1
    if rl1 + bq >= ctx.half or ctx.mmax * rl1 * p.l1 >= ctx.half:
        raise ResourceCap(f"torus division leaves the {ctx.W}-bit key digits")
    lo_key, hi_key = (sum(e << w for e, w in zip(v, ctx._place)) for v in (lo, hi))
    lead_p = p.leading_key()
    f_lead, c_lead = p.forms[lead_p], p.terms[lead_p]
    rem = {k: dict(c.c) for k, c in s.terms.items()}
    rforms = dict(s.forms)
    heap = [-k for k in rem]
    heapq.heapify(heap)
    quot, qforms = {}, {}
    while heap:
        lk = -heapq.heappop(heap)
        if lk not in rem:
            continue
        if len(quot) >= torus.MAX_QUOTIENT_TERMS:
            raise ResourceCap(f"torus division passed {torus.MAX_QUOTIENT_TERMS} quotient terms")
        qk, fq = lk - lead_p, rforms[lk] - f_lead
        c = HalfLaurent(rem[lk]).shift(-ctx.pair(fq, lead_p)).exact_div(c_lead)
        if c is None:
            raise ArithmeticError("torus division is not exact (coefficient step)")
        if not (ctx.is_dominant(qk - lo_key) and ctx.is_dominant(hi_key - qk)):
            raise ArithmeticError("torus division is not exact (quotient key outside its box)")
        quot[qk], qforms[qk] = c, fq
        step = TorusElement._of(ctx, {qk: c}, {qk: fq}, bq) * p
        for k, w in step.terms.items():
            if k not in rem:
                rem[k] = {}
                rforms[k] = step.forms[k]
                heapq.heappush(heap, -k)
            r = rem[k]
            for e, v in w.c.items():
                r[e] = r.get(e, 0) - v
                if not r[e]:
                    del r[e]
            if not r:
                del rem[k]
    return TorusElement._of(ctx, quot, qforms, bq)


def reference_relation_failures(cartan, levels, gen, qcomm, boson) -> list[tuple]:
    """The relation table of `presentation.relation_failures` with one nested
    commutator per ordered pair: the Serre row (i, j) is
    [x_i, [x_i, x_j]_t]_{t^-1}, and [x_i, x_j] is computed again for (j, i)."""
    a = cartan.cartan_matrix()
    failures = []
    for m in levels:
        for p in (p for p in levels if p >= m):
            for i in cartan.vertices:
                for j in cartan.vertices:
                    xi, xj = gen(i, m), gen(j, p)
                    if p > m:
                        res = qcomm(xi, xj, 2 * (-1) ** (p - m) * a[i - 1][j - 1])
                        bad = res != boson if p == m + 1 and i == j else bool(res)
                    elif i == j:
                        continue
                    elif cartan.adjacent(i, j):
                        bad = bool(qcomm(xi, qcomm(xi, xj, 2), -2))
                    else:
                        bad = bool(qcomm(xi, xj, 0))
                    if bad:
                        family = "R1" if p == m else "R2" if p == m + 1 else "R3"
                        failures.append((family, m, p, i, j))
    return failures


def neg(x: dict) -> dict:
    """-x in the derived Hall algebra: every coefficient negated."""
    return {w: -c for w, c in x.items()}


def bar(x):
    """Coefficientwise t^(1/2) -> t^(-1/2) on a torus element: the ring
    anti-automorphism fixing basis monomials."""
    return x._with({k: c.conj() for k, c in x.terms.items()})


def truncate(cat: CategoryQ, x):
    """Restriction of an element of a window torus to the positions of cat,
    as an element of its rank-r torus."""
    index = cat.index_of_position
    return cat.xt.element((cat.avec_of(m), c) for m, c in boundary_terms(x) if all(v in index for v in m))


def power(m: dict, n: int) -> dict:
    """The monomial m^n."""
    return {k: n * e for k, e in m.items() if n}


def verify_inverse(qc, m_max: int) -> tuple[bool, tuple | None]:
    """Check C(z) * table = identity through z^m_max on the inverse quantum
    Cartan table of qc; returns a witness on failure."""
    n = qc.cartan.n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for m in range(0, m_max + 1):
                lhs = qc.ctilde(i, j, m - 1) + qc.ctilde(i, j, m + 1)
                for k in qc.cartan.neighbors(i):
                    lhs -= qc.ctilde(k, j, m)
                want = 1 if (i == j and m == 0) else 0
                if lhs != want:
                    return False, (i, j, m, lhs, want)
    return True, None


def beta_of(cat: CategoryQ, a):
    """sum_k a_k beta_k on the adapted word of cat, on the simple roots."""
    return root_sum(cat.roots, a)


def tau_inv(quiver, b):
    """The inverse of the Coxeter transformation tau of the quiver."""
    return quiver.cartan.apply_word(quiver.tau_word[::-1], b)


def flag_exponent(cartan, word: AdaptedWord, k: int, l: int) -> int:
    """(varpi_{i_k} - lambda_k, varpi_{i_l} + lambda_l), lambda_k = mu(k, i_k) =
    varpi_{i_k} - x(k, i_k): the pairing (r, 2 varpi_j - x) = 2 r_j - r^T C x
    with r = x(k, i_k), j = i_l and x = x(l, i_l)."""
    r, j = word.sums[k][word.word[k - 1] - 1], word.word[l - 1]
    return 2 * r[j - 1] - cartan.sprod(r, word.sums[l][j - 1])


def reflect_weight(cartan, i: int, w):
    """The oracle for the root-lattice routes: s_i on fundamental-weight
    coordinates subtracts w_i times row i of C, the coordinates of alpha_i."""
    return tuple(x - w[i - 1] * c for x, c in zip(w, cartan.cartan_matrix()[i - 1]))


def a_monomial(cartan, i: int, p: int) -> dict:
    """The exchange monomial A_{i,p} = Y_{i,p+1} Y_{i,p-1} prod_{j~i} Y_{j,p}^-1."""
    exps = {(i, p + 1): 1, (i, p - 1): 1}
    for j in cartan.neighbors(i):
        exps[(j, p)] = exps.get((j, p), 0) - 1
    return exps


def reference_a_solve(yt: YTorus, ratio: dict):
    """`YTorus.a_solve` by its original route: the same top-down solve, then
    the product of the A's rebuilt and compared with ratio, which decides
    every row the solve never imposed."""
    if not ratio:
        return {}
    cd, top, bot = yt.cartan, max(p for _, p in ratio), min(p for _, p in ratio)
    v = {}
    for u in range(top, bot - 1, -1):
        for j in cd.vertices:
            near = sum(v.get((k, u), 0) for k in cd.neighbors(j))
            v[j, u - 1] = ratio.get((j, u), 0) - v.get((j, u + 1), 0) + near
    v = {k: c for k, c in v.items() if c}
    rebuilt = mon(*(power(a_monomial(cd, j, s), c) for (j, s), c in v.items()))
    return v if rebuilt == ratio else None


def in_tinv_ztinv(c) -> bool:
    """True iff the Laurent coefficient c lies in t^-1 Z[t^-1]."""
    return all(e <= -2 for e in c.c)


def order_depth(keys, leq):
    """A linear extension of the order leq on keys, as a depth map: the number
    of other keys above each key, which grows strictly down the order."""
    return {k: sum(leq(k, o) for o in keys if o != k) for k in keys}


def four_coefficient_n(qc, i: int, p: int, j: int, s: int) -> int:
    """N(i,p;j,s) straight from the inverse quantum Cartan coefficients."""
    c = qc.ctilde
    return c(i, j, p - s - 1) - c(i, j, p - s + 1) - c(i, j, s - p - 1) + c(i, j, s - p + 1)


def all_orientations(name: str):
    """Every orientation of the diagram, as QuiverDatum values."""
    cd = cartan_datum(name)
    edges = cd.edges
    for flips in itertools.product((False, True), repeat=len(edges)):
        arrows = [(b, a) if f else (a, b) for (a, b), f in zip(edges, flips)]
        yield QuiverDatum.from_arrows(cd, arrows)


def perturb_euler(monkeypatch, d, e, by=2):
    """Patch `AdaptedWord.euler` so that its entry <d, e>, on the roots d and
    e, is off by `by` on every word built after the patch; `AdaptedWord.hom`
    reads the patched table."""
    real = AdaptedWord.euler.func

    def euler(word):
        return tuple(
            tuple(x + by * (s == d and t == e) for t, x in zip(word.roots, row))
            for s, row in zip(word.roots, real(word))
        )

    monkeypatch.setattr(AdaptedWord, "euler", property(euler))


def orientations_and_bipartites():
    """Every orientation of A1-A5, D4 and D5, then the bipartite quiver of
    every supported type."""
    for name in ("A1", "A2", "A3", "A4", "A5", "D4", "D5"):
        yield from all_orientations(name)
    for kind, n in sorted(SUPPORTED):
        yield QuiverDatum.bipartite(CartanDatum(kind, n))


def expand_by_monomials(yt: YTorus, x, basis: dict) -> dict:
    """`expand_in_dominant_basis` of an element of the window torus yt over a
    basis keyed by the sorted items of dominant monomials, in the Nakajima
    order; the coefficients come back keyed the same way."""
    depth = order_depth(list(basis), lambda a, b: yt.nakajima_leq(dict(a), dict(b)))
    coeffs = expand_in_dominant_basis(
        x,
        {yt.key(dict(m)): b for m, b in basis.items()},
        {yt.key(dict(m)): d for m, d in depth.items()},
    )
    return {monomial_items(yt.monomial_of(k)): c for k, c in coeffs.items()}


# --------------------------------------------------------------------------
# brute force over homomorphisms: the reference for the Hall side's formulas
# --------------------------------------------------------------------------


def nullspace_basis(F, rows, nvars: int):
    """Basis of the right nullspace of the matrix given by rows: one vector
    per free column of its reduced row echelon form."""
    red, pivots = rref(rows, F)
    basis = []
    for fc in (c for c in range(nvars) if c not in pivots):
        v = [0] * nvars
        v[fc] = 1
        for row, pc in zip(red, pivots):
            v[pc] = F.sub(0, row[fc])
        basis.append(tuple(v))
    return basis


def hom_basis(M, N):
    """Basis of Hom(M, N): tuples of per-vertex matrices, solving the hom
    equations of the library."""
    rows, total = _hom_equations(M, N)
    offsets = list(itertools.accumulate((a * b for a, b in zip(M.dims, N.dims)), initial=0))[:-1]
    out = []
    for vec in nullspace_basis(M.F, rows, total):
        out.append(tuple(
            tuple(tuple(vec[o + r * M.dims[v] + c] for c in range(M.dims[v])) for r in range(N.dims[v]))
            for v, o in enumerate(offsets)
        ))
    return out


def hom_elements(F, basis, shapes):
    """All elements of a hom space given a basis; shapes = per-vertex (rows, cols).
    The multiples c b are flat integer tuples, and the partial sums of the
    coefficient tuples are kept as itertools.product advances.  Entries add as
    integers (GF(4) encodings by XOR), reduced mod q as the matrices are cut."""
    q, n = F.q, len(basis)
    plus = xor if q == 4 else add
    flats = [[x for mat in b for row in mat for x in row] for b in basis]
    mults = [[tuple(F.mul(c, x) for x in f) for c in F.elements()] for f in flats]
    cuts, o = [], 0
    for rows, cols in shapes:
        cuts.append([(o + r * cols, o + (r + 1) * cols) for r in range(rows)])
        o += rows * cols
    sums = [(0,) * o] * (n + 1)
    prev = (-1,) * n
    for combo in itertools.product(range(q), repeat=n):
        # the partial sums from the first changed factor on are stale
        for j in range(next((j for j in range(n) if combo[j] != prev[j]), n), n):
            sums[j + 1] = tuple(map(plus, sums[j], mults[j][combo[j]]))
        prev = combo
        yield tuple(tuple(tuple(x % q for x in sums[n][a:b]) for a, b in rows) for rows in cuts)


def mat_mul(F, A, B):
    cols = list(zip(*B))
    return tuple(tuple(functools.reduce(F.add, map(F.mul, row, col), 0) for col in cols) for row in A)


def homs(M, N):
    """Every element of Hom(M, N)."""
    shapes = [(b, a) for a, b in zip(M.dims, N.dims)]
    return hom_elements(M.F, hom_basis(M, N), shapes)


def aut_by_enumeration(M) -> int:
    """|Aut M|: the endomorphisms invertible at every vertex."""
    return sum(
        all(mat_rank(M.F, f[v]) == d for v, d in enumerate(M.dims)) for f in homs(M, M)
    )


def uscalar(q: int, coeffs=()):
    """sum_k coeffs[k] x^k in Q[x]/(x^4 - q), x = u^(1/2), from rational
    coefficients: the Laurent polynomial sum_k (coeffs[k] L) t^(k/2) over L,
    L the lcm of their denominators, taken into the ring by `specialize`."""
    fr = [Fraction(c) for c in coeffs]
    den = lcm(*(f.denominator for f in fr))
    return specialize(q, HalfLaurent({k: int(f * den) for k, f in enumerate(fr)}), den)


def inverse(x):
    """The inverse of the scalar x in Q[x]/(x^4 - q), a reference the library
    does not need: the solution y of x y = 1 by elimination over Q on the
    multiplication matrix of x, whose entry (k, j) is the coefficient of X^k in
    x X^j (X^4 = q).  Raises ZeroDivisionError when that matrix is singular,
    that is, when x is a zero divisor."""
    q, a = x.q, [Fraction(c, x.d) for c in x.n]
    rows = [[a[k - j] if k >= j else q * a[k - j + 4] for j in range(4)] + [Fraction(k == 0)] for k in range(4)]
    for c in range(4):
        p = next((r for r in range(c, 4) if rows[r][c]), None)
        if p is None:
            raise ZeroDivisionError("not a unit")
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(4):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    return uscalar(q, [row[4] for row in rows])


def upow(q: int, k: int):
    """u^k in Q[x]/(x^4 - q), the specialization of t^k."""
    return specialize(q, HalfLaurent.t_power(2 * k))


def iso(quiver, mults=()) -> tuple[int, ...]:
    """The isoclass with the given multiplicities, keyed by simple-root
    coordinates, as the Hall side keys it: its vector on the roots of the
    adapted word of `quiver`."""
    cd = quiver.cartan
    roots = AdaptedWord.build(quiver).roots
    mults = dict(mults)
    if not set(mults) <= set(roots):
        raise ValueError(f"{sorted(set(mults) - set(roots))} are not roots of {cd.kind}{cd.n}")
    return tuple(mults.get(r, 0) for r in roots)


def exact_sequence_count(quiver, q: int, X, Y, T, W) -> int:
    """The number of exact sequences 0 -> T -> Y -> X -> W -> 0 of the model
    representations, by enumerating every triple of homomorphisms.  The
    triples are counted per middle map g, as (f with g f = 0) times
    (h with h g = 0)."""
    F = GF(q)
    RT, RY, RX, RW = map(hall.DerivedHall(AdaptedWord.build(quiver), q).model, (T, Y, X, W))
    dT, dY, dW = RT.dims, RY.dims, RW.dims
    vertices = range(quiver.cartan.n)

    def ranks(maps, want):
        return [m for m in maps if all(mat_rank(F, m[v]) == want[v] for v in vertices)]

    def zero_product(a, b):
        return all(not any(map(any, mat_mul(F, a[v], b[v]))) for v in vertices)

    # on a balanced quadruple (dim T - dim Y + dim X - dim W = 0), rank f =
    # dim T, rank g = dim Y - dim T and rank h = dim W = dim X - rank g make
    # the sequence exact once g f = 0 and h g = 0
    monos = ranks(homs(RT, RY), dT)
    middles = ranks(homs(RY, RX), [y - t for y, t in zip(dY, dT)])
    epis = ranks(homs(RX, RW), dW)
    count = 0
    for g in middles:
        before = sum(zero_product(g, f) for f in monos)
        if before:
            count += before * sum(zero_product(h, g) for h in epis)
    return count
