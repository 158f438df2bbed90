"""q-characters of quantum loop algebra modules and their t-deformations.

The t-character of a fundamental module is computed by the t-deformed
Frenkel-Mukhin algorithm, reading monomials in order of increasing depth (the
number of exchange monomials A_{j,s}^-1 applied to the top), with coefficients
in N[t^(+-1/2)]: at each vertex j the part of a monomial's coefficient not yet
coloured j is j-dominant and expands into its sl2 simple t-character.  All
monomials stay in the spectral window [p, p+h]; a character past
MAX_FM_MONOMIALS monomials is a resource cap.  Its value at t = 1 is the
classical q-character.

Standard classes are ordered products of fundamental ones, built one factor at
a time and normalized at the labelling monomial (`ordered_product`).  Simple
classes are the unique bar-invariant elements unitriangular with strictly
negative t-powers over the standard basis, solved by Lusztig's lemma once per
weight space in an order that extends the Nakajima order.  The standard classes
a simple class involves, full or truncated, are those at the dominant keys of
the standard classes themselves, collected from its label until no new one
appears; their coefficients are positive, so none cancels out of a product.

Truncated characters live in the rank-r torus attached to an orientation,
keyed by exponent vectors over the positions of the index set.  That torus is
the subtorus of the Y-variables at those positions: the two Gram matrices are
equal, which is checked once per orientation.  Truncated fundamental classes
are truncated t-characters; the quantum T-system, a downward recursion seeded
with the single-monomial Kirillov-Reshetikhin classes whose spectral support
reaches the height function, is an independent route to them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable

from .cartan import CartanDatum, RankMismatch, ResourceCap, kostant_partitions, root_sum
from .laurent import ONE, HalfLaurent
from .qcartan import QuantumCartan, quantum_cartan
from .quiver import QuiverContext
from .torus import MAX_PRODUCT_PAIRS, TorusElement, XTorus, YTorus, divide_right, monomial_items, render_monomial


class CharacterError(RuntimeError):
    pass


# --------------------------------------------------------------------------
# sl2 building blocks
# --------------------------------------------------------------------------


def string_decomposition(positions: dict[int, int]) -> list[tuple[int, int]]:
    """Split a multiset of spectral parameters into q-strings in general
    position, the unique family no two of which merge into a longer string:
    from the least parameter left, peel the longest string it starts.

    A string is (start, length), covering start, start+2, ..., start+2(len-1).
    """
    left = {s: c for s, c in positions.items() if c > 0}
    strings: list[tuple[int, int]] = []
    while left:
        a = s = min(left)
        while s in left:
            left[s] -= 1
            if not left[s]:
                del left[s]
            s += 2
        strings.append((a, (s - a) // 2))
    return sorted(strings)


@lru_cache(maxsize=None)
def sl2_simple_patterns(dominant: tuple[tuple[int, int], ...]) -> dict[tuple[int, ...], HalfLaurent]:
    """Monomials of the sl2 simple t-character with the dominant part given as
    sorted (position, exponent) pairs, encoded as exchange-inverse patterns: a
    sorted tuple of positions s where A_s^-1 is applied, with multiplicity,
    mapped to its coefficient.  It is the ordered product of the thin string
    characters (every coefficient 1), normalized at its top: a tuple of ladder
    steps with string monomials m_a carries t^(1/2 sum_{a<b} pair(m_a, m_b)).
    The A_{j,s} pair with the j-part of a monomial only, alike in every type,
    so the pairing is read in the A1 window torus, on exponent maps."""
    pair = YTorus(quantum_cartan(CartanDatum("A", 1))).pair2
    # pattern -> (the product of its string monomials, coefficient)
    patterns = {(): ({}, ONE)}
    for a, k in string_decomposition(dict(dominant)):
        # after j steps down the string: Y_a ... Y_{a+2(k-j-1)} Y_{a+2(k-j+1)}^-1 ... Y_{a+2k}^-1
        ladder = [
            (tuple(a + 2 * (k - c) - 1 for c in range(j)),
             {(1, a + 2 * c + 2 * (c >= k - j)): 1 - 2 * (c >= k - j) for c in range(k)})
            for j in range(k + 1)
        ]
        new: dict[tuple[int, ...], tuple[dict, HalfLaurent]] = {}
        for pat, (m, c) in patterns.items():
            for step, ms in ladder:
                key = tuple(sorted(pat + step))
                w = c.shift(pair(m, ms))
                new[key] = ({v: m.get(v, 0) + ms.get(v, 0) for v in m | ms}, new[key][1] + w if key in new else w)
        patterns = new
    norm = -patterns[()][1].max_exp2()
    return {pat: c.shift(norm) for pat, (_, c) in patterns.items()}


# --------------------------------------------------------------------------
# the Frenkel-Mukhin algorithm for fundamental characters
# --------------------------------------------------------------------------


MAX_FM_MONOMIALS = 50000


@lru_cache(maxsize=None)
def _fm_base(kind: str, n: int, i0: int) -> dict[tuple, HalfLaurent]:
    """The t-deformed Frenkel-Mukhin algorithm at (i0, 0), reading monomials
    by depth, each keyed by `monomial_items` of its exponent map.

    A monomial m's colouring s_j(m) sums the coefficients of the j-strings it
    lies on; its coefficient, 1 at the top, is s_j(m) at every j where m is not
    j-dominant, and must be bar-invariant and positive.  Every string that
    reaches m starts higher up, so its colourings are final when m is read;
    the part of its coefficient not yet coloured j expands into the sl2 simple
    t-character at j.  The result is checked once, for every shift of it: its
    one dominant monomial is the top Y_{i0,0}, and its one antidominant
    monomial is Y_{nu(i0),h}^-1."""
    cd = CartanDatum(kind, n)
    cd._check_vertex(i0)
    h = cd.coxeter_number()
    # the items of A_{j,s}^-1 = Y_{j,s-1}^-1 Y_{j,s+1}^-1 prod_{k~j} Y_{k,s}
    ainv = {(j, s): [((j, s - 1), -1), ((j, s + 1), -1), *(((k, s), 1) for k in cd.neighbors(j))]
            for j in cd.vertices for s in range(1, h)}
    top = (((i0, 0), 1),)
    chi: dict[tuple, HalfLaurent] = {}
    # colours[m][j]: the colouring s_j(m) so far, a map doubled exponent -> integer
    colours: dict[tuple, dict[int, dict[int, int]]] = {top: {}}
    levels = [[top]]  # levels[d]: the monomials found at depth d
    for depth, level in enumerate(levels):
        for m in level:
            col = colours.pop(m)
            jparts: dict[int, list[tuple[int, int]]] = {j: [] for j in cd.vertices}
            for (j, u), e in m:
                jparts[j].append((u, e))
            reads = {HalfLaurent(col.get(j)) for j, part in jparts.items() if any(e < 0 for _, e in part)}
            if depth and len(reads) != 1:
                raise CharacterError(f"{render_monomial(dict(m))} has {len(reads)} colourings where it is not dominant")
            coeff = chi[m] = reads.pop() if depth else ONE
            if not (coeff.is_symmetric() and coeff.is_nonnegative()):
                raise CharacterError(
                    f"coefficient {coeff.render()} of {render_monomial(dict(m))} is not bar-invariant and positive"
                )
            for j, part in jparts.items():
                if not part:
                    continue  # its sl2 character is m alone
                c = dict(coeff.c)
                for e, v in col.get(j, {}).items():
                    c[e] = c.get(e, 0) - v
                c = [(e, v) for e, v in c.items() if v]
                if not c:
                    continue
                for pat, k in sl2_simple_patterns(tuple(part)).items():
                    if not pat:
                        continue  # m itself, the top of its strings
                    if any(not (0 < s < h) for s in pat):
                        raise CharacterError(
                            f"exchange position escaped the spectral window at {render_monomial(dict(m))}"
                        )
                    exps = dict(m)
                    for s in pat:
                        for v, e in ainv[j, s]:
                            exps[v] = exps.get(v, 0) + e
                    m2 = monomial_items(exps)
                    if m2 not in colours:
                        if len(chi) + len(colours) >= MAX_FM_MONOMIALS:
                            raise ResourceCap(
                                f"fundamental character of {kind}{n} at node {i0} "
                                f"passed {MAX_FM_MONOMIALS} monomials"
                            )
                        colours[m2] = {}
                        while len(levels) <= depth + len(pat):
                            levels.append([])
                        levels[depth + len(pat)].append(m2)
                    w = colours[m2].setdefault(j, {})
                    for e1, v1 in c:
                        for e2, v2 in k.c.items():
                            w[e1 + e2] = w.get(e1 + e2, 0) + v1 * v2
    doms = [m for m in chi if all(e >= 0 for _, e in m)]
    if doms != [top]:
        doms = [render_monomial(dict(m)) for m in doms]
        raise CharacterError(f"fundamental at ({i0},0) has unexpected dominant set {doms}")
    anti = [m for m in chi if all(e <= 0 for _, e in m)]
    if anti != [(((cd.nu(i0), h), -1),)]:
        anti = [render_monomial(dict(m)) for m in anti]
        raise CharacterError(f"fundamental at ({i0},0) has unexpected antidominant set {anti}")
    return chi


def fundamental_tchar(yt: YTorus, i: int, p: int) -> TorusElement:
    """The t-character of the fundamental module at (i, p): the checked base
    of `_fm_base`, shifted to p, its keys and forms packed straight from the
    base's (j, q), e items."""
    cd = yt.cartan
    index, place, rows = yt.index, yt._place, yt._rows
    terms, forms, l1 = {}, {}, 0
    try:
        for m, c in _fm_base(cd.kind, cd.n, i).items():
            key = form = norm = 0
            for (j, q), e in m:
                k = index[j, q + p]
                key += e << place[k]
                form += e * rows[k]
                norm += abs(e)
            terms[key], forms[key], l1 = c, form, max(l1, norm)
    except KeyError as exc:
        raise ValueError(f"variable Y{list(exc.args[0])} is outside the torus window") from None
    if l1 >= yt.half:
        raise ResourceCap(f"a monomial of L1 norm {l1} does not fit the {yt.W}-bit key digits")
    return TorusElement._of(yt, terms, forms, l1)


def fundamental_window(qc: QuantumCartan, points) -> YTorus:
    """The window torus on every variable of the fundamental characters at
    the given points (i, p)."""
    cd = qc.cartan
    return YTorus(
        qc, {(j, q + p) for i, p in points for m in _fm_base(cd.kind, cd.n, i) for (j, q), _ in m}
    )


# --------------------------------------------------------------------------
# quantum T-system exponents
# --------------------------------------------------------------------------


def tsystem_exponents(qc: QuantumCartan, i: int, k: int) -> tuple[Fraction, Fraction]:
    """(alpha, gamma) with gamma = alpha + 1, entering the deformed T-system."""
    if k < 1:
        raise ValueError("T-system level must be >= 1")
    a = Fraction(-1) + Fraction(qc.ctilde(i, i, 2 * k - 1) + qc.ctilde(i, i, 2 * k + 1), 2)
    return a, a + 1


# --------------------------------------------------------------------------
# standard and simple classes in the full torus
# --------------------------------------------------------------------------


def ordered_product(memo: dict, a: tuple, gen: Callable, labels: list, keep: bool = True) -> TorusElement:
    """X(a) = gen(0)^a_0 ... gen(r-1)^a_(r-1) normalized so that its label, the
    key sum_k a_k labels[k], carries coefficient exactly 1; `memo` maps exponent
    vectors to X and holds X(0) = 1, and with `keep` every product built on the
    way is stored in it (without, only the running product is held).  For the
    last k with a_k > 0 and b = a - e_k, X(a) = t^(-<b, e_k>/2) X(b) gen(k),
    <b, e_k> the torus pairing of the labels of X(b) and gen(k), which carry 1
    and alone reach the label of a.  Every step's range test runs on the L1
    bounds before the first product, so one past the key digits builds nothing."""
    chain, b = [], a  # the indices stripped from a, last one first, down to a memoised vector
    while b not in memo:
        k = max(j for j, x in enumerate(b) if x > 0)
        chain.append(k)
        b = b[:k] + (b[k] - 1,) + b[k + 1 :]
    x, key = memo[b], sum(c * labels[j] for j, c in enumerate(b) if c)
    gens = {k: gen(k) for k in chain}
    l1 = x.l1
    for k in reversed(chain):
        x.ctx.check_range(l1, gens[k].l1)
        l1 += gens[k].l1
    for k in reversed(chain):
        x = x.mul_shift(gens[k], -x.ctx.pair(x.forms[key], labels[k]))
        key, b = key + labels[k], b[:k] + (b[k] + 1,) + b[k + 1 :]
        if not x.coeff(key).is_one():
            raise CharacterError(f"the ordered product at {b} does not carry coefficient 1 at its label")
        if keep:
            memo[b] = x
    return x


def standard_tchar(yt: YTorus, m: dict) -> TorusElement:
    """t-character of the standard module at the dominant monomial m: the
    ordered product, top level leftmost and ties by vertex, of the fundamental
    t-characters at the points of m, normalized at m; no prefix of it is kept."""
    if any(e < 0 for e in m.values()):
        raise ValueError("standard modules are labelled by dominant monomials")
    points = sorted(m, key=lambda ip: (-ip[1], ip[0]))
    fundamentals = [fundamental_tchar(yt, i, p) for i, p in points]
    labels = [yt.key({v: 1}) for v in points]
    a = tuple(m[v] for v in points)
    return ordered_product({(0,) * len(a): yt.one()}, a, fundamentals.__getitem__, labels, keep=False)


def dominant_below(key: int, standard: Callable[[int], TorusElement]) -> dict[int, TorusElement]:
    """The standard class at every dominant key the simple class at `key` can
    involve, in either torus and unsorted: the closure of {key} under the
    dominant keys (`ctx.is_dominant`) of the classes `standard` builds.  Their
    coefficients lie in N[t^(+-1/2)], so none cancels out of a product.  A bar
    defect lies in the span of its class's closure, so by Lusztig's lemma the
    solve over the closure has the simple class as its row at `key`."""
    std, todo = {key: standard(key)}, [key]
    while todo:
        x = std[todo.pop()]
        for k in filter(x.ctx.is_dominant, x.terms):
            if k not in std:
                std[k] = standard(k)
                todo.append(k)
    return std


def expand_in_dominant_basis(x: TorusElement, basis: dict, depth: dict) -> dict:
    """Expansion of x over a family of elements each having a distinguished
    dominant key with unit coefficient and all other dominant keys deeper, by
    `depth` (basis key -> integer growing strictly down the order).  Peeling
    the present dominant key of least depth adds only deeper keys."""
    is_dominant = x.ctx.is_dominant
    coeffs: dict = {}
    rem = dict(x.terms)
    while rem:
        doms = [k for k in rem if is_dominant(k)]
        if not doms:
            raise CharacterError("element is not in the span of the given basis")
        for k in doms:
            if k not in basis:
                raise CharacterError(f"dominant key {k} missing from the basis")
        kstar = min(doms, key=depth.__getitem__)
        if kstar in coeffs:
            raise CharacterError("basis is not triangular in depth")
        c = rem[kstar].exact_div(basis[kstar].coeff(kstar))
        if c is None:
            raise CharacterError("expansion coefficient is not Laurent")
        coeffs[kstar] = c
        # peel c * basis[kstar] off the remainder in place
        neg = -c
        for k, v in basis[kstar].terms.items():
            s = rem[k] + v * neg if k in rem else v * neg
            if s.is_zero():
                rem.pop(k, None)
            else:
                rem[k] = s
    return coeffs


def bar_invariant_correction(basis: dict, depth: dict) -> dict:
    """The rows of P in the bar-invariant L_a = sum_b P_ab M_b, for every key
    a of one weight space (basis and depth as in `expand_in_dominant_basis`):
    {a: {b: P_ab}} with P_aa = 1, P_ab in t^(-1/2) Z[t^(-1/2)] otherwise and
    no zero entry.  By Lusztig's lemma: with bar(M_c) - M_c = sum_{b<c} d_cb
    M_b, expanded once per c, the rows solve P_ab - bar(P_ab) =
    sum_{b<c<=a} bar(P_ac) d_cb down the depth order.  `combine` builds L_a
    from its row."""
    order = sorted(basis, key=depth.__getitem__)
    defect = {}
    for c in order:
        x = basis[c]
        delta = {k: w.conj() - w for k, w in x.terms.items() if not w.is_symmetric()}
        d = expand_in_dominant_basis(TorusElement(x.ctx, delta, x.forms, x.l1), basis, depth)
        if any(depth[b] <= depth[c] for b in d):
            raise CharacterError("bar defect is not strictly triangular")
        defect[c] = d
    out = {}
    for n, a in enumerate(order):
        row = {a: ONE}
        acc = dict(defect[a])  # sum_c bar(P_ac) d_cb over the rows c solved so far
        for b in order[n + 1 :]:
            if b not in acc:
                continue  # P_ab = 0
            s = acc.pop(b)
            if not s.is_antisymmetric():
                raise CharacterError("bar defect coefficient is not antisymmetric")
            p = s.negative_part()
            if p:
                row[b] = p
                for b2, d in defect[b].items():
                    acc[b2] = acc.get(b2, HalfLaurent.zero()) + p.conj() * d
        out[a] = row
    return out


def combine(basis: dict, row: dict) -> TorusElement:
    """sum_b P_ab M_b over a row {b: P_ab} of `bar_invariant_correction`.  A
    coefficient 1 takes M_b's coefficients as they are, and the row of M_a
    alone is M_a itself."""
    if len(row) == 1:
        ((b, p),) = row.items()
        if p.is_one():
            return basis[b]
    terms, forms, l1 = {}, {}, 0
    for b, p in row.items():
        x, one = basis[b], p.is_one()
        for k, v in x.terms.items():
            w = v if one else v * p
            terms[k] = terms[k] + w if k in terms else w
        forms.update(x.forms)
        l1 = max(l1, x.l1)
    return TorusElement(x.ctx, terms, forms, l1)


def simple_tchar(yt: YTorus, m: dict) -> TorusElement:
    """t-character of the simple module at m: bar-invariant, unitriangular over
    the standard classes with off-diagonal coefficients in t^-1 Z[t^-1]."""
    lo, hi = (min(p for _, p in m), max(p for _, p in m)) if m else (0, 0)

    def standard(k: int) -> TorusElement:
        m2 = yt.monomial_of(k)
        # A_{i,s}^-1 lowers the levels s +- 1, so only levels strictly
        # inside m's range can gain a variable
        if any(not (lo < p < hi or (i, p) in m) for i, p in m2):
            raise CharacterError(f"dominant {render_monomial(m2)} lies outside the range of {render_monomial(m)}")
        return standard_tchar(yt, m2)

    key = yt.key(m)
    basis = dominant_below(key, standard)
    depth = {k: sum(yt.a_solve(yt.monomial_of(key - k)).values()) for k in basis}
    return combine(basis, bar_invariant_correction(basis, depth)[key])


def simple_window(qc: QuantumCartan, m: dict) -> YTorus:
    """The window torus of `simple_tchar` at m: the fundamental characters at
    the points of m and at every point of m's parity lines strictly between
    min_p m and max_p m, the points a dominant monomial below m can carry.
    The variables of the fundamental character at a point cover every vertex,
    on that point's lines."""
    cd = qc.cartan
    lines = {
        (j, (q + par) % 2)
        for i, par in {(i, p % 2) for i, p in m}
        for m2 in _fm_base(cd.kind, cd.n, i)
        for (j, q), _ in m2
    }
    lo, hi = (min(p for _, p in m), max(p for _, p in m)) if m else (0, 0)
    n = len(lines) * ((hi - lo) // 2 + 1)
    if n * n > MAX_PRODUCT_PAIRS:
        raise ResourceCap(f"the window of {render_monomial(m)} on {n} points passes {MAX_PRODUCT_PAIRS} pairs")
    inner = [(j, q) for j, par in lines for q in range(lo + 1, hi) if q % 2 == par]
    return fundamental_window(qc, [*m, *inner])


# --------------------------------------------------------------------------
# the orientation-attached category: truncation and the T-system recursion
# --------------------------------------------------------------------------


class CategoryQ:
    """Character computations attached to one orientation: the rank-r torus
    on the positions of the index set, truncation into it, truncated classes,
    and Kirillov-Reshetikhin classes by the deformed T-system.

    Elements of the rank-r torus are keyed by exponent vectors a, where a_k is
    the exponent of Y at positions[k]; `avec_of` and `monomial_of_avec`
    exchange a with the exponent map {(i, p): e} of its Y-monomial."""

    def __init__(self, qctx: QuiverContext):
        self.qctx = qctx
        self.quiver = qctx.quiver
        self.cartan = qctx.cartan
        self.qc = quantum_cartan(self.cartan)
        self.positions = qctx.positions
        self.yt = YTorus(self.qc, self.positions)
        self.roots = qctx.word.roots
        self.xt = XTorus(qctx.word.euler)
        self.index_of_position = qctx.index_of_position
        self._kr: dict[tuple[int, int, int], TorusElement] = {}
        self._fundamentals: dict[tuple[int, int], TorusElement] = {}
        self._check_torus_isomorphism()
        self._columns = [self._position_column(k) for k in range(self.xt.r)]
        self._column_depths = [sum(col.values()) for col in self._columns]
        self.labels = [self.xt.key(self.xt.unit_vector(k)) for k in range(1, self.xt.r + 1)]  # keys of the X_k
        self._standards = {(0,) * self.xt.r: self.xt.one()}
        self._depths: dict[tuple[int, ...], dict[int, int]] = {}
        self._words: dict[int, dict[tuple[int, ...], dict[int, HalfLaurent]]] = {}

    def _check_torus_isomorphism(self) -> None:
        """The isomorphism Phi: the Gram matrix of the Y-variables at the
        positions, in k-order, is the signed symmetrized Euler form of the word,
        the Gram matrix of the rank-r torus."""
        idx = [self.yt.index[v] for v in self.positions]
        n, x = [[self.yt.gram[a][b] for b in idx] for a in idx], self.xt.gram
        if n != x:
            k, l = next((k, l) for k, row in enumerate(n) for l, e in enumerate(row) if e != x[k][l])
            raise CharacterError(
                f"pairings disagree at positions {k + 1},{l + 1}: N = {n[k][l]}, X = {x[k][l]}"
            )

    # -- the boundary between Y-monomials and exponent vectors ----------------

    def avec_of(self, m: dict) -> tuple[int, ...]:
        a = [0] * self.xt.r
        for (i, p), e in m.items():
            k = self.index_of_position.get((i, p))
            if k is None:
                raise ValueError(f"variable ({i},{p}) is outside the subtorus")
            a[k - 1] = e
        return tuple(a)

    def monomial_of_avec(self, a) -> dict[tuple[int, int], int]:
        return {self.positions[k]: e for k, e in enumerate(a) if e}

    def root_of(self, a) -> tuple[int, ...]:
        """Root coordinates of sum_k a_k beta_k: the weight space of a."""
        return root_sum(self.roots, a)

    # -- Kirillov-Reshetikhin classes by the T-system ------------------------

    def kr(self, i: int, s: int, p: int) -> TorusElement:
        """Truncated t-character of the Kirillov-Reshetikhin class with s
        factors starting at spectral parameter p."""
        if (i, p) not in self.index_of_position:
            raise ValueError(f"({i},{p}) is outside the subtorus index set")
        if s == 0:
            return self.xt.one()
        xi = self.quiver.xi[i - 1]
        if not 1 <= s <= (xi - p) // 2 + 1:
            raise ValueError(f"level {s} at ({i},{p}) leaves the category")
        key = (i, s, p)
        if key in self._kr:
            return self._kr[key]
        top = p + 2 * s - 2
        if top == xi:
            val = self.xt.monomial(self.avec_of({(i, q): 1 for q in range(p, xi + 1, 2)}))
        else:
            a, g = tsystem_exponents(self.qc, i, s)
            x2, y2 = int(2 * a), int(2 * g)
            left = self.kr(i, s - 1, p + 2) * self.kr(i, s + 1, p)
            rhs = left.tshift(x2)
            prod = None
            for j in self.cartan.neighbors(i):
                f = self.kr(j, s, p + 1)
                prod = f if prod is None else prod * f
            rhs = rhs + prod.tshift(y2)
            val = divide_right(rhs, self.kr(i, s, p + 2))
        self._kr[key] = val
        return val

    def truncated_fundamental(self, i: int, p: int) -> TorusElement:
        """The truncation of the fundamental t-character at the position (i, p); memoised."""
        if (i, p) not in self._fundamentals:
            if (i, p) not in self.index_of_position:
                raise ValueError(f"({i},{p}) is outside the subtorus index set")
            chi = _fm_base(self.cartan.kind, self.cartan.n, i)
            shifted = [({(j, q + p): e for (j, q), e in m}, c) for m, c in chi.items()]
            positions = self.index_of_position.keys()
            self._fundamentals[i, p] = self.xt.element(
                (self.avec_of(m), c) for m, c in shifted if m.keys() <= positions
            )
        return self._fundamentals[i, p]

    def simple_generators(self) -> dict[int, TorusElement]:
        """The truncated fundamental classes at phi^-1(alpha_i, 0): the
        generators of U_q(n) in the torus, one per vertex."""
        phi = self.qctx.phi
        return {i: self.truncated_fundamental(*phi.generator_position(i, 0)) for i in self.cartan.vertices}

    def simple_words(self, length: int) -> dict[tuple[int, ...], dict[int, HalfLaurent]]:
        """Each word of the length in the vertices, in lexicographic order,
        with the coefficients of the product of the `simple_generators` along
        it over the truncated standard classes of its weight space, by
        `expand_in_dominant_basis`.  The coefficients of a length are memoised
        together, stored only once every word is complete.  The products are
        not kept: they cost a quarter of the expansions, and keeping them took
        length 6 on every A3 orientation and field from 50 to 82 MB peak.  So
        a length not yet stored builds every product up to it again, each
        extending its prefix's.  A weight space's standard classes are
        gathered once, since its words all have its length."""
        if length not in self._words:
            gens, xs = self.simple_generators(), {}
            for n in range(1, length + 1):
                words = product(self.cartan.vertices, repeat=n)
                xs = {w: xs[w[:-1]] * gens[w[-1]] if n > 1 else gens[w[-1]] for w in words}
                if n in self._words:
                    continue
                spaces, out = {}, {}
                for word, x in xs.items():
                    d = tuple(map(word.count, self.cartan.vertices))
                    if d not in spaces:
                        spaces[d] = self.standards(self.depths(d))
                    out[word] = expand_in_dominant_basis(x, spaces[d], self.depths(d))
                self._words[n] = out
        return self._words[length]

    # -- dominant monomials and decompositions -------------------------------

    def _position_column(self, k: int) -> dict[tuple[int, int], int]:
        """top(beta_k) Y_pos_k^-1 as a product of A_{i,s}, exponents >= 0, where
        top(d) = prod_i Y_{phi^-1(alpha_i, 0)}^d_i.  The top is multiplicative
        in d, so a row's A-column is sum_k a_k col_k."""
        yt, phi, d = self.yt, self.qctx.phi, self.roots[k]
        top = yt.key({phi.generator_position(i, 0): d[i - 1] for i in self.cartan.vertices if d[i - 1]})
        v = yt.a_solve(yt.monomial_of(top - yt.key({self.positions[k]: 1})))
        if v is None or any(c < 0 for c in v.values()):
            raise CharacterError(f"position {k + 1} is not below the top monomial of its root")
        return v

    def dimension_vector(self, d) -> tuple[int, ...]:
        """d as a tuple, checked to be a dimension vector of the rank."""
        cd = self.cartan
        d = tuple(d)
        if len(d) != cd.n:
            raise RankMismatch(f"dimension vector has {len(d)} entries, {cd.kind}{cd.n} has rank {cd.n}")
        if any(x < 0 for x in d):
            raise ValueError(f"dimension vector {','.join(map(str, d))} has a negative entry")
        return d

    def dominant_pairs(self, d) -> list[dict]:
        """All decompositions of the dimension vector d into positive roots,
        paired with their dominant monomials and exchange-monomial columns, in
        decreasing lexicographic order of the exponent vectors."""
        rows = []
        for a in kostant_partitions(self.roots, self.dimension_vector(d)):
            col: dict[tuple[int, int], int] = {}
            for c, vk in zip(a, self._columns):
                if c:
                    for key, e in vk.items():
                        col[key] = col.get(key, 0) + c * e
            rows.append({"avec": a, "monomial": self.monomial_of_avec(a), "a_column": col})
        return rows

    def depth(self, a) -> int:
        """The sum of a's A-column: linear in a, and growing strictly down the
        Nakajima order inside a weight space."""
        return sum(c * n for c, n in zip(a, self._column_depths))

    def depths(self, d) -> dict[int, int]:
        """The dominant keys of the weight space d, each with its depth, in the
        order of its Kostant partitions.  They depend only on the orientation,
        so each weight space is enumerated once and its dict kept on the
        category, keyed by tuple(d); callers read it and never change it."""
        d = tuple(d)
        if d not in self._depths:
            self._depths[d] = {self.xt.key(a): self.depth(a) for a in kostant_partitions(self.roots, d)}
        return self._depths[d]

    def standards(self, keys) -> dict[int, TorusElement]:
        """The truncated standard class at each dominant key."""
        return {k: self.truncated_standard(self.xt.exponents(k)) for k in keys}

    # -- truncated standard and simple classes -------------------------------

    def _dominant_avec(self, a) -> tuple[int, ...]:
        a = tuple(a)
        if len(a) != self.xt.r or any(e < 0 for e in a):
            raise ValueError(f"expected a dominant exponent vector of length {self.xt.r}")
        return a

    def truncated_standard(self, a) -> TorusElement:
        """The ordered product of the truncated fundamentals at the positions, in
        their order (top level first, ties by vertex), normalized at a; memoised."""
        a = self._dominant_avec(a)
        return ordered_product(
            self._standards, a, lambda k: self.truncated_fundamental(*self.positions[k]), self.labels
        )

    def truncated_simple(self, a) -> TorusElement:
        """Bar-inversion over the truncated standard classes of the closure of
        a (`dominant_below`), by the linear `depth`: row a of that solve."""
        key = self.xt.key(self._dominant_avec(a))
        std = dominant_below(key, lambda k: self.truncated_standard(self.xt.exponents(k)))
        depth = {k: self.depth(self.xt.exponents(k)) for k in std}
        return combine(std, bar_invariant_correction(std, depth)[key])
