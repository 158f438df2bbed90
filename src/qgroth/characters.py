"""q-characters of quantum loop algebra modules and their t-deformations.

The classical q-character of a fundamental module is computed by iterated
sl2-direction expansions: a candidate character is complete when, for every
vertex j, its restriction to each class of monomials differing by exchange
monomials A_{j,s} decomposes as a nonnegative combination of sl2 simple
characters of the class tops.  Fundamental modules have a unique dominant
monomial, which makes the minimal completion unique; all monomials stay in
the spectral window [p, p+h].

Multiplicity-free classical characters lift verbatim to bar-invariant
t-characters (all coefficients 1).  Standard classes are ordered products of
fundamental ones, normalized so the labelling monomial has coefficient 1.
Simple classes are carved out of standard ones by a Kazhdan-Lusztig style
bar-inversion: the unique bar-invariant element that is unitriangular with
strictly negative t-powers over the standard basis.

Truncated characters live in the rank-r torus attached to an orientation,
keyed by exponent vectors over the positions of the index set.  That torus is
the subtorus of the Y-variables at those positions: the two pairings agree
entry by entry, which is checked once per orientation.  Truncated classes are
computed independently through the quantum T-system, by a downward recursion
seeded with the single-monomial Kirillov-Reshetikhin classes whose spectral
support reaches the height function.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from .cartan import CartanDatum, RankMismatch, ResourceCap, Weight
from .laurent import HalfLaurent
from .qcartan import QuantumCartan, quantum_cartan
from .quiver import QuiverContext
from .torus import Monomial, TorusElement, XTorus, YTorus, divide_right


class NonMultiplicityFree(RuntimeError):
    """Raised when a classical character with monomial multiplicities > 1 is
    asked for its t-lift; carries the classical character."""

    def __init__(self, msg: str, classical: dict[Monomial, int]):
        super().__init__(msg)
        self.classical = classical


class CharacterError(RuntimeError):
    pass


# --------------------------------------------------------------------------
# sl2 building blocks
# --------------------------------------------------------------------------


def string_decomposition(positions: dict[int, int]) -> list[tuple[int, int]]:
    """Split a multiset of spectral parameters into the unique family of
    q-strings no two of which can be merged into a longer string.

    A string is (start, length), covering start, start+2, ..., start+2(len-1).
    Merging replaces two mergeable strings by their union interval and (when
    they overlap) their intersection interval.
    """
    strings: list[tuple[int, int]] = []
    for s in sorted(positions):
        strings.extend([(s, 1)] * positions[s])
    while True:
        merged = False
        for x in range(len(strings)):
            for y in range(len(strings)):
                if x == y:
                    continue
                a1, k1 = strings[x]
                a2, k2 = strings[y]
                b1, b2 = a1 + 2 * (k1 - 1), a2 + 2 * (k2 - 1)
                lo, hi = min(a1, a2), max(b1, b2)
                covered = set(range(a1, b1 + 1, 2)) | set(range(a2, b2 + 1, 2))
                if len(covered) != (hi - lo) // 2 + 1:
                    continue  # gap: not mergeable
                length = (hi - lo) // 2 + 1
                if length <= max(k1, k2):
                    continue  # one contains the other (or equal): keep split
                ilo, ihi = max(a1, a2), min(b1, b2)
                repl = [(lo, length)]
                if ilo <= ihi:
                    repl.append((ilo, (ihi - ilo) // 2 + 1))
                strings = [strings[t] for t in range(len(strings)) if t not in (x, y)] + repl
                merged = True
                break
            if merged:
                break
        if not merged:
            return sorted(strings)


def sl2_simple_patterns(positions: dict[int, int]) -> dict[tuple[int, ...], int]:
    """Monomials of the sl2 simple character with the given dominant part,
    encoded as exchange-inverse patterns: a sorted tuple of positions s where
    A_s^-1 is applied, with multiplicity, mapped to its coefficient."""
    patterns: dict[tuple[int, ...], int] = {(): 1}
    for a, k in string_decomposition(positions):
        ladder = []
        for j in range(k + 1):
            ladder.append(tuple(sorted(a + 2 * (k - c) - 1 for c in range(j))))
        new: dict[tuple[int, ...], int] = {}
        for pat, c in patterns.items():
            for step in ladder:
                key = tuple(sorted(pat + step))
                new[key] = new.get(key, 0) + c
        patterns = new
    return patterns


# --------------------------------------------------------------------------
# Frenkel-Mukhin style completion for fundamental characters
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _tree_parity(kind: str, n: int, base: int) -> tuple[int, ...]:
    """Graph distance parity from `base` for every vertex (the diagram is a tree)."""
    cd = CartanDatum(kind, n)
    dist = {base: 0}
    while len(dist) < n:
        for a, b in cd.edges:
            if a in dist and b not in dist:
                dist[b] = dist[a] + 1
            if b in dist and a not in dist:
                dist[a] = dist[b] + 1
    return tuple(dist[v] % 2 for v in cd.vertices)


def _j_gauge(
    cd: CartanDatum, j: int, m: Monomial, var_par: int, hi: int
) -> tuple[Monomial, int]:
    """Canonical representative of m modulo the lattice of A_{j,s}, plus the
    relative depth of m inside its class (larger = further from the top).

    The Y_{j,u} exponents are killed from the top of the window down; u runs
    over the variable-parity line, the gauge exponents sit in between.
    """
    exps = m.exps()
    top = hi + ((var_par - hi) % 2)
    v: dict[int, int] = {}
    for u in range(top, top - 2 * (hi + 3), -2):
        e = exps.get((j, u), 0)
        need = -(e + v.get(u + 1, 0))
        if need:
            v[u - 1] = need
    out = exps
    for s, c in v.items():
        out[(j, s + 1)] = out.get((j, s + 1), 0) + c
        out[(j, s - 1)] = out.get((j, s - 1), 0) + c
        for k in cd.neighbors(j):
            out[(k, s)] = out.get((k, s), 0) - c
    return Monomial(out), sum(v.values())


def fm_classical(cd: CartanDatum, i0: int, p0: int) -> dict[Monomial, int]:
    """Classical q-character of the fundamental module at (i0, p0)."""
    cd._check_vertex(i0)
    base = _fm_base(cd.kind, cd.n, i0)
    return {m.shift_p(p0): c for m, c in base.items()}


@lru_cache(maxsize=None)
def _fm_base(kind: str, n: int, i0: int) -> dict[Monomial, int]:
    cd = CartanDatum(kind, n)
    h = cd.coxeter_number()
    parity = _tree_parity(kind, n, i0)
    chi: dict[Monomial, int] = {Monomial.var(i0, 0): 1}
    for _ in range(20000):
        changed = False
        deferred = False
        for j in cd.vertices:
            var_par = parity[j - 1]
            classes: dict[Monomial, dict[Monomial, tuple[int, int]]] = {}
            for m, mult in chi.items():
                rep, depth = _j_gauge(cd, j, m, var_par, h + 2)
                classes.setdefault(rep, {})[m] = (mult, depth)
            for members in classes.values():
                resid = {m: mult for m, (mult, _) in members.items()}
                depth_of = {m: d for m, (_, d) in members.items()}
                guard = 0
                ok = True
                while True:
                    guard += 1
                    if guard > 5000:
                        raise CharacterError("character completion did not stabilize")
                    pos = [(depth_of[m], m) for m, c in resid.items() if c > 0]
                    if not pos:
                        break
                    _, mu = min(pos, key=lambda t: (t[0], t[1].sort_key()))
                    jpart = {u: e for (jj, u), e in mu.items if jj == j}
                    if any(e < 0 for e in jpart.values()):
                        ok = False  # top of this class not discovered yet
                        break
                    c = resid[mu]
                    for pat, k in sl2_simple_patterns(jpart).items():
                        if any(not (0 < s < h) for s in pat):
                            raise CharacterError(
                                f"exchange position escaped the spectral window at {mu}"
                            )
                        m2 = mu
                        for s in pat:
                            m2 = m2 * _a_inverse(cd, j, s)
                        resid[m2] = resid.get(m2, 0) - c * k
                        if m2 not in depth_of:
                            _, d2 = _j_gauge(cd, j, m2, var_par, h + 2)
                            depth_of[m2] = d2
                if not ok:
                    deferred = True
                    continue
                for m2, d in resid.items():
                    if d < 0:
                        chi[m2] = chi.get(m2, 0) + (-d)
                        changed = True
                    elif d > 0:
                        raise CharacterError("inconsistent sl2 decomposition")
        if not changed:
            if deferred:
                raise CharacterError("character completion deadlocked")
            return chi
    raise CharacterError("character completion did not converge")


def _a_inverse(cd: CartanDatum, j: int, s: int) -> Monomial:
    exps = {(j, s + 1): -1, (j, s - 1): -1}
    for k in cd.neighbors(j):
        exps[(k, s)] = exps.get((k, s), 0) + 1
    return Monomial(exps)


def fundamental_tchar(yt: YTorus, i: int, p: int) -> TorusElement:
    """The t-character of the fundamental module at (i, p): the bar-invariant
    lift of the classical character, defined when that one is multiplicity-free."""
    cd = yt.cartan
    chi = fm_classical(cd, i, p)
    top = Monomial.var(i, p)
    doms = [m for m in chi if m.is_dominant()]
    if doms != [top] and set(doms) != {top}:
        raise CharacterError(f"fundamental at ({i},{p}) has unexpected dominant set {doms}")
    h = cd.coxeter_number()
    anti = [m for m in chi if all(e <= 0 for _, e in m.items)]
    expected_anti = Monomial.var(cd.nu(i), p + h, -1)
    if anti != [expected_anti]:
        raise CharacterError(f"fundamental at ({i},{p}) has unexpected antidominant set {anti}")
    if any(c != 1 for c in chi.values()):
        raise NonMultiplicityFree(
            f"fundamental at ({i},{p}) is not multiplicity-free; t-lift refused", chi
        )
    one = HalfLaurent.one()
    return TorusElement(yt, {m: one for m in chi})


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


def _unit_coeff_exp2(c: HalfLaurent) -> int:
    if len(c.c) != 1:
        raise CharacterError("expected a one-term coefficient during normalization")
    e, v = next(iter(c.c.items()))
    if v != 1:
        raise CharacterError("expected leading coefficient 1 during normalization")
    return e


def standard_tchar(yt: YTorus, m: Monomial) -> TorusElement:
    """t-character of the standard module at the dominant monomial m: ordered
    product, top level leftmost, of the fundamental t-characters, rescaled so
    m carries coefficient exactly 1."""
    return _standard_with_alpha(yt, m)[0]


def standard_alpha(yt: YTorus, m: Monomial) -> Fraction:
    """The normalizing half-integer exponent in the standard class at m."""
    return _standard_with_alpha(yt, m)[1]


def _standard_with_alpha(yt: YTorus, m: Monomial) -> tuple[TorusElement, Fraction]:
    if not m.is_dominant():
        raise ValueError("standard modules are labelled by dominant monomials")
    if m.is_unit():
        return yt.one(), Fraction(0)
    prod = None
    for (i, p) in sorted(m.support(), key=lambda ip: (-ip[1], ip[0])):
        f = fundamental_tchar(yt, i, p)
        for _ in range(m.exp(i, p)):
            prod = f if prod is None else prod * f
    e = _unit_coeff_exp2(prod.coeff(m))
    return prod.tshift(-e), Fraction(-e, 2)


def dominant_below(yt: YTorus, m: Monomial, cap: int = 500000) -> list[Monomial]:
    """All dominant monomials m' <= m in the exchange order (including m)."""
    cd = yt.cartan
    if not m.is_dominant():
        raise ValueError("expected a dominant monomial")
    if m.is_unit():
        return [m]
    lo, hi = m.min_p(), m.max_p()
    # parity of the variable line at each vertex, read off m's support
    i1, p1 = m.support()[0]
    par = _tree_parity(cd.kind, cd.n, i1)
    parity = [(p1 + par[v - 1]) % 2 for v in cd.vertices]
    wt = cd.zero_weight()
    for (i, p), e in m.items:
        wt = wt + cd.varpi(i).scale(e)
    span = cd.root_coords(wt - cd.w0(wt))
    axes: list[tuple[int, int, int]] = []  # (i, s, bound)
    for i in cd.vertices:
        for s in range(lo + 1, hi):
            if (s - parity[i - 1]) % 2 == 1 and span[i - 1] > 0:
                axes.append((i, s, span[i - 1]))
    total = 1
    for _, _, b in axes:
        total *= b + 1
        if total > cap:
            raise ResourceCap("dominant-monomial enumeration exceeded its cap")
    out = []
    for combo in itertools.product(*[range(b + 1) for _, _, b in axes]):
        cand = m
        budget = list(span)
        feasible = True
        for (i, s, _), c in zip(axes, combo):
            if c:
                budget[i - 1] -= c
                if budget[i - 1] < 0:
                    feasible = False
                    break
                cand = cand * _a_inverse(cd, i, s).power(c)
        if feasible and cand.is_dominant():
            out.append(cand)
    return sorted(set(out), key=lambda x: x.sort_key())


def expand_in_dominant_basis(
    x: TorusElement,
    basis: dict,
    is_dominant_key: Callable,
    leq: Callable,
) -> dict:
    """Expansion of x over a family of elements each having a distinguished
    dominant key with coefficient 1 and all other dominant keys strictly below
    it.  Peels maximal present dominant keys."""
    coeffs: dict = {}
    rem = x
    guard = 0
    while rem:
        guard += 1
        if guard > 5000:
            raise CharacterError("basis expansion did not terminate")
        doms = [k for k in rem.terms if is_dominant_key(k)]
        if not doms:
            raise CharacterError("element is not in the span of the given basis")
        kstar = next(k for k in doms if not any(k != o and leq(k, o) for o in doms))
        if kstar not in basis:
            raise CharacterError(f"dominant key {kstar} missing from the basis")
        c = rem.terms[kstar].exact_div(basis[kstar].coeff(kstar))
        if c is None:
            raise CharacterError("expansion coefficient is not Laurent")
        coeffs[kstar] = coeffs.get(kstar, HalfLaurent.zero()) + c
        rem = rem - basis[kstar].scal(c)
    return coeffs


def bar_invariant_correction(
    top,
    basis: dict,
    is_dominant_key: Callable,
    leq: Callable,
    conj: Callable = None,
) -> TorusElement:
    """The unique conj-invariant element equal to basis[top] plus strictly
    negative t-power multiples of lower basis elements."""
    x = basis[top]
    conj = conj or (lambda e: e.bar())
    guard = 0
    while True:
        guard += 1
        if guard > 2000:
            raise CharacterError("bar-inversion did not terminate")
        delta = conj(x) - x
        if delta.is_zero():
            return x
        coeffs = expand_in_dominant_basis(delta, basis, is_dominant_key, leq)
        coeffs = {k: c for k, c in coeffs.items() if not c.is_zero()}
        if top in coeffs:
            raise CharacterError("bar defect is not strictly triangular")
        kstar = next(
            k for k in coeffs if not any(k != o and leq(k, o) for o in coeffs)
        )
        d = coeffs[kstar]
        if not d.is_antisymmetric():
            raise CharacterError("bar defect coefficient is not antisymmetric")
        x = x + basis[kstar].scal(d.negative_part())


def simple_tchar(yt: YTorus, m: Monomial) -> TorusElement:
    """t-character of the simple module at m: bar-invariant, unitriangular over
    the standard classes with off-diagonal coefficients in t^-1 Z[t^-1]."""
    cands = dominant_below(yt, m)
    basis = {m2: standard_tchar(yt, m2) for m2 in cands}
    return bar_invariant_correction(
        m, basis, lambda k: k.is_dominant(), yt.nakajima_leq
    )


def tensor_simple_check(yt: YTorus, m1: Monomial, m2: Monomial) -> Optional[Fraction]:
    """If the product of simple classes is t^k times a simple class, return k."""
    prod = simple_tchar(yt, m1) * simple_tchar(yt, m2)
    target = simple_tchar(yt, m1 * m2)
    c = prod.coeff(m1 * m2)
    if len(c.c) != 1:
        return None
    e, v = next(iter(c.c.items()))
    if v != 1:
        return None
    if prod == target.tshift(e):
        return Fraction(e, 2)
    return None


# --------------------------------------------------------------------------
# the orientation-attached category: truncation and the T-system recursion
# --------------------------------------------------------------------------


class CategoryQ:
    """Character computations attached to one orientation: the rank-r torus
    on the positions of the index set, truncation into it, Kirillov-Reshetikhin
    classes by the deformed T-system, and truncated standard/simple classes.

    Elements of the rank-r torus are keyed by exponent vectors a, where a_k is
    the exponent of the variable at positions[k]."""

    def __init__(self, qctx: QuiverContext):
        self.qctx = qctx
        self.quiver = qctx.quiver
        self.cartan = qctx.cartan
        self.qc = quantum_cartan(self.cartan)
        self.yt = YTorus(self.qc)
        self.xt = XTorus(qctx.word.betas, self.cartan)
        self.h = self.cartan.coxeter_number()
        self.positions = qctx.positions
        self.index_of_position = qctx.index_of_position
        self._kr: dict[tuple[int, int, int], TorusElement] = {}
        self._check_torus_isomorphism()

    def _check_torus_isomorphism(self) -> None:
        """The isomorphism Phi: the Y-pairing restricted to the positions equals
        the scalar-product pairing of the rank-r torus, entry by entry."""
        for k, (i, p) in enumerate(self.positions):
            for l, (j, s) in enumerate(self.positions):
                n = self.qc.n_pair(i, p, j, s) if p != s else 0
                x = self.xt.pair2(self.xt.unit_vector(k + 1), self.xt.unit_vector(l + 1))
                if n != x:
                    raise CharacterError(
                        f"pairings disagree at positions {k + 1},{l + 1}: N = {n}, X = {x}"
                    )

    # -- the boundary between Y-monomials and exponent vectors ----------------

    def in_category(self, m: Monomial) -> bool:
        return all(ip in self.index_of_position for ip in m.support())

    def truncate(self, x: TorusElement) -> TorusElement:
        """Restriction of a Y-keyed element to the positions, as an element of
        the rank-r torus."""
        return self.xt.element(
            {self.avec_of(k): c for k, c in x.terms.items() if self.in_category(k)}
        )

    def avec_of(self, m: Monomial) -> tuple[int, ...]:
        a = [0] * self.xt.r
        for (i, p), e in m.items:
            k = self.index_of_position.get((i, p))
            if k is None:
                raise ValueError(f"variable ({i},{p}) is outside the subtorus")
            a[k - 1] = e
        return tuple(a)

    def monomial_of_avec(self, a) -> Monomial:
        return Monomial({self.positions[k]: e for k, e in enumerate(a) if e != 0})

    def beta_of(self, a) -> Weight:
        w = self.cartan.zero_weight()
        for k, c in enumerate(a):
            if c:
                w = w + self.qctx.word.betas[k].scale(c)
        return w

    @staticmethod
    def is_dominant(a) -> bool:
        return all(e >= 0 for e in a)

    def leq(self, a1, a2) -> bool:
        """The Nakajima order on exponent vectors."""
        return self.yt.nakajima_leq(self.monomial_of_avec(a1), self.monomial_of_avec(a2))

    # -- Kirillov-Reshetikhin classes by the T-system ------------------------

    def tower(self, i: int, p: int) -> tuple[int, ...]:
        xi = self.quiver.xi[i - 1]
        return self.avec_of(Monomial({(i, q): 1 for q in range(p, xi + 1, 2)}))

    def kr(self, i: int, s: int, p: int) -> TorusElement:
        """Truncated t-character of the Kirillov-Reshetikhin class with s
        factors starting at spectral parameter p."""
        if s == 0:
            return self.xt.one()
        if (i, p) not in self.index_of_position:
            raise ValueError(f"({i},{p}) is outside the subtorus index set")
        xi = self.quiver.xi[i - 1]
        if not 1 <= s <= (xi - p) // 2 + 1:
            raise ValueError(f"level {s} at ({i},{p}) leaves the category")
        key = (i, s, p)
        if key in self._kr:
            return self._kr[key]
        top = p + 2 * s - 2
        if top == xi:
            val = self.xt.monomial(self.tower(i, p))
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
        return self.kr(i, 1, p)

    # -- dominant monomials and decompositions -------------------------------

    def dominant_pairs(self, d) -> list[dict]:
        """All decompositions of the dimension vector d into positive roots,
        paired with their dominant monomials and exchange-monomial columns."""
        cd = self.cartan
        d = tuple(d)
        if len(d) != cd.n:
            raise RankMismatch(f"dimension vector has {len(d)} entries, {cd.kind}{cd.n} has rank {cd.n}")
        betas = [cd.root_coords(b) for b in self.qctx.word.betas]
        rows: list[dict] = []
        topmon = Monomial(
            {self.qctx.phi.phi_inverse(cd.alpha(i), 0): d[i - 1] for i in cd.vertices if d[i - 1]}
        )

        def rec(k: int, rem: tuple, acc: list):
            if all(x == 0 for x in rem):
                a = tuple(acc + [0] * (len(betas) - len(acc)))
                rows.append({"avec": a})
                return
            if k == len(betas):
                return
            b = betas[k]
            mx = min((rem[t] // b[t]) for t in range(len(rem)) if b[t] > 0)
            for c in range(mx, -1, -1):
                rec(k + 1, tuple(rem[t] - c * b[t] for t in range(len(rem))), acc + [c])

        rec(0, d, [])
        for row in rows:
            m = self.monomial_of_avec(row["avec"])
            row["monomial"] = m
            v = self.yt.a_solve(topmon * m.inverse())
            if v is None or any(c < 0 for c in v.values()):
                raise CharacterError("decomposition monomial is not below the top monomial")
            row["a_column"] = dict(v)
        rows.sort(key=lambda r: tuple(-x for x in r["avec"]))
        return rows

    def dominant_avecs_up_to(self, degree: int) -> list[tuple[int, ...]]:
        degs = [self.cartan.deg(b) for b in self.qctx.word.betas]
        out: list[tuple[int, ...]] = []

        def rec(k: int, budget: int, acc: list):
            if k == len(degs):
                out.append(tuple(acc))
                return
            for c in range(budget // degs[k] + 1):
                rec(k + 1, budget - c * degs[k], acc + [c])

        rec(0, degree, [])
        return out

    # -- truncated standard and simple classes -------------------------------

    def _dominant_avec(self, a) -> tuple[int, ...]:
        a = tuple(a)
        if len(a) != self.xt.r or not self.is_dominant(a):
            raise ValueError(f"expected a dominant exponent vector of length {self.xt.r}")
        return a

    def truncated_standard(self, a) -> TorusElement:
        a = self._dominant_avec(a)
        prod = None
        for k in sorted(
            (k for k in range(self.xt.r) if a[k]),
            key=lambda k: (-self.positions[k][1], self.positions[k][0]),
        ):
            f = self.truncated_fundamental(*self.positions[k])
            for _ in range(a[k]):
                prod = f if prod is None else prod * f
        if prod is None:
            return self.xt.one()
        e = _unit_coeff_exp2(prod.coeff(a))
        return prod.tshift(-e)

    def candidates_below(self, a) -> list[tuple[int, ...]]:
        deg = self.cartan.root_coords(self.beta_of(a))
        return [
            row["avec"] for row in self.dominant_pairs(deg) if self.leq(row["avec"], a)
        ]

    def truncated_simple(self, a) -> TorusElement:
        a = self._dominant_avec(a)
        basis = {c: self.truncated_standard(c) for c in self.candidates_below(a)}
        return bar_invariant_correction(a, basis, self.is_dominant, self.leq)
