"""Hall algebra computations over small finite fields, and the derived Hall
algebra of the bounded derived category of a small type-A quiver.

Both kinds of structure constant come from Riedtmann's formula.  The Hall
numbers g^W_{X,Y} of one pair (X, Y) are tallied at once: dim Hom(Y, X) is
read off the hom table of the indecomposables and dim Ext^1(Y, X) off the
Euler form; a split pair is one quotient of automorphism counts, and
otherwise Ext^1(Y, X) is the sum of the Ext^1 between their summands, whose
bases are computed once per quiver and field, and each nonsplit extension,
one per line, is built as a middle term and classified by its fingerprint.
Toen's gamma splits each four-term exact sequence at its middle image into
two short exact sequences, each counted by those Hall numbers; |Aut M| is
read off dim End M, since the indecomposables of mod(FQ) are bricks.  One
cap, `MAX_HALL_WORK`, bounds a Hall number and a gamma: the q^(dim Ext^1)
extensions to classify times the cube of the total dimension, checked
before any representation is built.  Scalars live in the exact field
Q[x]/(x^4 - q), with u = sqrt(q) represented by x^2 so that half-integral
powers of u remain exact.

The derived Hall algebra is spanned by normal-ordered words in generators
z_X^[m] with strictly decreasing level m; products are rewritten to normal
form by the same-level Hall rule, the adjacent-level gamma rule, and the
distant-level commutation rule.  Its defining relations on the simple
generators are not written out here: `check_h_relations` runs the relation
table of `presentation.relation_failures`, the one that K_t and U_q(n) use,
through `DerivedHall.qcommutator` at t = u.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterator

from .cartan import QQ, ResourceCap, iter_kostant_partitions, rref, solve
from .characters import CategoryQ, expand_in_dominant_basis
from .laurent import HalfLaurent
from .presentation import relation_failures
from .quiver import QuiverDatum, ringel_form


MAX_RANK = 3
MAX_FIELD = 4
MAX_HALL_WORK = 10_000_000


# --------------------------------------------------------------------------
# small finite fields
# --------------------------------------------------------------------------


class GF:
    """GF(q) for q prime or q = 4, elements encoded as 0..q-1."""

    def __init__(self, q: int):
        if q > MAX_FIELD:
            raise ResourceCap(f"field size {q} above cap {MAX_FIELD}")
        self.q = q
        if q in (2, 3):
            self.add = lambda a, b: (a + b) % q
            self.sub = lambda a, b: (a - b) % q
            self.mul = lambda a, b: (a * b) % q
            self.inv = lambda a: pow(a, q - 2, q)
        elif q == 4:
            # F_2[x]/(x^2+x+1): 0, 1, x=2, x+1=3
            add = [[(a ^ b) for b in range(4)] for a in range(4)]
            mul = [[0] * 4 for _ in range(4)]
            poly = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}
            enc = {v: k for k, v in poly.items()}
            for a in range(4):
                for b in range(4):
                    a0, a1 = poly[a]
                    b0, b1 = poly[b]
                    c0 = a0 * b0
                    c1 = a0 * b1 + a1 * b0
                    c2 = a1 * b1
                    mul[a][b] = enc[((c0 + c2) % 2, (c1 + c2) % 2)]
            inv = [0, 1, 3, 2]
            self.add = lambda a, b: add[a][b]
            self.sub = lambda a, b: add[a][b]
            self.mul = lambda a, b: mul[a][b]
            self.inv = lambda a: inv[a]
        else:
            raise ValueError(f"unsupported field size {q}")

    def elements(self):
        return range(self.q)


def mat_rank(F: GF, rows) -> int:
    return len(rref(rows, F)[1])


# --------------------------------------------------------------------------
# quiver representations and their isoclasses
# --------------------------------------------------------------------------


class Rep:
    """Representation of a quiver over GF(q): one matrix per arrow,
    column-vector convention (shape target x source)."""

    def __init__(self, quiver: QuiverDatum, F: GF, dims, mats):
        self.quiver = quiver
        self.F = F
        self.dims = tuple(dims)
        self.mats = dict(mats)  # arrow (i,j) -> matrix


def _check_quiver(quiver: QuiverDatum) -> None:
    if quiver.cartan.kind != "A" or quiver.cartan.n > MAX_RANK:
        raise ResourceCap(f"Hall computations capped at type A rank {MAX_RANK}")


class IsoClass:
    """Multiset of positive roots (Krull-Schmidt data of a representation)."""

    __slots__ = ("mults",)

    def __init__(self, mults):
        clean = {tuple(r): int(c) for r, c in dict(mults).items() if c}
        object.__setattr__(self, "mults", tuple(sorted(clean.items())))

    def __setattr__(self, *a):
        raise AttributeError("IsoClass is immutable")

    def __eq__(self, other):
        return isinstance(other, IsoClass) and self.mults == other.mults

    def __hash__(self):
        return hash(self.mults)

    def is_zero(self) -> bool:
        return not self.mults

    def dims(self, n: int) -> tuple[int, ...]:
        out = [0] * n
        for r, c in self.mults:
            for v in range(n):
                out[v] += c * r[v]
        return tuple(out)

    def __repr__(self):
        if not self.mults:
            return "IsoClass(0)"
        bits = []
        for r, c in self.mults:
            name = "+".join(f"a{i+1}" for i, x in enumerate(r) if x)
            bits.append(f"({name})^{c}" if c > 1 else f"({name})")
        return "IsoClass(" + " ".join(bits) + ")"

    def to_json(self):
        return [[list(r), c] for r, c in self.mults]


def model_rep(quiver: QuiverDatum, F: GF, iso: IsoClass) -> Rep:
    """The direct sum of the interval modules of iso's roots (type-A roots are
    0/1 intervals), copies in order: at each arrow the 0/1 matrix that maps
    every copy present at the source to itself at the target."""
    _check_quiver(quiver)
    n = quiver.cartan.n
    parts = [r for r, c in iso.mults for _ in range(c)]
    at = [[p for p, r in enumerate(parts) if r[v]] for v in range(n)]
    mats = {(i, j): tuple(tuple(int(p == s) for s in at[i - 1]) for p in at[j - 1]) for (i, j) in quiver.arrows}
    return Rep(quiver, F, iso.dims(n), mats)


def _hom_equations(M: Rep, N: Rep):
    """The linear equations phi_j M_a = N_a phi_i, one per arrow a = (i, j) and
    entry, on the entries of a homomorphism (phi_v): N.dims[v] x M.dims[v]
    blocks vertex by vertex.  Returns the equation rows, one per coordinate
    of sum_a Hom(M_i, N_j) (row r of N_j, column c of M_i, arrow by arrow),
    zero rows included; the offset of each vertex block; and the number of
    unknowns."""
    F = M.F
    offsets = []
    total = 0
    for v in range(M.quiver.cartan.n):
        offsets.append(total)
        total += N.dims[v] * M.dims[v]
    rows = []
    for (i, j) in M.quiver.arrows:
        # one equation per (row of N_j, col of M_i)
        for r in range(N.dims[j - 1]):
            for c in range(M.dims[i - 1]):
                row = [0] * total
                for k in range(M.dims[j - 1]):
                    idx = offsets[j - 1] + r * M.dims[j - 1] + k
                    row[idx] = F.add(row[idx], M.mats[(i, j)][k][c])
                for k in range(N.dims[i - 1]):
                    idx = offsets[i - 1] + k * M.dims[i - 1] + c
                    row[idx] = F.sub(row[idx], N.mats[(i, j)][r][k])
                rows.append(tuple(row))
    return rows, offsets, total


def hom_dim(M: Rep, N: Rep) -> int:
    """dim Hom(M, N): the unknowns less the rank of their equations."""
    rows, _, total = _hom_equations(M, N)
    return total - mat_rank(M.F, rows)


@lru_cache(maxsize=None)
def _iso_tables(quiver: QuiverDatum, q: int):
    """All positive-root interval models, the hom dimensions between them
    (keyed by pairs of roots), the inverse of their Gram matrix, the vertex v
    of each root r with dim Hom(r, M) = dim M_v (r is projective), and a
    basis of each Ext^1(s, r): the coordinates (a, row, column) of
    sum_a Hom(s_i, r_j) whose equations of Hom(s, r) are off the pivots of
    the rref of their columns, which span a complement to the image.

    mod(FQ) is directed, so that Gram matrix is unitriangular in
    Auslander-Reiten order and its inverse is an integer matrix; a rational
    entry means the models are wrong."""
    _check_quiver(quiver)
    F = GF(q)
    cd = quiver.cartan
    roots = [tuple(cd.root_coords(b)) for b in cd.positive_roots()]
    models = {r: model_rep(quiver, F, IsoClass({r: 1})) for r in roots}
    hom, ext = {}, {}
    for s, r in itertools.product(roots, roots):
        rows, _, total = _hom_equations(models[s], models[r])
        pivots = rref(list(zip(*rows)), F)[1]
        hom[s, r] = total - len(pivots)
        coords = [(a, x, y) for a in quiver.arrows for x in range(r[a[1] - 1]) for y in range(s[a[0] - 1])]
        ext[s, r] = [c for k, c in enumerate(coords) if k not in pivots]
    eye = [[int(i == j) for j in range(len(roots))] for i in range(len(roots))]
    inv = solve([[hom[r1, r2] for r2 in roots] for r1 in roots], eye, QQ)
    if any(Fraction(x).denominator != 1 for row in inv for x in row):
        raise RuntimeError("Gram matrix of hom dimensions is not unimodular")
    proj = {r: v for r in roots for v in range(cd.n) if all(hom[r, s] == s[v] for s in roots)}
    return roots, models, hom, tuple(tuple(int(x) for x in row) for row in inv), proj, ext


def iso_class(rep: Rep, q: int) -> IsoClass:
    """Krull-Schmidt multiplicities: the inverse Gram matrix times the
    hom-dimension fingerprint, whose entry at the projective P_v is dim rep_v."""
    roots, models, _, gram_inv, proj, _ = _iso_tables(rep.quiver, q)
    fing = [rep.dims[proj[r]] if r in proj else hom_dim(models[r], rep) for r in roots]
    mults = {}
    for r, row in zip(roots, gram_inv):
        c = sum(a * f for a, f in zip(row, fing))
        if c < 0:
            raise RuntimeError("fingerprint did not resolve to a Krull-Schmidt multiset")
        if c:
            mults[r] = c
    out = IsoClass(mults)
    if out.dims(rep.quiver.cartan.n) != rep.dims:
        raise RuntimeError("Krull-Schmidt decomposition has wrong dimension vector")
    return out


# --------------------------------------------------------------------------
# Hall numbers by Riedtmann's formula
# --------------------------------------------------------------------------


def _hom_ext(X: IsoClass, Y: IsoClass, quiver: QuiverDatum, q: int) -> tuple[int, int]:
    """dim Hom(Y, X) = sum m_r k_s dim Hom(r, s), read off the hom table of
    `_iso_tables`, and dim Ext^1(Y, X) = dim Hom(Y, X) - <dim Y, dim X>."""
    hom = _iso_tables(quiver, q)[2]
    h = sum(m * k * hom[r, s] for r, m in Y.mults for s, k in X.mults)
    n = quiver.cartan.n
    return h, h - ringel_form(quiver, Y.dims(n), X.dims(n))


def _work(X: IsoClass, Y: IsoClass, quiver: QuiverDatum, q: int) -> int:
    """The work of the Hall numbers g^W_{X,Y}: the q^(dim Ext^1(Y, X))
    extensions to classify, times D^3 for the equations of each, D the total
    dimension of X + Y.  Nothing else grows faster: Ext^1 is read off the
    bases between indecomposables, with no elimination on the pair's whole
    hom map.  The extensions are not counted when D^3 alone is past the cap."""
    work = max(1, sum(m * sum(r) for r, m in X.mults + Y.mults)) ** 3
    if work <= MAX_HALL_WORK:
        work *= q ** _hom_ext(X, Y, quiver, q)[1]
    return work


def _check_work(work: int, what: str) -> None:
    if work > MAX_HALL_WORK:
        raise ResourceCap(f"{what}: work {work} (extensions x dimension^3) above cap {MAX_HALL_WORK}")


def hall_numbers(X: IsoClass, Y: IsoClass, quiver: QuiverDatum, q: int) -> dict:
    """{W: g^W_{X,Y}}, zeros left out, by Riedtmann's formula

        g^W_{X,Y} = |Ext^1(Y, X)_W| |Aut W| / (|Aut X| |Aut Y| q^(dim Hom(Y, X))),

    Ext^1(Y, X)_W the extensions 0 -> X -> W -> Y -> 0 with middle term W.
    Ext^1(Y, X) is the cokernel of delta(phi)_a = phi_j Y_a - X_a phi_i from
    the vertex maps to the arrow maps sum_a Hom(Y_i, X_j).  On the models,
    direct sums of copies of indecomposables, delta is block diagonal in the
    pairs of copies, so a complement to its image is the sum of the Ext^1
    bases of `_iso_tables`, each shifted to its pair's block of eta_a.  A
    nonzero eta there is the middle term [[X_a, eta_a], [0, Y_a]],
    classified by `iso_class` once per line; eta = 0 is the split X + Y."""
    _check_work(_work(X, Y, quiver, q), "Hall number")
    hom, ext = _hom_ext(X, Y, quiver, q)
    counts = Counter({IsoClass(Counter(dict(X.mults)) + Counter(dict(Y.mults))): 1})
    if ext:
        F = GF(q)
        RX, RY = model_rep(quiver, F, X), model_rep(quiver, F, Y)
        basis = _iso_tables(quiver, q)[5]
        xs, ys = ([r for r, m in Z.mults for _ in range(m)] for Z in (X, Y))
        free = [
            (a, sum(t[a[1] - 1] for t in xs[:p]) + x, sum(t[a[0] - 1] for t in ys[:u]) + y)
            for p, rx in enumerate(xs)
            for u, ry in enumerate(ys)
            for a, x, y in basis[ry, rx]
        ]
        if len(free) != ext:
            raise RuntimeError(f"Ext^1 has dimension {len(free)} by rank but {ext} by the hom table")
        dims = tuple(x + y for x, y in zip(RX.dims, RY.dims))
        for values in itertools.product(F.elements(), repeat=ext):
            # eta and c eta have isomorphic middle terms: one per line, q - 1 times
            if next((v for v in values if v), 0) != 1:
                continue
            eta, mats = dict(zip(free, values)), {}
            for a in quiver.arrows:
                yi = RY.dims[a[0] - 1]
                top = [row + tuple(eta.get((a, r, c), 0) for c in range(yi)) for r, row in enumerate(RX.mats[a])]
                mats[a] = top + [(0,) * RX.dims[a[0] - 1] + row for row in RY.mats[a]]
            counts[iso_class(Rep(quiver, F, dims, mats), q)] += q - 1
    den = aut_count(X, quiver, q) * aut_count(Y, quiver, q) * q**hom
    out = {}
    for W, c in counts.items():
        g, r = divmod(c * aut_count(W, quiver, q), den)
        if r:
            raise RuntimeError(f"Riedtmann's quotient {g * den + r}/{den} is not integral")
        out[W] = g
    return out


def hall_number(X: IsoClass, Y: IsoClass, W: IsoClass, quiver: QuiverDatum, q: int) -> int:
    """Number of subrepresentations of W isomorphic to X with quotient
    isomorphic to Y, read off the tally of `hall_numbers` by a one-request
    `DerivedHall`, which checks the quiver and the field first."""
    return DerivedHall(quiver, q).g_number(X, Y, W)


def aut_count(M: IsoClass, quiver: QuiverDatum, q: int) -> int:
    """|Aut M| = q^(dim End M - sum m^2) prod_m |GL_m(F_q)|, m running over
    the multiplicities of M's indecomposables, with dim End M = dim Hom(M, M)
    read off the hom table of `_iso_tables` by `_hom_ext`.  The
    indecomposables are bricks (End = F_q), so End M / rad End M is the
    product of the M_m(F_q), and an endomorphism is a unit exactly when its
    image there is."""
    end = _hom_ext(M, M, quiver, q)[0]
    out = q ** (end - sum(m * m for _, m in M.mults))
    for _, m in M.mults:
        for i in range(m):
            out *= q**m - q**i
    return out


def toen_gamma(dh: "DerivedHall", X: IsoClass, Y: IsoClass, T: IsoClass, W: IsoClass) -> Fraction:
    """gamma_{X,Y}^{T,W}: the number of exact sequences
    0 -> T -> Y -> X -> W -> 0 divided by |Aut X| |Aut Y|.

    Such a sequence is two short exact sequences glued at the image K of
    Y -> X, and each is counted as in Riedtmann's formula.  K is one of
    g^X_{K,W} subrepresentations of X, killed by |Aut W| epimorphisms onto
    W; the kernel of Y -> X is one of g^Y_{T,K} subrepresentations of Y,
    whose quotient maps onto K in |Aut K| ways, and T maps onto it in
    |Aut T| ways.  The Hall numbers come from `dh`.  Their work is summed
    against the one cap: the g^Y_{T,K} of every K before any is counted, the
    images K generated lazily so that the sum stops at the first one that
    crosses the cap, then one g^X_{K,W} for every K with g^Y_{T,K} != 0,
    read from `dh`'s memo or not, so a gamma ends in bounded time and its
    cap does not depend on what the request counted before.

    The slot assignment (T first, W last) is the one under which the rank-one
    values come out right: gamma_{S_i,S_i}^{0,0} = 1/(q-1) and, for i != j,
    gamma_{S_i,S_j}^{S_j,S_i} = 1 with (q-1)^2 sequences.
    """
    n, q = dh.cartan.n, dh.q
    dT, dY, dX, dW = (Z.dims(n) for Z in (T, Y, X, W))
    dK = tuple(y - t for y, t in zip(dY, dT))
    if dK != tuple(x - w for x, w in zip(dX, dW)) or min(dK, default=0) < 0:
        return Fraction(0)
    _check_work(max(1, sum(dY)) ** 3, "gamma")
    work = 0
    for K in dh._iter_isoclasses(dK):
        work += _work(T, K, dh.quiver, q)
        _check_work(work, "gamma")
    ks = dh._isoclasses_of_dim(dK)

    def aut(Z):
        return aut_count(Z, dh.quiver, q)

    count = 0
    for K in ks:
        g = dh.g_number(T, K, Y)
        if g:
            work += _work(K, W, dh.quiver, q)
            _check_work(work, "gamma")
            count += aut(K) * g * dh.g_number(K, W, X)
    return Fraction(count * aut(T) * aut(W), aut(X) * aut(Y)) if count else Fraction(0)


# --------------------------------------------------------------------------
# exact scalars containing sqrt(q) and its square root
# --------------------------------------------------------------------------


class UScalar:
    """Element of Q[x]/(x^4 - q), with u = sqrt(q) represented by x^2.

    u and u^(1/2) = x are units, so Laurent expressions in them are exact.
    The ring is a field for q in {2, 3}.  At q = 4, which `DerivedHall` also
    accepts, x^4 - 4 = (x^2 - 2)(x^2 + 2): u^2 = 4 but u != 2, and 2 + u is a
    zero divisor.  Every equality in the ring still holds at u = 2, so a
    check at q = 4 is at least as strict as one at u = 2; the inverse of a
    zero divisor raises ZeroDivisionError, which ends a request in exit 2.
    Stored as four integer numerators `n` over one positive denominator `d`
    in lowest terms, so the form is canonical: equal values have equal
    (n, d), and zero is (0, 0, 0, 0)/1."""

    __slots__ = ("q", "n", "d")

    def __init__(self, q: int, coeffs=None):
        fr = [Fraction(v) for v in coeffs or ()]
        if len(fr) > 4:
            raise ValueError(f"{len(fr)} coefficients for a degree-3 element")
        fr += [Fraction(0)] * (4 - len(fr))
        d = lcm(*(f.denominator for f in fr))
        # the lcm of reduced denominators leaves the numerators coprime to it
        self.q = q
        self.n = tuple(f.numerator * (d // f.denominator) for f in fr)
        self.d = d

    @staticmethod
    def of(q: int, value) -> "UScalar":
        if type(value) is int:
            return _reduced(q, value, 0, 0, 0, 1)
        return UScalar(q, [value])

    @staticmethod
    def u(q: int) -> "UScalar":
        return _reduced(q, 0, 0, 1, 0, 1)

    @staticmethod
    def half_u(q: int) -> "UScalar":
        return _reduced(q, 0, 1, 0, 0, 1)

    def __add__(self, other: "UScalar") -> "UScalar":
        a0, a1, a2, a3 = self.n
        b0, b1, b2, b3 = other.n
        da, db = self.d, other.d
        if da == db:
            return _reduced(self.q, a0 + b0, a1 + b1, a2 + b2, a3 + b3, da)
        return _reduced(
            self.q,
            a0 * db + b0 * da,
            a1 * db + b1 * da,
            a2 * db + b2 * da,
            a3 * db + b3 * da,
            da * db,
        )

    def __neg__(self) -> "UScalar":
        a0, a1, a2, a3 = self.n
        return _reduced(self.q, -a0, -a1, -a2, -a3, self.d)

    def __sub__(self, other: "UScalar") -> "UScalar":
        return self + (-other)

    def __mul__(self, other: "UScalar") -> "UScalar":
        # (sum a_i x^i)(sum b_j x^j) with x^4 = q
        q = self.q
        a0, a1, a2, a3 = self.n
        b0, b1, b2, b3 = other.n
        return _reduced(
            q,
            a0 * b0 + q * (a1 * b3 + a2 * b2 + a3 * b1),
            a0 * b1 + a1 * b0 + q * (a2 * b3 + a3 * b2),
            a0 * b2 + a1 * b1 + a2 * b0 + q * a3 * b3,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
            self.d * other.d,
        )

    def scale_int(self, k: int) -> "UScalar":
        a0, a1, a2, a3 = self.n
        return _reduced(self.q, a0 * k, a1 * k, a2 * k, a3 * k, self.d)

    def is_zero(self) -> bool:
        return not any(self.n)

    def __eq__(self, other) -> bool:
        return isinstance(other, UScalar) and (self.q, self.n, self.d) == (other.q, other.n, other.d)

    def __hash__(self):
        return hash((self.q, self.n, self.d))

    def inverse(self) -> "UScalar":
        # With abar(x) = a(-x), a * abar = b0 + b2 x^2 is even and
        # (b0 + b2 x^2)(b0 - b2 x^2) = b0^2 - q b2^2 = N, the norm of a; so
        # a^-1 = abar (b0 - b2 x^2) / N, and a is a unit exactly when N != 0.
        # On numerators a = A/d: b = B/d^2, N = M/d^4, a^-1 = d Abar (B0 - B2 x^2) / M.
        q, d = self.q, self.d
        a0, a1, a2, a3 = self.n
        b0 = a0 * a0 + q * (a2 * a2 - 2 * a1 * a3)
        b2 = 2 * a0 * a2 - a1 * a1 - q * a3 * a3
        norm = b0 * b0 - q * b2 * b2
        if norm == 0:
            raise ZeroDivisionError("element is not invertible")
        return _reduced(
            q,
            d * (a0 * b0 - q * a2 * b2),
            d * (q * a3 * b2 - a1 * b0),
            d * (a2 * b0 - a0 * b2),
            d * (a1 * b2 - a3 * b0),
            norm,
        )

    def __repr__(self):
        bits = []
        for k, a in enumerate(self.n):
            if a:
                f = Fraction(a, self.d)
                bits.append(f"{f}*u^({k}/2)" if k else f"{f}")
        return " + ".join(bits) if bits else "0"


def _reduced(q: int, n0: int, n1: int, n2: int, n3: int, d: int) -> UScalar:
    """The UScalar (n0 + n1 x + n2 x^2 + n3 x^3) / d, brought to lowest terms
    with d > 0."""
    if d != 1:
        g = gcd(n0, n1, n2, n3, d)
        if d < 0:
            g = -g
        if g != 1:
            n0, n1, n2, n3, d = n0 // g, n1 // g, n2 // g, n3 // g, d // g
    out = object.__new__(UScalar)
    out.q = q
    out.n = (n0, n1, n2, n3)
    out.d = d
    return out


def specialize(q: int, c: HalfLaurent) -> UScalar:
    """c at t^(1/2) = u^(1/2) = x, in one pass: each t^(e/2) goes to x^e =
    q^floor(e/4) x^(e mod 4), all over one denominator, q^-s for the least
    power s <= 0 of q."""
    low = min((0, *c.c)) // 4
    n = [0, 0, 0, 0]
    for e, v in c.items():
        n[e % 4] += v * q ** (e // 4 - low)
    return _reduced(q, *n, q**-low)


def u_power(q: int, k: int) -> UScalar:
    """u^k, the specialization of t^k."""
    return specialize(q, HalfLaurent.t_power(2 * k))


# --------------------------------------------------------------------------
# the derived Hall algebra
# --------------------------------------------------------------------------


class DerivedHall:
    """The derived Hall algebra of the bounded derived category of the quiver
    over GF(q), twisted by the Euler form.  Basis: normal-ordered words
    ((m1, iso1), (m2, iso2), ...) with strictly decreasing levels.

    One instance serves one request: it memoises the tally of Hall numbers
    of each (X, Y), gamma terms, isoclasses per dimension vector and the
    normal form of every word it rewrites."""

    def __init__(self, quiver: QuiverDatum, q: int):
        _check_quiver(quiver)
        GF(q)  # the field must exist: q prime or 4, within the cap
        self.quiver = quiver
        self.q = q
        self.cartan = quiver.cartan
        self._one = UScalar.of(q, 1)
        self._g: dict = {}
        self._gamma_terms: dict = {}
        self._isos: dict = {}
        self._nf: dict = {}

    # -- scalars ------------------------------------------------------------

    def scalar(self, value) -> UScalar:
        return UScalar.of(self.q, value)

    def upow(self, k: int) -> UScalar:
        return u_power(self.q, k)

    # -- structure constants --------------------------------------------------

    def euler(self, x: IsoClass, y: IsoClass) -> int:
        n = self.cartan.n
        return ringel_form(self.quiver, x.dims(n), y.dims(n))

    def sym(self, x: IsoClass, y: IsoClass) -> int:
        return self.euler(x, y) + self.euler(y, x)

    def hall_numbers(self, x: IsoClass, y: IsoClass) -> dict:
        """{W: g^W_{x,y}} of `hall_numbers`, memoised by (x, y)."""
        key = (x, y)
        if key not in self._g:
            self._g[key] = hall_numbers(x, y, self.quiver, self.q)
        return self._g[key]

    def g_number(self, x: IsoClass, y: IsoClass, w: IsoClass) -> int:
        n = self.cartan.n
        if tuple(a + b for a, b in zip(x.dims(n), y.dims(n))) != w.dims(n):
            return 0
        return self.hall_numbers(x, y).get(w, 0)

    def _isoclasses_of_dim(self, dims) -> tuple[IsoClass, ...]:
        """The isoclasses of dimension vector dims, in decreasing
        lexicographic order of their multiplicities on the roots, memoised."""
        dims = tuple(dims)
        if dims not in self._isos:
            for _ in self._iter_isoclasses(dims):
                pass
        return self._isos[dims]

    def _iter_isoclasses(self, dims) -> Iterator[IsoClass]:
        """The isoclasses of `_isoclasses_of_dim`, generated lazily (in no
        fixed order) unless memoised; the memo is written only once the
        enumeration completes, so a caller may stop early."""
        dims = tuple(dims)
        if dims in self._isos:
            yield from self._isos[dims]
            return
        roots = _iso_tables(self.quiver, self.q)[0]
        found = []
        for a in iter_kostant_partitions(roots, dims):
            iso = IsoClass({b: c for b, c in zip(roots, a) if c})
            found.append((a, iso))
            yield iso
        found.sort(key=lambda pair: pair[0], reverse=True)
        self._isos[dims] = tuple(iso for _, iso in found)

    def gamma_terms(self, x: IsoClass, y: IsoClass) -> list[tuple[IsoClass, IsoClass, Fraction]]:
        """Nonzero (T, W, gamma_{X,Y}^{T,W}) for the adjacent-level rewriting."""
        key = (x, y)
        if key in self._gamma_terms:
            return self._gamma_terms[key]
        n = self.cartan.n
        dx, dy = x.dims(n), y.dims(n)
        out = []
        for t in self._isoclasses_of_dim_leq(dy):
            dt = t.dims(n)
            dw = tuple(dx[v] - dy[v] + dt[v] for v in range(n))
            if any(d < 0 for d in dw):
                continue
            for w in self._isoclasses_of_dim(dw):
                g = toen_gamma(self, x, y, t, w)
                if g:
                    out.append((t, w, g))
        self._gamma_terms[key] = out
        return out

    def _isoclasses_of_dim_leq(self, dims) -> list[IsoClass]:
        out = []
        for sub in itertools.product(*[range(d + 1) for d in dims]):
            out.extend(self._isoclasses_of_dim(sub))
        return out

    # -- elements -------------------------------------------------------------

    def one(self) -> dict:
        return {(): self._one}

    def generator(self, iso: IsoClass, m: int) -> dict:
        if iso.is_zero():
            return self.one()
        return {((m, iso),): self._one}

    def z_simple(self, i: int, m: int) -> dict:
        root = tuple(1 if v == i else 0 for v in range(1, self.cartan.n + 1))
        return self.generator(IsoClass({root: 1}), m)

    def add(self, a: dict, b: dict) -> dict:
        out = dict(a)
        for w, c in b.items():
            _accumulate(out, w, c)
        return out

    def scal(self, a: dict, c: UScalar) -> dict:
        out = {}
        for w, v in a.items():
            vc = v * c
            if not vc.is_zero():
                out[w] = vc
        return out

    def neg(self, a: dict) -> dict:
        return {w: -v for w, v in a.items()}

    def mul(self, a: dict, b: dict) -> dict:
        out: dict = {}
        for w1, c1 in a.items():
            for w2, c2 in b.items():
                c12 = c1 * c2
                for w3, c3 in self._normalize(w1 + w2):
                    _accumulate(out, w3, c12 * c3)
        return out

    def _normalize(self, word: tuple) -> tuple[tuple[tuple, UScalar], ...]:
        """Rewrite a word of (level, iso) letters into normal order; memoised
        per word."""
        nf = self._nf.get(word)
        if nf is None:
            nf = self._nf[word] = self._rewrite(word)
        return nf

    def _rewrite(self, word: tuple) -> tuple[tuple[tuple, UScalar], ...]:
        for idx in range(len(word) - 1):
            (m1, x), (m2, y) = word[idx], word[idx + 1]
            if m1 > m2:
                continue
            head, tail = word[:idx], word[idx + 2 :]
            out: dict = {}
            if m1 == m2:
                # same level: Hall product
                pref = self.upow(self.euler(y, x))
                for w, g in self.hall_numbers(x, y).items():
                    coeff = pref.scale_int(g)
                    for w3, c3 in self._normalize(head + ((m1, w),) + tail):
                        _accumulate(out, w3, coeff * c3)
            elif m2 == m1 + 1:
                for t, w, g in self.gamma_terms(x, y):
                    coeff = self.upow(-self.euler(y, x) - self.euler(w, t)) * UScalar.of(self.q, g)
                    mid = ()
                    if not t.is_zero():
                        mid += ((m2, t),)
                    if not w.is_zero():
                        mid += ((m1, w),)
                    for w3, c3 in self._normalize(head + mid + tail):
                        _accumulate(out, w3, coeff * c3)
            else:
                pref = self.upow((-1) ** (m2 - m1) * self.sym(x, y))
                for w3, c3 in self._normalize(head + ((m2, y), (m1, x)) + tail):
                    _accumulate(out, w3, pref * c3)
            return tuple(out.items())
        return ((word, self._one),)

    def qcommutator(self, a: dict, b: dict, exp2: int) -> dict:
        """a b - u^(exp2/2) b a."""
        c = self.upow(exp2 // 2) * (UScalar.half_u(self.q) if exp2 % 2 else self._one)
        return self.add(self.mul(a, b), self.scal(self.mul(b, a), -c))


def _accumulate(out: dict, key, c: UScalar) -> None:
    """out[key] += c, dropping the key when the sum is zero."""
    prev = out.get(key)
    s = c if prev is None else prev + c
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


# --------------------------------------------------------------------------
# relation checks and the specialization report
# --------------------------------------------------------------------------


def check_h_relations(dh: DerivedHall, m_offsets=range(4)) -> list[tuple]:
    """The relation table of `presentation.relation_failures` on the simple
    generators z_{S_i}^[m], m in m_offsets, at t = u with boson constant
    u^-1/(u^2-1)."""
    const = dh.upow(-1) * (dh.upow(2) - dh.scalar(1)).inverse()
    boson = dh.scal(dh.one(), const)
    return relation_failures(dh.cartan, m_offsets, dh.z_simple, dh.qcommutator, boson)


def constant_identity_holds(q: int) -> bool:
    """(1 - u^-2) / (u (u - u^-1)^2) = u^-1 / (u^2 - 1), exactly."""
    one = UScalar.of(q, 1)
    u = UScalar.u(q)
    u_inv = u_power(q, -1)
    lhs = (one - u_power(q, -2)) * (u * (u - u_inv) * (u - u_inv)).inverse()
    rhs = u_inv * (u * u - one).inverse()
    return lhs == rhs


def iota_scalar_report(cat: CategoryQ, dh: DerivedHall, max_len: int = 3) -> dict:
    """Specialization consistency: products of level-zero generators expand
    the same way in both algebras, standard class by standard class, up to one
    scalar per class that is independent of the product used to reach it.

    On the character side the generators are the fundamental classes at the
    simple-root positions rescaled by 1/(u^(1/2)(u - u^-1)); on the Hall side
    they are the simple generators z_{S_i}^[0] of `dh`, built on the quiver
    of `cat`.  A character-side coefficient is taken to the Hall side's
    scalars by `specialize`.  Returns the scalar table and a consistency flag.
    """
    if max_len < 1:
        raise ValueError(f"maximum word length {max_len} selects no product to compare")
    q = dh.q
    cd = cat.cartan
    gens_t = cat.simple_generators()
    one = UScalar.of(q, 1)
    u = UScalar.u(q)
    resc = (UScalar.half_u(q) * (u - u_power(q, -1))).inverse()
    scalars: dict = {}
    spaces: dict = {}  # weight -> (its depths, its truncated standard classes)
    consistent = True
    witnesses = []
    for length in range(1, max_len + 1):
        for word in itertools.product(list(cd.vertices), repeat=length):
            # character side: expand the product in truncated standards
            prod_t = None
            for i in word:
                prod_t = gens_t[i] if prod_t is None else prod_t * gens_t[i]
            deg = tuple(word.count(i) for i in cd.vertices)
            if deg not in spaces:
                depth = cat.depths(deg)
                spaces[deg] = depth, cat.standards(depth)
            depth, std = spaces[deg]
            coeffs_t = expand_in_dominant_basis(prod_t, std, depth)
            # Hall side
            prod_h = dh.one()
            for i in word:
                prod_h = dh.mul(prod_h, dh.z_simple(i, 0))
            coeffs_h: dict = {}
            for w, c in prod_h.items():
                if len(w) > 1 or (w and w[0][0] != 0):
                    raise RuntimeError("level-zero product left level zero")
                iso = w[0][1] if w else IsoClass({})
                coeffs_h[iso] = c
            # compare class by class
            rescale = one
            for _ in word:
                rescale = rescale * resc
            for key in depth:
                avec = cat.xt.exponents(key)
                iso = IsoClass({cat.roots[k]: a for k, a in enumerate(avec) if a})
                ct = coeffs_t.get(key, HalfLaurent.zero())
                ch = coeffs_h.get(iso, UScalar.of(q, 0))
                tval = specialize(q, ct) * rescale
                if ch.is_zero() != tval.is_zero():
                    consistent = False
                    witnesses.append((word, avec, "support mismatch"))
                    continue
                if ch.is_zero():
                    continue
                rho = tval * ch.inverse()
                if avec in scalars:
                    if scalars[avec] != rho:
                        consistent = False
                        witnesses.append((word, avec, "scalar mismatch"))
                else:
                    scalars[avec] = rho
    return {"consistent": consistent, "scalars": scalars, "witnesses": witnesses}


def iota_check(cat: CategoryQ, q: int, max_len: int = 3, m_offsets=range(4)) -> dict:
    """Full specialization report: the constant identity, the brute-forced
    defining relations, and the standard-basis scalar consistency."""
    dh = DerivedHall(cat.quiver, q)
    rel_failures = check_h_relations(dh, m_offsets)
    report = iota_scalar_report(cat, dh, max_len)
    report["constant_identity"] = constant_identity_holds(q)
    report["relation_failures"] = rel_failures
    report["ok"] = (
        report["constant_identity"] and not rel_failures and report["consistent"]
    )
    return report
