"""Hall algebra computations over small finite fields, and the derived Hall
algebra of the bounded derived category of a small type-A quiver.

An isoclass is its vector a of multiplicities on the roots beta_k of the
adapted word, M_a = sum_k M(beta_k)^(a_k): the same label as the standard
class and the dual PBW vector at a.  In word order the hom table of the
indecomposables is lower unitriangular, so a representation's class is
solved from its hom fingerprint by integer forward substitution.

There is one `DerivedHall` per orientation and q per process, `derived_hall`,
built on its adapted word: it owns the tables of the quiver and the field and
every memo, among them the level-zero word products, the scalars rho(a) and
the relation table's q-commutators that each request compares.  The memos
depend only on (quiver, q), and each gamma's work cap does not depend on what
the instance has already memoised.  Nothing here reads the height function
but the adapted word, which compares heights only, so every shift of a height
function shares the instance of its orientation.

Both kinds of structure constant come from Riedtmann's formula.  The Hall
numbers g^W_{X,Y} of one pair (X, Y) are tallied at once: dim Hom(Y, X) and
the Euler form are read off the r x r tables the adapted word carries,
checked against the models when the instance is built, and dim Ext^1(Y, X)
is their difference; a split pair is one quotient of automorphism counts, and
otherwise Ext^1(Y, X) is the sum of the Ext^1 between their summands, whose
bases are computed once per quiver and field, and each nonsplit extension,
one per line, is built as a middle term and classified by its fingerprint.
Toen's gamma splits each four-term exact sequence at its middle image into
two short exact sequences, each counted by those Hall numbers; |Aut M| is
read off dim End M, since the indecomposables of mod(FQ) are bricks.  One
cap, `MAX_HALL_WORK`, bounds a Hall number and a gamma: the q^(dim Ext^1)
extensions to classify times the cube of the total dimension, checked
before any representation is built.  Scalars live in the exact ring
Q[x]/(x^4 - q), with u = sqrt(q) represented by x^2 so that half-integral
powers of u remain exact, and enter it by one map, `specialize`, from a
Laurent polynomial in t^(1/2) over a positive integer at t = u.  Nothing
divides in the ring: the two constants of this side are Laurent numerators
over t^2 - 1, which is the positive integer q - 1 at t = u.

The derived Hall algebra is spanned by normal-ordered words in generators
z_a^[m] with strictly decreasing level m; products are rewritten to normal
form by the same-level Hall rule, the adjacent-level gamma rule, and the
distant-level commutation rule.  Its defining relations on the simple
generators are not written out here: `check_h_relations` runs the relation
table of `presentation.relation_failures`, the one that K_t and U_q(n) use,
through `DerivedHall.qcommutator` at t = u.  The shift [1] of the derived
category is an autoequivalence (Toen, Derived Hall algebras, Duke Math. J.
135, 2006), so z^[m] -> z^[m+1] is an automorphism, and the table reads its
rows off the lowest level's once (a) the rewriting reads levels only through
their differences and fixes the boson term, and (b) each simple generator
is the one a level below raised by one (`check_h_relations`).  The
specialization report checks iota at each a as a product: the K_t
coefficient times the rescaling is rho(a) times the Hall coefficient.  The
constant identity checks that iota carries R2's inhomogeneous term in K_t
onto DH(Q)'s, on the constants the relation tables use.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import gcd

from .cartan import ResourceCap, iter_kostant_partitions, kostant_partitions, root_sum
from .characters import CategoryQ
from . import presentation
from .laurent import ONE, HalfLaurent
from .presentation import relation_failures
from .quiver import AdaptedWord, QuiverDatum


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
            # F_2[x]/(x^2+x+1) as 0, 1, x=2, x+1=3: adding is XOR on the bits
            mul = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
            self.add = self.sub = lambda a, b: a ^ b
            self.mul = lambda a, b: mul[a][b]
            self.inv = (0, 1, 3, 2).__getitem__
        else:
            raise ValueError(f"unsupported field size {q}")

    def elements(self):
        return range(self.q)


def rref(rows, F: GF) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over GF(q), the library's one elimination: the
    nonzero reduced rows, and the pivot column of each."""
    m = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(len(m[0]) if m else 0):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        s = F.inv(m[rank][col])
        m[rank] = [F.mul(s, x) for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[r], m[rank])]
        pivots.append(col)
    return m[: len(pivots)], pivots


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


def _hom_equations(M: Rep, N: Rep):
    """The linear equations phi_j M_a = N_a phi_i, one per arrow a = (i, j) and
    entry, on the entries of a homomorphism (phi_v): N.dims[v] x M.dims[v]
    blocks vertex by vertex.  Returns the equation rows, one per coordinate
    of sum_a Hom(M_i, N_j) (row r of N_j, column c of M_i, arrow by arrow),
    zero rows included, and the number of unknowns."""
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
    return rows, total


def hom_dim(M: Rep, N: Rep) -> int:
    """dim Hom(M, N): the unknowns less the rank of their equations."""
    rows, total = _hom_equations(M, N)
    return total - mat_rank(M.F, rows)


def iso_class(dh: "DerivedHall", rep: Rep) -> tuple[int, ...]:
    """Krull-Schmidt multiplicities a on the word's roots, by forward
    substitution on the hom table of `dh`: the fingerprint dim Hom(M_l, rep)
    = sum_k hom[l][k] a_k, whose entry at the projective P_v is dim rep_v, is
    a_l plus the terms of the k < l already solved."""
    a = []
    for l, row in enumerate(dh.hom):
        f = rep.dims[dh.proj[l]] if l in dh.proj else hom_dim(dh.models[l], rep)
        c = f - sum(x * y for x, y in zip(row, a))
        if c < 0:
            raise RuntimeError("fingerprint did not resolve to a Krull-Schmidt multiset")
        a.append(c)
    if root_sum(dh.roots, a) != rep.dims:
        raise RuntimeError("Krull-Schmidt decomposition has wrong dimension vector")
    return tuple(a)


# --------------------------------------------------------------------------
# Hall numbers by Riedtmann's formula
# --------------------------------------------------------------------------


def _form(table, Y, X) -> int:
    """Y^T table X, on the summands present."""
    xs = [(l, x) for l, x in enumerate(X) if x]
    return sum(y * x * table[k][l] for k, y in enumerate(Y) if y for l, x in xs)


def _check_work(work: int, what: str) -> None:
    if work > MAX_HALL_WORK:
        raise ResourceCap(f"{what}: work {work} (extensions x dimension^3) above cap {MAX_HALL_WORK}")


def hall_number(X, Y, W, word: AdaptedWord, q: int) -> int:
    """Number of subrepresentations of W isomorphic to X with quotient
    isomorphic to Y, read off the tally of `DerivedHall.hall_numbers` by the
    instance `derived_hall(word, q)`, which checks the quiver and the field
    when it is built."""
    return derived_hall(word, q).g_number(X, Y, W)


def toen_gamma(dh: "DerivedHall", X, Y, T, W) -> Fraction:
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
    cap does not depend on what `dh` has already memoised.

    The slot assignment (T first, W last) is the one under which the rank-one
    values come out right: gamma_{S_i,S_i}^{0,0} = 1/(q-1) and, for i != j,
    gamma_{S_i,S_j}^{S_j,S_i} = 1 with (q-1)^2 sequences.
    """
    dT, dY, dX, dW = map(dh.dims, (T, Y, X, W))
    dK = tuple(y - t for y, t in zip(dY, dT))
    if dK != tuple(x - w for x, w in zip(dX, dW)) or min(dK, default=0) < 0:
        return Fraction(0)
    _check_work(max(1, sum(dY)) ** 3, "gamma")
    work = 0
    for K in iter_kostant_partitions(dh.roots, dK):
        work += dh.work(T, K)
        _check_work(work, "gamma")

    aut, count = dh.aut, 0
    for K in dh.isoclasses(dK):
        g = dh.g_number(T, K, Y)
        if g:
            work += dh.work(K, W)
            _check_work(work, "gamma")
            count += aut(K) * g * dh.g_number(K, W, X)
    return Fraction(count * aut(T) * aut(W), aut(X) * aut(Y)) if count else Fraction(0)


# --------------------------------------------------------------------------
# exact scalars containing sqrt(q) and its square root
# --------------------------------------------------------------------------


class UScalar:
    """Element of Q[x]/(x^4 - q), with u = sqrt(q) represented by x^2.

    A scalar enters the ring only through `specialize`; every other one is
    built from those by the ring operations below, which have no division.
    u and u^(1/2) = x are units, so Laurent expressions in them are exact,
    and every other denominator is a positive integer given to `specialize`.
    The ring is a field for q in {2, 3}.  At q = 4, which `DerivedHall` also
    accepts, x^4 - 4 = (x^2 - 2)(x^2 + 2): u^2 = 4 but u != 2, and 2 + u is a
    zero divisor.  Every equality in the ring still holds at u = 2, so a
    check at q = 4 is at least as strict as one at u = 2.
    Stored as four integer numerators `n` over one positive denominator `d`
    in lowest terms, so the form is canonical: equal values have equal
    (n, d), and zero is (0, 0, 0, 0)/1."""

    __slots__ = ("q", "n", "d")

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

    def __repr__(self):
        bits = []
        for k, a in enumerate(self.n):
            if a:
                f = Fraction(a, self.d)
                bits.append(f"{f}*u^({k}/2)" if k else f"{f}")
        return " + ".join(bits) if bits else "0"


def _reduced(q: int, n0: int, n1: int, n2: int, n3: int, d: int) -> UScalar:
    """The UScalar (n0 + n1 x + n2 x^2 + n3 x^3) / d, d > 0, brought to lowest
    terms: `specialize` takes only positive denominators, and the ring
    operations multiply them."""
    if d != 1:
        g = gcd(n0, n1, n2, n3, d)
        if g != 1:
            n0, n1, n2, n3, d = n0 // g, n1 // g, n2 // g, n3 // g, d // g
    out = object.__new__(UScalar)
    out.q = q
    out.n = (n0, n1, n2, n3)
    out.d = d
    return out


def specialize(q: int, c: HalfLaurent, den: int = 1) -> UScalar:
    """c / den at t^(1/2) = u^(1/2) = x, den a positive integer, in one pass:
    each t^(e/2) goes to x^e = q^floor(e/4) x^(e mod 4), all over one
    denominator, den q^-s for the least power s <= 0 of q."""
    if den < 1:
        raise ValueError(f"denominator {den} is not a positive integer")
    low = min((0, *c.c)) // 4
    n = [0, 0, 0, 0]
    for e, v in c.items():
        n[e % 4] += v * q ** (e // 4 - low)
    return _reduced(q, *n, den * q**-low)


# The Hall side's two constants, each a Laurent numerator over t^2 - 1, so
# that `specialize(q, numerator, q - 1)` takes it to t = u: R2's inhomogeneous
# term in DH(Q), t^-1 / (t^2 - 1), and the rescaling of the generators,
# 1 / (t^(1/2) (t - t^-1)) = t^(1/2) / (t^2 - 1).
DH_BOSON_NUMERATOR = HalfLaurent({-2: 1})
RESCALING_NUMERATOR = HalfLaurent({1: 1})


# --------------------------------------------------------------------------
# the derived Hall algebra
# --------------------------------------------------------------------------


class DerivedHall:
    """The derived Hall algebra of the bounded derived category of the quiver
    over GF(q), twisted by the Euler form.  Basis: normal-ordered words
    ((m1, a1), (m2, a2), ...) with strictly decreasing levels, each isoclass
    a its vector of multiplicities on the roots of the adapted word.

    The instance owns everything that depends on the quiver and the field,
    built once: the adapted word with its roots beta_1, ..., beta_r
    (simple-root coordinates, 0/1 in type A) and its Euler and hom tables
    (`AdaptedWord.euler`, `AdaptedWord.hom`), the interval models M_k of the
    roots, the index v of each k with dim Hom(M_k, M) = dim M_v (M_k is the
    projective P_v), and a basis of each Ext^1(M_k, M_l), keyed (k, l): the
    coordinates (a, row, column) of sum_a Hom(M_k,i, M_l,j) whose equations
    of Hom(M_k, M_l) are off the pivots of the rref of their columns, which
    span a complement to the image.

    The word's hom table is lower unitriangular, so `iso_class` inverts it by
    forward substitution.  The same elimination that builds the Ext^1 bases
    checks the models against it, pair by pair: dim Hom(M_k, M_l) must be 0
    for k < l and 1 for k = l (else the word's order is wrong), and equal
    hom[k][l] = max(0, euler[k][l]) off the diagonal (else the models, the
    word or the Euler form are wrong).

    There is one instance per orientation and q per process, `derived_hall`.
    Its memos depend only on (quiver, q): |Aut M|, Hall numbers of each
    (X, Y), isoclasses, normal forms, rho(a), the level-zero word products
    and the q-commutators.  Each gamma's work cap
    does not depend on what the instance has already memoised."""

    def __init__(self, word: AdaptedWord, q: int):
        self.quiver = quiver = word.quiver
        _check_quiver(quiver)
        self.F = F = GF(q)
        self.q = q
        self.cartan = quiver.cartan
        self.word = word
        self.roots, self.hom = roots, hom = word.roots, word.hom
        r = len(roots)
        self.models = [self.model([int(k == l) for l in range(r)]) for k in range(r)]
        self.ext_bases = {}
        for k, l in itertools.product(range(r), repeat=2):
            rows, total = _hom_equations(self.models[k], self.models[l])
            pivots = rref(list(zip(*rows)), F)[1]
            if l >= k and total - len(pivots) != (k == l):
                raise RuntimeError("hom table is not unitriangular in word order")
            if total - len(pivots) != hom[k][l]:
                raise RuntimeError("hom table is not max(0, <beta_k, beta_l>) off the diagonal")
            s, t = roots[k], roots[l]
            coords = [(a, x, y) for a in quiver.arrows for x in range(t[a[1] - 1]) for y in range(s[a[0] - 1])]
            self.ext_bases[k, l] = [c for i, c in enumerate(coords) if i not in pivots]
        self.proj = {
            k: v for k in range(r) for v in range(self.cartan.n) if all(hom[k][l] == roots[l][v] for l in range(r))
        }
        self._simple = {i: tuple(int(sum(b) == b[i - 1] == 1) for b in roots) for i in self.cartan.vertices}
        self._one = specialize(q, ONE)
        self._g: dict = {}
        self._aut: dict = {}
        self._isos: dict = {}
        self._nf: dict = {}
        self._rho: dict = {}
        self._words: dict = {}
        self._qcomm: dict = {}

    # -- the representations and their structure constants -------------------

    def model(self, a) -> Rep:
        """M_a, the sum of a_k copies of the interval module of each root
        beta_k (a 0/1 vector in type A), copies in word order: at each arrow
        the 0/1 matrix that maps every copy present at the source to itself
        at the target."""
        parts = [self.roots[k] for k, c in enumerate(a) for _ in range(c)]
        at = [[p for p, b in enumerate(parts) if b[v]] for v in range(self.cartan.n)]
        arrows = self.quiver.arrows
        mats = {(i, j): tuple(tuple(int(p == s) for s in at[i - 1]) for p in at[j - 1]) for (i, j) in arrows}
        return Rep(self.quiver, self.F, map(len, at), mats)

    def euler(self, x, y) -> int:
        return _form(self.word.euler, x, y)

    def dims(self, a) -> tuple[int, ...]:
        return root_sum(self.roots, a)

    def hom_ext(self, X, Y) -> tuple[int, int]:
        """dim Hom(Y, X) = Y^T hom X and <dim Y, dim X> = Y^T euler X on the
        tables, and dim Ext^1(Y, X) = dim Hom(Y, X) - <dim Y, dim X>."""
        h = _form(self.hom, Y, X)
        return h, h - self.euler(Y, X)

    def work(self, X, Y) -> int:
        """The work of the Hall numbers g^W_{X,Y}: the q^(dim Ext^1(Y, X))
        extensions to classify, times D^3 for the equations of each, D the
        total dimension of X + Y.  Nothing else grows faster: Ext^1 is read
        off the bases between indecomposables, with no elimination on the
        pair's whole hom map.  The extensions are not counted when D^3 alone
        is past the cap."""
        work = max(1, sum((x + y) * sum(r) for x, y, r in zip(X, Y, self.roots))) ** 3
        if work <= MAX_HALL_WORK:
            work *= self.q ** self.hom_ext(X, Y)[1]
        return work

    def rho(self, a) -> UScalar:
        """rho(a) = u^(dim End M_a - <d, d>/2) / |Aut M_a|, d the dimension
        vector of a: the scalar iota takes the standard class at a to, over
        the Hall class z_a; memoised by class."""
        out = self._rho.get(a)
        if out is None:
            e2 = 2 * self.hom_ext(a, a)[0] - self.euler(a, a)
            out = self._rho[a] = specialize(self.q, HalfLaurent.t_power(e2), self.aut(a))
        return out

    def aut(self, M) -> int:
        """|Aut M| = q^(dim End M - sum m^2) prod_m |GL_m(F_q)|, m running over
        the multiplicities of M's indecomposables, with dim End M = M^T hom M
        read off the hom table; memoised by class.  The indecomposables are
        bricks (End = F_q), so End M / rad End M is the product of the
        M_m(F_q), and an endomorphism is a unit exactly when its image there
        is."""
        out = self._aut.get(M)
        if out is None:
            q = self.q
            out = q ** (_form(self.hom, M, M) - sum(m * m for m in M))
            for m in M:
                for i in range(m):
                    out *= q**m - q**i
            self._aut[M] = out
        return out

    def hall_numbers(self, X, Y) -> dict:
        """{W: g^W_{X,Y}}, zeros left out, by Riedtmann's formula, memoised by
        (X, Y),

            g^W_{X,Y} = |Ext^1(Y, X)_W| |Aut W| / (|Aut X| |Aut Y| q^(dim Hom(Y, X))),

        Ext^1(Y, X)_W the extensions 0 -> X -> W -> Y -> 0 with middle term W.
        Ext^1(Y, X) is the cokernel of delta(phi)_a = phi_j Y_a - X_a phi_i
        from the vertex maps to the arrow maps sum_a Hom(Y_i, X_j).  On the
        models, direct sums of copies of indecomposables, delta is block
        diagonal in the pairs of copies, so a complement to its image is the
        sum of the Ext^1 bases, each shifted to its pair's block of eta_a.  A
        nonzero eta there is the middle term [[X_a, eta_a], [0, Y_a]],
        classified by `iso_class` once per line; eta = 0 is the split X + Y."""
        key = (X, Y)
        if key in self._g:
            return self._g[key]
        _check_work(self.work(X, Y), "Hall number")
        q, roots = self.q, self.roots
        hom, ext = self.hom_ext(X, Y)
        counts = Counter({tuple(x + y for x, y in zip(X, Y)): 1})
        if ext:
            RX, RY = self.model(X), self.model(Y)
            xs, ys = ([k for k, m in enumerate(Z) for _ in range(m)] for Z in (X, Y))
            free = [
                (a, sum(roots[t][a[1] - 1] for t in xs[:p]) + x, sum(roots[t][a[0] - 1] for t in ys[:u]) + y)
                for p, kx in enumerate(xs)
                for u, ky in enumerate(ys)
                for a, x, y in self.ext_bases[ky, kx]
            ]
            if len(free) != ext:
                raise RuntimeError(f"Ext^1 has dimension {len(free)} by rank but {ext} by the hom table")
            dims = tuple(x + y for x, y in zip(RX.dims, RY.dims))
            for values in itertools.product(self.F.elements(), repeat=ext):
                # eta and c eta have isomorphic middle terms: one per line, q - 1 times
                if next((v for v in values if v), 0) != 1:
                    continue
                eta, mats = dict(zip(free, values)), {}
                for a in self.quiver.arrows:
                    yi = RY.dims[a[0] - 1]
                    top = [row + tuple(eta.get((a, r, c), 0) for c in range(yi)) for r, row in enumerate(RX.mats[a])]
                    mats[a] = top + [(0,) * RX.dims[a[0] - 1] + row for row in RY.mats[a]]
                counts[iso_class(self, Rep(self.quiver, self.F, dims, mats))] += q - 1
        aut = self.aut
        den = aut(X) * aut(Y) * q**hom
        out = {}
        for W, c in counts.items():
            g, r = divmod(c * aut(W), den)
            if r:
                raise RuntimeError(f"Riedtmann's quotient {g * den + r}/{den} is not integral")
            out[W] = g
        self._g[key] = out
        return out

    def g_number(self, x, y, w) -> int:
        if tuple(a + b for a, b in zip(self.dims(x), self.dims(y))) != self.dims(w):
            return 0
        return self.hall_numbers(x, y).get(w, 0)

    def isoclasses(self, d) -> list[tuple[int, ...]]:
        """The isoclasses of dimension vector d: its Kostant partitions on the
        word's roots, in decreasing lexicographic order, memoised."""
        d = tuple(d)
        if d not in self._isos:
            self._isos[d] = kostant_partitions(self.roots, d)
        return self._isos[d]

    def gamma_terms(self, x, y) -> list[tuple[tuple, tuple, UScalar]]:
        """(T, W, u^(-<Y, X> - <W, T>) gamma_{X,Y}^{T,W}) for each nonzero gamma,
        the terms of the adjacent-level rewriting, each specialized once."""
        dx, dy = self.dims(x), self.dims(y)
        out = []
        for dt in itertools.product(*[range(d + 1) for d in dy]):
            dw = tuple(a - b + c for a, b, c in zip(dx, dy, dt))
            if min(dw) < 0:
                continue
            for t in self.isoclasses(dt):
                for w in self.isoclasses(dw):
                    g = toen_gamma(self, x, y, t, w)
                    if g:
                        e2 = -2 * (self.euler(y, x) + self.euler(w, t))
                        out.append((t, w, specialize(self.q, HalfLaurent({e2: g.numerator}), g.denominator)))
        return out

    # -- elements -------------------------------------------------------------

    def one(self) -> dict:
        return {(): self._one}

    def z_simple(self, i: int, m: int) -> dict:
        return {((m, self._simple[i]),): self._one}

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

    def mul(self, a: dict, b: dict) -> dict:
        out: dict = {}
        for w1, c1 in a.items():
            for w2, c2 in b.items():
                c12 = c1 * c2
                for w3, c3 in self._normalize(w1 + w2):
                    _accumulate(out, w3, c12 * c3)
        return out

    def simple_words(self, length: int) -> dict[tuple[int, ...], dict]:
        """Each word of the length in the vertices, in lexicographic order,
        with the product of the level-zero generators z_{S_i}^[0] along it.
        Each product extends its prefix's; the words of a length are memoised
        together and stored only once every one is complete."""
        if length not in self._words:
            prefixes = self.simple_words(length - 1) if length > 1 else {(): self.one()}
            self._words[length] = {
                word: self.mul(prefixes[word[:-1]], self.z_simple(word[-1], 0))
                for word in itertools.product(self.cartan.vertices, repeat=length)
            }
        return self._words[length]

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
                pref = specialize(self.q, HalfLaurent.t_power(2 * self.euler(y, x)))
                for w, g in self.hall_numbers(x, y).items():
                    coeff = pref.scale_int(g)
                    for w3, c3 in self._normalize(head + ((m1, w),) + tail):
                        _accumulate(out, w3, coeff * c3)
            elif m2 == m1 + 1:
                for t, w, coeff in self.gamma_terms(x, y):
                    mid = ()
                    if any(t):
                        mid += ((m2, t),)
                    if any(w):
                        mid += ((m1, w),)
                    for w3, c3 in self._normalize(head + mid + tail):
                        _accumulate(out, w3, coeff * c3)
            else:
                pref = specialize(self.q, HalfLaurent.t_power(2 * (-1) ** (m2 - m1) * (self.euler(x, y) + self.euler(y, x))))
                for w3, c3 in self._normalize(head + ((m2, y), (m1, x)) + tail):
                    _accumulate(out, w3, pref * c3)
            return tuple(out.items())
        return ((word, self._one),)

    def qcommutator(self, a: dict, b: dict, exp2: int) -> dict:
        """a b - u^(exp2/2) b a; memoised by the operands' contents and exp2,
        stored once complete.  Callers never change the result."""
        key = (frozenset(a.items()), frozenset(b.items()), exp2)
        out = self._qcomm.get(key)
        if out is None:
            c = specialize(self.q, HalfLaurent({exp2: -1}))
            out = self._qcomm[key] = self.add(self.mul(a, b), self.scal(self.mul(b, a), c))
        return out


def _accumulate(out: dict, key, c: UScalar) -> None:
    """out[key] += c, dropping the key when the sum is zero."""
    prev = out.get(key)
    s = c if prev is None else prev + c
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


_registry: dict[tuple, DerivedHall] = {}


def derived_hall(word: AdaptedWord, q: int) -> DerivedHall:
    """The one `DerivedHall` of the word's orientation and q in this process,
    built on first use: keyed on the arrows, not the heights."""
    key = (word.quiver.cartan, frozenset(word.quiver.arrows), q)
    if key not in _registry:
        _registry[key] = DerivedHall(word, q)
    return _registry[key]


# --------------------------------------------------------------------------
# relation checks and the specialization report
# --------------------------------------------------------------------------


def _raised(word: tuple, k: int = 1) -> tuple:
    """The word with every letter's level raised by k: the shift [k]."""
    return tuple((m + k, a) for m, a in word)


def check_h_relations(dh: DerivedHall, m_offsets=range(4)) -> list[tuple]:
    """The relation table of `presentation.relation_failures` on the simple
    generators z_{S_i}^[m], m in m_offsets, at t = u with boson constant
    u^-1/(u^2-1), `DH_BOSON_NUMERATOR` over q - 1.

    The rows are read off those of the lowest level when the shift holds:
    (a) `DerivedHall._rewrite` reads levels only through m1 > m2, m1 = m2,
    m2 = m1 + 1 and the parity of m2 - m1, so raising every letter's level by
    one commutes with `mul` and `qcommutator`, and it fixes the boson term, a
    scalar times the empty word; (b), checked here on every request: for
    every level m below the top and every vertex i, z_simple(i, m + 1) is
    z_simple(i, m) with every letter's level raised by one.  When (b) fails
    the whole table is computed.

    Each q-commutator is memoised on `dh`; the generators, (b), the boson
    term and each row's comparison run on every call."""
    boson = dh.scal(dh.one(), specialize(dh.q, DH_BOSON_NUMERATOR, dh.q - 1))
    translated = all(
        dh.z_simple(i, m + 1) == {_raised(w): c for w, c in dh.z_simple(i, m).items()}
        for m in m_offsets[:-1]
        for i in dh.cartan.vertices
    )
    return relation_failures(dh.quiver, m_offsets, dh.z_simple, dh.qcommutator, boson, translated)


def constant_identity_holds(q: int) -> bool:
    """iota carries R2's inhomogeneous term in K_t onto DH(Q)'s, exactly: the
    boson term `presentation.BOSON` = 1 - t^-2 of K_t at t = u, times the
    square of the generator rescaling, is the boson term u^-1/(u^2 - 1) of
    DH(Q), on the constants the relation checks and the scalar report use."""
    resc = specialize(q, RESCALING_NUMERATOR, q - 1)
    return specialize(q, presentation.BOSON) * resc * resc == specialize(q, DH_BOSON_NUMERATOR, q - 1)


def iota_scalar_report(cat: CategoryQ, dh: DerivedHall, max_len: int = 3) -> dict:
    """Specialization consistency: products of level-zero generators expand
    the same way in both algebras, standard class by standard class, up to one
    scalar per class that is independent of the product used to reach it.

    On the character side the generators are the fundamental classes at the
    simple-root positions rescaled by 1/(u^(1/2)(u - u^-1)) = u^(1/2)/(q - 1);
    on the Hall side they are the simple generators z_{S_i}^[0] of `dh`,
    built on the quiver of `cat`.  A character-side coefficient is taken to
    the Hall side's scalars by `specialize`.  The scalar of the class a of
    dimension vector d is the closed form rho(a) = u^(dim End M_a - <d, d>/2)
    / |Aut M_a|, checked as a product: the rescaled character-side
    coefficient equals rho(a) times the Hall coefficient.  Returns rho(a) of
    every class the products reach and a consistency flag.

    What depends only on the orientation or on (orientation, q) stays warm:
    the character-side coefficients of each word on `cat`
    (`CategoryQ.simple_words`), shared by every q; on `dh`, the Hall-side
    product of each word and rho(a) (`DerivedHall.simple_words`,
    `DerivedHall.rho`) and the q-commutators of `iota_check`'s relation
    table.  The comparison itself, the specialization, the
    rescaling and the support and scalar witnesses, runs on every call, so
    a changed constant fails a warm request as it fails a fresh one.
    """
    if max_len < 1:
        raise ValueError(f"maximum word length {max_len} selects no product to compare")
    q = dh.q
    resc = specialize(q, RESCALING_NUMERATOR, q - 1)
    rescale = specialize(q, ONE)
    scalars: dict = {}  # class -> rho(a)
    witnesses = []
    for length in range(1, max_len + 1):
        rescale = rescale * resc
        words_t, words_h = cat.simple_words(length), dh.simple_words(length)
        for word, coeffs_t in words_t.items():
            # the Hall side's level-zero words are keyed by the same vectors a
            prod_h = words_h[word]
            if any(len(w) > 1 or (w and w[0][0] != 0) for w in prod_h):
                raise RuntimeError("level-zero product left level zero")
            # compare class by class
            for key in cat.depths(tuple(map(word.count, cat.cartan.vertices))):
                avec = cat.xt.exponents(key)
                ct = coeffs_t.get(key, HalfLaurent.zero())
                ch = prod_h.get(((0, avec),))  # None where zero: a product stores no zero
                tval = specialize(q, ct) * rescale
                if (ch is None) != tval.is_zero():
                    witnesses.append((word, avec, "support mismatch"))
                    continue
                if ch is None:
                    continue
                rho = scalars[avec] = dh.rho(avec)
                if tval != rho * ch:
                    witnesses.append((word, avec, "scalar mismatch"))
    return {"consistent": not witnesses, "scalars": scalars, "witnesses": witnesses}


def iota_check(cat: CategoryQ, q: int, max_len: int = 3, m_offsets=range(4)) -> dict:
    """Full specialization report: the constant identity, the brute-forced
    defining relations, and the standard-basis scalar consistency."""
    dh = derived_hall(cat.qctx.word, q)
    rel_failures = check_h_relations(dh, m_offsets)
    report = iota_scalar_report(cat, dh, max_len)
    report["constant_identity"] = constant_identity_holds(q)
    report["relation_failures"] = rel_failures
    report["ok"] = (
        report["constant_identity"] and not rel_failures and report["consistent"]
    )
    return report
