"""Brute-force Hall algebra computations over small finite fields, and the
derived Hall algebra of the bounded derived category of a small type-A quiver.

Everything here is counted, not derived: Hall numbers enumerate stable
subspace families, Toen's gamma enumerates four-term exact sequences of
homomorphism triples, and automorphism groups are enumerated from bases of
homomorphism spaces.  Scalars live in the exact field Q[x]/(x^4 - q), with
u = sqrt(q) represented by x^2 so that half-integral powers of u remain exact.

The derived Hall algebra is spanned by normal-ordered words in generators
z_X^[m] with strictly decreasing level m; products are rewritten to normal
form by the same-level Hall rule, the adjacent-level gamma rule, and the
distant-level commutation rule.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .cartan import QQ, CartanDatum, ResourceCap, rref, solve
from .characters import CategoryQ, expand_in_dominant_basis
from .laurent import HalfLaurent
from .quiver import QuiverDatum, ringel_form


MAX_RANK = 3
MAX_FIELD = 4
MAX_SUBMODULE_DIM = 4
MAX_HOM_ENUM = 4_000_000


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


def mat_mul(F: GF, A, B):
    return tuple(
        tuple(
            _dot(F, A[i], tuple(B[k][j] for k in range(len(B))))
            for j in range(len(B[0]) if B else 0)
        )
        for i in range(len(A))
    )


def _dot(F: GF, u, v):
    s = 0
    for a, b in zip(u, v):
        s = F.add(s, F.mul(a, b))
    return s


def mat_rank(F: GF, rows) -> int:
    return len(rref(rows, F)[1])


def nullspace_basis(F: GF, rows, nvars: int):
    """Basis of the right nullspace of the matrix given by rows."""
    red, pivots = rref(rows, F)
    basis = []
    for fc in (c for c in range(nvars) if c not in pivots):
        v = [0] * nvars
        v[fc] = 1
        for row, pc in zip(red, pivots):
            v[pc] = F.sub(0, row[fc])
        basis.append(tuple(v))
    return basis


# --------------------------------------------------------------------------
# type-A quiver representations
# --------------------------------------------------------------------------


class Rep:
    """Representation of a type-A quiver over GF(q): one matrix per arrow,
    column-vector convention (shape target x source)."""

    def __init__(self, quiver: QuiverDatum, F: GF, dims, mats):
        self.quiver = quiver
        self.F = F
        self.dims = tuple(dims)
        self.mats = dict(mats)  # arrow (i,j) -> matrix

    def total_dim(self) -> int:
        return sum(self.dims)


def _check_quiver(quiver: QuiverDatum) -> None:
    if quiver.cartan.kind != "A" or quiver.cartan.n > MAX_RANK:
        raise ResourceCap(f"Hall computations capped at type A rank {MAX_RANK}")


def root_interval(cartan: CartanDatum, root_coords) -> tuple[int, int]:
    ones = [i + 1 for i, c in enumerate(root_coords) if c == 1]
    if not ones or any(c not in (0, 1) for c in root_coords):
        raise ValueError("not a type-A positive root")
    return ones[0], ones[-1]


def interval_rep(quiver: QuiverDatum, F: GF, a: int, b: int) -> Rep:
    n = quiver.cartan.n
    dims = tuple(1 if a <= v <= b else 0 for v in range(1, n + 1))
    mats = {}
    for (i, j) in quiver.arrows:
        di, dj = dims[i - 1], dims[j - 1]
        mats[(i, j)] = ((1,),) if di and dj else _zero(dj, di)
    return Rep(quiver, F, dims, mats)


def _zero(rows: int, cols: int):
    return tuple(tuple(0 for _ in range(cols)) for _ in range(rows))


def direct_sum(quiver: QuiverDatum, F: GF, reps) -> Rep:
    n = quiver.cartan.n
    dims = tuple(sum(r.dims[v] for r in reps) for v in range(n))
    mats = {}
    for (i, j) in quiver.arrows:
        rows = []
        roff = 0
        coff = 0
        big = [[0] * dims[i - 1] for _ in range(dims[j - 1])]
        for r in reps:
            for rr in range(r.dims[j - 1]):
                for cc in range(r.dims[i - 1]):
                    big[roff + rr][coff + cc] = r.mats[(i, j)][rr][cc]
            roff += r.dims[j - 1]
            coff += r.dims[i - 1]
        mats[(i, j)] = tuple(tuple(row) for row in big)
    return Rep(quiver, F, dims, mats)


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

    def total_dim(self) -> int:
        return sum(c * sum(r) for r, c in self.mults)

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
    _check_quiver(quiver)
    parts = []
    for r, c in iso.mults:
        a, b = root_interval(quiver.cartan, r)
        parts.extend([interval_rep(quiver, F, a, b)] * c)
    if not parts:
        return Rep(quiver, F, (0,) * quiver.cartan.n, {a: _zero(0, 0) for a in quiver.arrows})
    return direct_sum(quiver, F, parts)


def hom_basis(M: Rep, N: Rep):
    """Basis of Hom(M, N): tuples of per-vertex matrices."""
    F = M.F
    n = M.quiver.cartan.n
    # unknowns: entries of phi_v (N.dims[v] x M.dims[v]), vertex by vertex
    offsets = []
    total = 0
    for v in range(n):
        offsets.append(total)
        total += N.dims[v] * M.dims[v]
    rows = []
    for (i, j) in M.quiver.arrows:
        # phi_j M_a - N_a phi_i = 0, one equation per (row of N_j, col of M_i)
        for r in range(N.dims[j - 1]):
            for c in range(M.dims[i - 1]):
                row = [0] * total
                for k in range(M.dims[j - 1]):
                    idx = offsets[j - 1] + r * M.dims[j - 1] + k
                    row[idx] = F.add(row[idx], M.mats[(i, j)][k][c])
                for k in range(N.dims[i - 1]):
                    idx = offsets[i - 1] + k * M.dims[i - 1] + c
                    row[idx] = F.sub(row[idx], N.mats[(i, j)][r][k])
                if any(row):
                    rows.append(tuple(row))
    basis_vecs = nullspace_basis(F, rows, total) if total else []
    out = []
    for vec in basis_vecs:
        mats = []
        for v in range(n):
            o = offsets[v]
            mats.append(
                tuple(
                    tuple(vec[o + r * M.dims[v] + c] for c in range(M.dims[v]))
                    for r in range(N.dims[v])
                )
            )
        out.append(tuple(mats))
    return out


def hom_dim(M: Rep, N: Rep) -> int:
    return len(hom_basis(M, N))


def _hom_elements(F: GF, basis, shapes, cap: int = MAX_HOM_ENUM):
    """All elements of a hom space given a basis; shapes = per-vertex (rows, cols)."""
    if F.q ** len(basis) > cap:
        raise ResourceCap("homomorphism space too large to enumerate")
    if not basis:
        yield tuple(_zero(r, c) for r, c in shapes)
        return
    nverts = len(shapes)
    for combo in itertools.product(F.elements(), repeat=len(basis)):
        mats = []
        for v in range(nverts):
            rows, cols = shapes[v]
            m = [[0] * cols for _ in range(rows)]
            for coef, bvec in zip(combo, basis):
                if coef:
                    for r in range(rows):
                        for c in range(cols):
                            m[r][c] = F.add(m[r][c], F.mul(coef, bvec[v][r][c]))
            mats.append(tuple(tuple(r) for r in m))
        yield tuple(mats)


@lru_cache(maxsize=None)
def _iso_tables(quiver: QuiverDatum, q: int):
    """All positive-root interval models, and the inverse of the Gram matrix
    of hom dimensions between them.

    mod(FQ) is directed, so that Gram matrix is unitriangular in
    Auslander-Reiten order and its inverse is an integer matrix; a rational
    entry means the models are wrong."""
    _check_quiver(quiver)
    F = GF(q)
    cd = quiver.cartan
    roots = [tuple(cd.root_coords(b)) for b in cd.positive_roots()]
    models = {r: interval_rep(quiver, F, *root_interval(cd, r)) for r in roots}
    gram = [[hom_dim(models[r1], models[r2]) for r2 in roots] for r1 in roots]
    eye = [[int(i == j) for j in range(len(roots))] for i in range(len(roots))]
    inv = solve(gram, eye, QQ)
    if any(Fraction(x).denominator != 1 for row in inv for x in row):
        raise RuntimeError("Gram matrix of hom dimensions is not unimodular")
    return roots, models, tuple(tuple(int(x) for x in row) for row in inv)


def iso_class(rep: Rep, q: int) -> IsoClass:
    """Krull-Schmidt decomposition through the hom-dimension fingerprint: the
    multiplicities are the inverse Gram matrix times the fingerprint."""
    roots, models, gram_inv = _iso_tables(rep.quiver, q)
    fing = [hom_dim(models[r], rep) for r in roots]
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
# subspace enumeration and Hall numbers
# --------------------------------------------------------------------------


def _all_subspaces(F: GF, d: int, k: int):
    """All k-dimensional subspaces of F^d, as d x k basis-column matrices."""
    if k == 0:
        yield tuple(tuple() for _ in range(d))
        return
    seen = set()
    vectors = [v for v in itertools.product(F.elements(), repeat=d) if any(v)]
    for combo in itertools.combinations(vectors, k):
        red, pivots = rref(combo, F)
        if len(pivots) != k:
            continue
        canon = tuple(map(tuple, red))
        if canon in seen:
            continue
        seen.add(canon)
        yield tuple(tuple(combo[j][i] for j in range(k)) for i in range(d))


def _in_colspan(F: GF, basis_cols, vec) -> bool:
    """Is vec in the column span of basis_cols (d x k)?"""
    d = len(basis_cols)
    k = len(basis_cols[0]) if d else 0
    rows = [tuple(basis_cols[i][j] for i in range(d)) for j in range(k)]
    return mat_rank(F, list(rows) + [tuple(vec)]) == mat_rank(F, rows) if rows else not any(vec)


def hall_number(X: IsoClass, Y: IsoClass, W: IsoClass, quiver: QuiverDatum, q: int) -> int:
    """Number of subrepresentations of W isomorphic to X with quotient
    isomorphic to Y."""
    _check_quiver(quiver)
    n = quiver.cartan.n
    if tuple(a + b for a, b in zip(X.dims(n), Y.dims(n))) != W.dims(n):
        return 0
    if W.total_dim() > MAX_SUBMODULE_DIM:
        raise ResourceCap(f"total dimension above cap {MAX_SUBMODULE_DIM}")
    F = GF(q)
    RW = model_rep(quiver, F, W)
    dx = X.dims(n)
    count = 0
    for bases in itertools.product(
        *[_all_subspaces(F, RW.dims[v], dx[v]) for v in range(n)]
    ):
        stable = True
        for (i, j) in quiver.arrows:
            bi, bj = bases[i - 1], bases[j - 1]
            for col in range(dx[i - 1]):
                vec = tuple(
                    _dot(F, RW.mats[(i, j)][r], tuple(bi[s][col] for s in range(RW.dims[i - 1])))
                    for r in range(RW.dims[j - 1])
                )
                if not _in_colspan(F, bj, vec):
                    stable = False
                    break
            if not stable:
                break
        if not stable:
            continue
        sub, quo = _sub_quotient(RW, bases)
        if iso_class(sub, q) == X and iso_class(quo, q) == Y:
            count += 1
    return count


def _sub_quotient(RW: Rep, bases):
    """Sub- and quotient representations cut out by stable subspace bases."""
    F = RW.F
    n = RW.quiver.cartan.n
    # extend each basis to a full basis; P_v columns: sub basis then complement
    P = []
    for v in range(n):
        d = RW.dims[v]
        cols = [tuple(bases[v][i][j] for i in range(d)) for j in range(len(bases[v][0]) if d else 0)]
        for cand in itertools.product(F.elements(), repeat=d):
            if len(cols) == d:
                break
            if mat_rank(F, cols + [cand]) > len(cols):
                cols.append(cand)
        P.append(cols)
    sub_dims = tuple(len(bases[v][0]) if RW.dims[v] else 0 for v in range(n))
    sub_mats = {}
    quo_mats = {}
    for (i, j) in RW.quiver.arrows:
        di, dj = RW.dims[i - 1], RW.dims[j - 1]
        ki, kj = sub_dims[i - 1], sub_dims[j - 1]
        mp = [[_dot(F, RW.mats[(i, j)][r], P[i - 1][col]) for col in range(di)] for r in range(dj)]
        pj = [[P[j - 1][c][r] for c in range(dj)] for r in range(dj)]
        conj = solve(pj, mp, F)  # P_j^-1 M P_i
        sub_mats[(i, j)] = tuple(tuple(conj[r][c] for c in range(ki)) for r in range(kj))
        quo_mats[(i, j)] = tuple(
            tuple(conj[r][c] for c in range(ki, di)) for r in range(kj, dj)
        )
    sub = Rep(RW.quiver, F, sub_dims, sub_mats)
    quo = Rep(RW.quiver, F, tuple(RW.dims[v] - sub_dims[v] for v in range(n)), quo_mats)
    return sub, quo


def aut_count(M: Rep, q: int) -> int:
    F = M.F
    shapes = [(d, d) for d in M.dims]
    count = 0
    for mats in _hom_elements(F, hom_basis(M, M), shapes):
        if all(mat_rank(F, mats[v]) == M.dims[v] for v in range(len(M.dims))):
            count += 1
    return count


def toen_gamma(
    X: IsoClass, Y: IsoClass, T: IsoClass, W: IsoClass, quiver: QuiverDatum, q: int
) -> Fraction:
    """gamma_{X,Y}^{T,W}: the count of exact sequences 0 -> T -> Y -> X -> W -> 0
    divided by |Aut X| |Aut Y|.

    The slot assignment (T first, W last) is the one under which the rank-one
    values come out right: gamma_{S_i,S_i}^{0,0} = 1/(q-1) and, for i != j,
    gamma_{S_i,S_j}^{S_j,S_i} = 1 with (q-1)^2 sequences.
    """
    return _gamma_raw(T, Y, X, W, quiver, q)


def _gamma_raw(
    W: IsoClass, Y: IsoClass, X: IsoClass, T: IsoClass, quiver: QuiverDatum, q: int
) -> Fraction:
    """|{exact 0 -> W -> Y -> X -> T -> 0}| / (|Aut X| |Aut Y|)."""
    _check_quiver(quiver)
    n = quiver.cartan.n
    dW, dY, dX, dT = (Z.dims(n) for Z in (W, Y, X, T))
    if any(dW[v] - dY[v] + dX[v] - dT[v] != 0 for v in range(n)):
        return Fraction(0)
    F = GF(q)
    RW, RY, RX, RT = (model_rep(quiver, F, Z) for Z in (W, Y, X, T))
    hf = hom_basis(RW, RY)
    hg = hom_basis(RY, RX)
    hh = hom_basis(RX, RT)
    if F.q ** (len(hf) + len(hg) + len(hh)) > MAX_HOM_ENUM:
        raise ResourceCap("exact-sequence enumeration too large")
    sf = [(dY[v], dW[v]) for v in range(n)]
    sg = [(dX[v], dY[v]) for v in range(n)]
    sh = [(dT[v], dX[v]) for v in range(n)]
    count = 0
    for f in _hom_elements(F, hf, sf):
        if any(mat_rank(F, f[v]) != dW[v] for v in range(n)):
            continue
        for g in _hom_elements(F, hg, sg):
            gok = True
            for v in range(n):
                if dW[v] and dX[v] and any(any(row) for row in mat_mul(F, g[v], f[v])):
                    gok = False
                    break
                if mat_rank(F, g[v]) != dY[v] - dW[v]:
                    gok = False
                    break
            if not gok:
                continue
            for h in _hom_elements(F, hh, sh):
                ok = True
                for v in range(n):
                    if dY[v] and dT[v] and any(any(row) for row in mat_mul(F, h[v], g[v])):
                        ok = False
                        break
                    rh = mat_rank(F, h[v])
                    if rh != dT[v] or (dY[v] - dW[v]) + rh != dX[v]:
                        ok = False
                        break
                if ok:
                    count += 1
    return Fraction(count, aut_count(RX, q) * aut_count(RY, q))


# --------------------------------------------------------------------------
# exact scalars containing sqrt(q) and its square root
# --------------------------------------------------------------------------


class UScalar:
    """Element of Q[x]/(x^4 - q), with u = sqrt(q) represented by x^2.

    Irreducible for q in {2, 3}, which is all the derived Hall computations
    need; u and u^(1/2) = x are units, so Laurent expressions in them are
    exact."""

    __slots__ = ("q", "c")

    def __init__(self, q: int, coeffs=None):
        self.q = q
        c = [Fraction(0)] * 4
        if coeffs is not None:
            for k, v in enumerate(coeffs):
                c[k] = Fraction(v)
        self.c = tuple(c)

    @staticmethod
    def of(q: int, value) -> "UScalar":
        return UScalar(q, [Fraction(value), 0, 0, 0])

    @staticmethod
    def u(q: int) -> "UScalar":
        return UScalar(q, [0, 0, 1, 0])

    @staticmethod
    def half_u(q: int) -> "UScalar":
        return UScalar(q, [0, 1, 0, 0])

    def __add__(self, other: "UScalar") -> "UScalar":
        return UScalar(self.q, [a + b for a, b in zip(self.c, other.c)])

    def __neg__(self) -> "UScalar":
        return UScalar(self.q, [-a for a in self.c])

    def __sub__(self, other: "UScalar") -> "UScalar":
        return self + (-other)

    def __mul__(self, other: "UScalar") -> "UScalar":
        out = [Fraction(0)] * 7
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(other.c):
                    if b:
                        out[i + j] += a * b
        for k in range(6, 3, -1):
            if out[k]:
                out[k - 4] += self.q * out[k]
                out[k] = Fraction(0)
        return UScalar(self.q, out[:4])

    def scale_int(self, n: int) -> "UScalar":
        return UScalar(self.q, [a * n for a in self.c])

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.c)

    def __eq__(self, other) -> bool:
        return isinstance(other, UScalar) and self.q == other.q and self.c == other.c

    def __hash__(self):
        return hash((self.q, self.c))

    def inverse(self) -> "UScalar":
        # With abar(x) = a(-x), a * abar = b0 + b2 x^2 is even and
        # (b0 + b2 x^2)(b0 - b2 x^2) = b0^2 - q b2^2 = N, the norm of a; so
        # a^-1 = abar (b0 - b2 x^2) / N, and a is a unit exactly when N != 0.
        c0, c1, c2, c3 = self.c
        abar = UScalar(self.q, [c0, -c1, c2, -c3])
        b0, _, b2, _ = (self * abar).c
        norm = b0 * b0 - self.q * b2 * b2
        if norm == 0:
            raise ZeroDivisionError("element is not invertible")
        return abar * UScalar(self.q, [b0 / norm, 0, -b2 / norm, 0])

    def u_pow(self, k: int) -> "UScalar":
        out = UScalar.of(self.q, 1)
        base = UScalar.u(self.q) if k >= 0 else UScalar.u(self.q).inverse()
        for _ in range(abs(k)):
            out = out * base
        return out

    def __repr__(self):
        bits = []
        for k, a in enumerate(self.c):
            if a:
                bits.append(f"{a}*u^({k}/2)" if k else f"{a}")
        return " + ".join(bits) if bits else "0"


def u_power(q: int, k: int) -> UScalar:
    return UScalar.of(q, 1).u_pow(k)


# --------------------------------------------------------------------------
# the derived Hall algebra
# --------------------------------------------------------------------------


class DerivedHall:
    """The derived Hall algebra of the bounded derived category of the quiver
    over GF(q), twisted by the Euler form.  Basis: normal-ordered words
    ((m1, iso1), (m2, iso2), ...) with strictly decreasing levels."""

    def __init__(self, quiver: QuiverDatum, q: int):
        _check_quiver(quiver)
        self.quiver = quiver
        self.q = q
        self.cartan = quiver.cartan
        self._g: dict = {}
        self._gamma_terms: dict = {}

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

    def g_number(self, x: IsoClass, y: IsoClass, w: IsoClass) -> int:
        key = (x, y, w)
        if key not in self._g:
            self._g[key] = hall_number(x, y, w, self.quiver, self.q)
        return self._g[key]

    def _isoclasses_of_dim(self, dims) -> list[IsoClass]:
        cd = self.cartan
        roots = [tuple(cd.root_coords(b)) for b in cd.positive_roots()]
        out = []

        def rec(k: int, rem, acc):
            if all(x == 0 for x in rem):
                out.append(IsoClass(dict(acc)))
                return
            if k == len(roots):
                return
            b = roots[k]
            mx = min((rem[t] // b[t]) for t in range(len(rem)) if b[t])
            for c in range(mx, -1, -1):
                rec(
                    k + 1,
                    tuple(rem[t] - c * b[t] for t in range(len(rem))),
                    acc + ([(roots[k], c)] if c else []),
                )

        rec(0, tuple(dims), [])
        return out

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
                g = toen_gamma(x, y, t, w, self.quiver, self.q)
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

    def zero(self) -> dict:
        return {}

    def one(self) -> dict:
        return {(): UScalar.of(self.q, 1)}

    def generator(self, iso: IsoClass, m: int) -> dict:
        if iso.is_zero():
            return self.one()
        return {((m, iso),): UScalar.of(self.q, 1)}

    def z_simple(self, i: int, m: int) -> dict:
        root = tuple(1 if v == i else 0 for v in range(1, self.cartan.n + 1))
        return self.generator(IsoClass({root: 1}), m)

    def add(self, a: dict, b: dict) -> dict:
        out = dict(a)
        for w, c in b.items():
            s = out.get(w, UScalar.of(self.q, 0)) + c
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
        return out

    def scal(self, a: dict, c: UScalar) -> dict:
        return {w: v * c for w, v in a.items() if not (v * c).is_zero()}

    def neg(self, a: dict) -> dict:
        return {w: -v for w, v in a.items()}

    def mul(self, a: dict, b: dict) -> dict:
        out: dict = {}
        for w1, c1 in a.items():
            for w2, c2 in b.items():
                for w3, c3 in self._normalize(w1 + w2):
                    key = w3
                    s = out.get(key, UScalar.of(self.q, 0)) + c1 * c2 * c3
                    if s.is_zero():
                        out.pop(key, None)
                    else:
                        out[key] = s
        return out

    def _normalize(self, word: tuple) -> list[tuple[tuple, UScalar]]:
        """Rewrite a word of (level, iso) letters into normal order."""
        for idx in range(len(word) - 1):
            (m1, x), (m2, y) = word[idx], word[idx + 1]
            if m1 > m2:
                continue
            head, tail = word[:idx], word[idx + 2 :]
            out: list[tuple[tuple, UScalar]] = []
            if m1 == m2:
                # same level: Hall product
                n = self.cartan.n
                dims = tuple(a + b for a, b in zip(x.dims(n), y.dims(n)))
                pref = self.upow(self.euler(y, x))
                for w in self._isoclasses_of_dim(dims):
                    g = self.g_number(x, y, w)
                    if g:
                        for w3, c3 in self._normalize(head + ((m1, w),) + tail):
                            out.append((w3, pref.scale_int(g) * c3))
            elif m2 == m1 + 1:
                pref = self.upow(-self.euler(y, x))
                for t, w, g in self.gamma_terms(x, y):
                    coeff = pref * self.upow(-self.euler(w, t)) * UScalar.of(self.q, g)
                    mid = ()
                    if not t.is_zero():
                        mid += ((m2, t),)
                    if not w.is_zero():
                        mid += ((m1, w),)
                    for w3, c3 in self._normalize(head + mid + tail):
                        out.append((w3, coeff * c3))
            else:
                pref = self.upow((-1) ** (m2 - m1) * self.sym(x, y))
                for w3, c3 in self._normalize(head + ((m2, y), (m1, x)) + tail):
                    out.append((w3, pref * c3))
            # merge duplicates
            merged: dict = {}
            for w3, c3 in out:
                s = merged.get(w3, UScalar.of(self.q, 0)) + c3
                if s.is_zero():
                    merged.pop(w3, None)
                else:
                    merged[w3] = s
            return list(merged.items())
        return [(word, UScalar.of(self.q, 1))]

    def equal(self, a: dict, b: dict) -> bool:
        return self.add(a, self.neg(b)) == {}


# --------------------------------------------------------------------------
# relation checks and the specialization report
# --------------------------------------------------------------------------


def check_h_relations(dh: DerivedHall, m_offsets=range(4)) -> list[tuple]:
    """The defining relations on simple generators: same-level quantum Serre,
    adjacent-level deformed boson with constant u^-1/(u^2-1), distant-level
    commutation with alternating exponent."""
    if not m_offsets:
        raise ValueError("empty level range: no relation to check")
    failures = []
    cd = dh.cartan
    upu = dh.upow(1) + dh.upow(-1)
    const = dh.upow(-1) * (dh.upow(2) - dh.scalar(1)).inverse()
    for m in m_offsets:
        for i in cd.vertices:
            for j in cd.vertices:
                zi = dh.z_simple(i, m)
                zj = dh.z_simple(j, m)
                if i != j:
                    if cd.adjacent(i, j):
                        lhs = dh.add(
                            dh.mul(dh.mul(zi, zi), zj),
                            dh.neg(dh.scal(dh.mul(dh.mul(zi, zj), zi), upu)),
                        )
                        lhs = dh.add(lhs, dh.mul(zj, dh.mul(zi, zi)))
                    else:
                        lhs = dh.add(dh.mul(zi, zj), dh.neg(dh.mul(zj, zi)))
                    if lhs:
                        failures.append(("H1", m, i, j))
        for i in cd.vertices:
            for j in cd.vertices:
                zi = dh.z_simple(i, m)
                zj1 = dh.z_simple(j, m + 1)
                aij = cd.sprod(cd.alpha(i), cd.alpha(j))
                lhs = dh.add(
                    dh.mul(zi, zj1), dh.neg(dh.scal(dh.mul(zj1, zi), dh.upow(-aij)))
                )
                if i == j:
                    lhs = dh.add(lhs, dh.neg(dh.scal(dh.one(), const)))
                if lhs:
                    failures.append(("H2", m, i, j))
        for p in m_offsets:
            if p <= m + 1:
                continue
            for i in cd.vertices:
                for j in cd.vertices:
                    zi = dh.z_simple(i, m)
                    zjp = dh.z_simple(j, p)
                    aij = cd.sprod(cd.alpha(i), cd.alpha(j))
                    lhs = dh.add(
                        dh.mul(zi, zjp),
                        dh.neg(dh.scal(dh.mul(zjp, zi), dh.upow((-1) ** (p - m) * aij))),
                    )
                    if lhs:
                        failures.append(("H3", m, p, i, j))
    return failures


def constant_identity_holds(q: int) -> bool:
    """(1 - u^-2) / (u (u - u^-1)^2) = u^-1 / (u^2 - 1), exactly."""
    one = UScalar.of(q, 1)
    u = UScalar.u(q)
    lhs = (one - u.u_pow(-2)) * (u * (u - u.u_pow(-1)) * (u - u.u_pow(-1))).inverse()
    rhs = u.u_pow(-1) * (u * u - one).inverse()
    return lhs == rhs


def iota_scalar_report(cat: CategoryQ, q: int, max_len: int = 3) -> dict:
    """Specialization consistency: products of level-zero generators expand
    the same way in both algebras, standard class by standard class, up to one
    scalar per class that is independent of the product used to reach it.

    On the character side the generators are the fundamental classes at the
    simple-root positions rescaled by 1/(u^(1/2)(u - u^-1)); on the Hall side
    they are the simple generators z_{S_i}^[0].  Returns the scalar table and
    a consistency flag.
    """
    if max_len < 1:
        raise ValueError(f"maximum word length {max_len} selects no product to compare")
    quiver = cat.quiver
    cd = cat.cartan
    dh = DerivedHall(quiver, q)
    gens_t = {}
    for i in cd.vertices:
        pos = cat.qctx.phi.phi_inverse(cd.alpha(i), 0)
        gens_t[i] = cat.truncated_fundamental(*pos)
    one = UScalar.of(q, 1)
    u = UScalar.u(q)
    resc = (UScalar.half_u(q) * (u - u.u_pow(-1))).inverse()
    half_u = UScalar.half_u(q)

    def eval_t(c: HalfLaurent) -> UScalar:
        return c.substitute(half_u, one)

    scalars: dict = {}
    consistent = True
    witnesses = []
    for length in range(1, max_len + 1):
        for word in itertools.product(list(cd.vertices), repeat=length):
            # character side: expand the product in truncated standards
            prod_t = None
            for i in word:
                prod_t = gens_t[i] if prod_t is None else prod_t * gens_t[i]
            deg = [0] * cd.n
            for i in word:
                deg[i - 1] += 1
            avecs = [r["avec"] for r in cat.dominant_pairs(tuple(deg))]
            basis = {a: cat.truncated_standard(a) for a in avecs}
            coeffs_t = expand_in_dominant_basis(prod_t, basis, cat.is_dominant, cat.leq)
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
            for avec in avecs:
                iso = IsoClass(
                    {
                        tuple(cd.root_coords(cat.qctx.word.betas[k])): a
                        for k, a in enumerate(avec)
                        if a
                    }
                )
                ct = coeffs_t.get(avec, HalfLaurent.zero())
                ch = coeffs_h.get(iso, UScalar.of(q, 0))
                tval = eval_t(ct) * rescale
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
    report = iota_scalar_report(cat, q, max_len)
    report["constant_identity"] = constant_identity_holds(q)
    report["relation_failures"] = rel_failures
    report["ok"] = (
        report["constant_identity"] and not rel_failures and report["consistent"]
    )
    return report
