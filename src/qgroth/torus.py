"""Quantum tori over Z[t^(1/2), t^(-1/2)], on packed integer keys.

One class, `QuantumTorus`, serves both tori; only the Gram matrix M differs:
`YTorus`, the window on the variables Y_{i,p} a request touches, ordered by
(p, i), with M = N from the inverse quantum Cartan matrix; and `XTorus`, the
rank-r torus on the rescaled flag-minor generators X_1 .. X_r, with
M_kl = -(beta_k, beta_l) for k < l, read off the word's Euler table.  In the
basis of *symmetrized* monomials, X^a X^b = t^(pair/2) X^(a+b) with pair =
a^T M b, and the bar involution (t^(1/2) -> t^(-1/2) fixing basis
monomials) is coefficientwise conjugation.

Keys.  An exponent vector a is one int in signed base-2^W digits, W = 16,
the first variable on top: key(a) = sum_k a_k 2^(W (n-1-k)), every
|a_k| < H = 2^15.  Int order is the lex order of exponent vectors, in
variable order; a product adds keys and an inverse negates; a is dominant iff
(key + B) & B == B, B holding H in every digit; and a^T M b is the digit at
place n-1 of form(a) * key(b), where form(a) = sum_k (a^T M)_k 2^(W k).
Forms are additive, so every term carries the form of its key and products
and quotients add and subtract them.  Digits are read only where a key enters
(packing an exponent vector, or a Y-monomial given as its exponent map
{(i, p): e}) or leaves, and a key leaves only through `exponents` (render,
JSON, the box of a division), in one call: key + B puts each digit d at d + H
in [0, 2^16), the XOR with B flips its bit 15 to leave d in 16-bit two's
complement, and `struct` unpacks the n big-endian shorts.

Bands.  A product reads its pairings on the band lo..hi of key places that
the keys of one factor occupy (`QuantumTorus.band`: one OR and one max over
the keys, no unpacking): a^T M b is the digit at place hi-lo of
cut(form(a)) * (key(b) >> W lo), where cut keeps the digits of form(a) at
places n-1-hi .. n-1-lo, the band's variables, read with the bias B.  Since
a^T M b = -b^T M a, either factor may supply the band: the one with more
terms does, so the cut of forms, once per term, falls on the factor with
fewer.  Keys of fewer than MIN_CUT_PLACES places, and a band that is the
whole key, are multiplied whole.

Range.  Every element carries l1, a bound on the L1 norm of its keys.  In a
product of elements with bounds l and l', key digits stay below l + l' and
the digits of form(a) * key(b) below m l l', m = max |M_kl|: the product
raises ResourceCap before it builds a key unless both are below H.  The same
check covers the band's product: key(b) is 0 off the band, so its digit at
place hi-lo keeps every term of the digit at place n-1 of the full product,
and each of its other digits is a sum over a subset of the terms of a digit
of the full product; the digits of form(a), below m l, fit the bias.  So
factors of l1 up to 181 always multiply on the rank-r tori (m = 1, 181^2 <
2^15) and up to 127 on the windows (m <= 2 on types A1-E8, 2 * 127^2 <
2^15 <= 2 * 128^2).  Packing checks each exponent; a division checks its
bounds once.

A product accumulates one map (key, doubled t-exponent) -> integer over pairs
of terms, and raises ResourceCap before the pass when there are more than
MAX_PRODUCT_PAIRS pairs.  The q-commutator x y - t^(e/2) y x shares that pass:
both products of a pair land on the same key, with pairings s and -s, so a
pair with s = e/2 adds v and -v at one exponent and is skipped as soon as its
pairing is known (every pair of a t-commutation relation, most of a boson
relation); MAX_PRODUCT_PAIRS still counts every pair.  Exact division is by
leading-term elimination in the lex order, with a heap on negated keys.
"""

from __future__ import annotations

import heapq
import struct
from functools import reduce
from itertools import chain
from operator import itemgetter, or_
from typing import Iterable, Optional

from .cartan import ResourceCap
from .laurent import HalfLaurent
from .qcartan import QuantumCartan


class QuantumTorus:
    """The quantum torus on the variables `names`, in order, with the
    antisymmetric Gram matrix M, on packed keys.  Subclasses say how a
    monomial enters (`_sparse`: its (variable index, exponent) pairs) and, on
    a window of variables (i, p), `json_window`, which writes a key to JSON as
    its nonzero [i, p, e]."""

    json_window = None
    # one key width for every torus: W-bit digits, each below H = half
    W, half, mask = 16, 1 << 15, (1 << 16) - 1

    def __init__(self, names: list[str], gram: list[list[int]]):
        self.names, self.gram = names, gram
        n = self.n = len(gram)
        self.mmax = max(map(abs, chain.from_iterable(gram)), default=0)
        w = self.W
        self._place = [w * (n - 1 - k) for k in range(n)]
        bias = self._bias = int.from_bytes(b"\x80\x00" * n, "big")
        # the digits read back as n big-endian shorts in one call
        self._shorts = struct.Struct(f">{n}h").unpack
        # row j of M, packed in reverse order: the form of the unit vector e_j,
        # its entries written as little-endian shorts and read back signed
        pack = struct.Struct(f"<{n}h").pack
        self._rows = [(int.from_bytes(pack(*row), "little") ^ bias) - bias for row in gram]
        self._shift = w * max(n - 1, 0)
        # rounds the digits below place n-1 away and lifts the digit at n-1 by H
        self._pbias = (self.half << self._shift) + ((1 << self._shift) >> 1)

    def entry(self, x) -> tuple[int, int, int]:
        """(key, form, L1 norm) of the monomial x."""
        key = form = l1 = 0
        place, rows, half = self._place, self._rows, self.half
        for k, e in self._sparse(x):
            if not -half < e < half:
                raise ResourceCap(f"exponent {e} does not fit a {self.W}-bit key digit")
            key += e << place[k]
            form += e * rows[k]
            l1 += abs(e)
        return key, form, l1

    def key(self, x) -> int:
        return self.entry(x)[0]

    def exponents(self, key: int) -> tuple[int, ...]:
        """The exponent vector of a key."""
        # each biased digit d + H, bit 15 flipped, is d in 16-bit two's complement
        return self._shorts(((key + self._bias) ^ self._bias).to_bytes(2 * self.n, "big"))

    def relabel(self, key: int, image) -> int | None:
        """The key whose digit at variable image[k] is the digit of `key` at
        variable k, or None when image[k] is None at a nonzero digit."""
        out, place = 0, self._place
        for e, k in zip(self.exponents(key), image):
            if e:
                if k is None:
                    return None
                out += e << place[k]
        return out

    def check_range(self, l1: int, l1_other: int) -> None:
        """Refuse a product of factors with L1 bounds l1 and l1_other whose
        key digits or pairing digits would reach H (module docstring, Range)."""
        if l1 + l1_other >= self.half or self.mmax * l1 * l1_other >= self.half:
            raise ResourceCap(f"torus product leaves the {self.W}-bit key digits")

    def pair(self, form: int, key: int) -> int:
        """a^T M b from form(a) and key(b)."""
        return (((form * key + self._pbias) >> self._shift) & self.mask) - self.half

    def band(self, keys) -> tuple[int, int] | None:
        """(lo, hi), the least and the greatest place of a nonzero digit in
        any of the keys, or None when every key is 0.  Read without unpacking:
        a key whose lowest nonzero digit sits at place j has between Wj and
        Wj + W - 2 trailing zeros, and the OR of keys (two's complement) keeps
        the least count; a key whose highest nonzero digit sits at place j has
        an absolute value of Wj to Wj + W - 1 bits, since every |digit| < H."""
        low = reduce(or_, keys, 0)
        if not low:
            return None
        return ((low & -low).bit_length() - 1) // self.W, max(map(abs, keys)).bit_length() // self.W

    def is_dominant(self, key: int) -> bool:
        return (key + self._bias) & self._bias == self._bias

    def render_key(self, key: int) -> str:
        bits = zip(self.names, self.exponents(key))
        return " ".join(v + (f"^{e}" if e != 1 else "") for v, e in bits if e) or "1"

    def element(self, terms) -> "TorusElement":
        """sum_x c X^x over pairs (x, c) of distinct monomials x and their coefficients."""
        keys, forms, l1 = {}, {}, 0
        for x, c in terms:
            k, forms_k, l1_k = self.entry(x)
            keys[k], forms[k], l1 = c, forms_k, max(l1, l1_k)
        return TorusElement(self, keys, forms, l1)

    def monomial(self, x, coeff: HalfLaurent | None = None) -> "TorusElement":
        return self.element([(x, coeff if coeff is not None else HalfLaurent.one())])

    def one(self) -> "TorusElement":
        return TorusElement(self, {0: HalfLaurent.one()}, {0: 0}, 0)

    def zero(self) -> "TorusElement":
        return TorusElement(self, {}, {}, 0)


class TorusElement:
    """Finite linear combination of basis monomials with Laurent coefficients:
    terms maps packed keys to coefficients, forms each key of terms to its
    form, and l1 bounds the L1 norm of every key.

    Invariant: an element is immutable after construction (no operation
    writes to an operand's `terms` or `forms`, so elements may share their
    `forms` dict), `terms` stores no zero coefficient, and `forms` has
    exactly the keys of `terms`.  `__init__` establishes this from any
    input; `_of` wraps dicts that already satisfy it."""

    __slots__ = ("ctx", "terms", "forms", "l1")

    def __init__(self, ctx: QuantumTorus, terms: dict, forms: dict, l1: int):
        self.ctx = ctx
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}
        self.forms = {k: forms[k] for k in self.terms}
        self.l1 = l1

    @staticmethod
    def _of(ctx: QuantumTorus, terms: dict, forms: dict, l1: int) -> "TorusElement":
        """Wrap terms, which holds no zero, and forms, on exactly its keys."""
        out = object.__new__(TorusElement)
        out.ctx, out.terms, out.forms, out.l1 = ctx, terms, forms, l1
        return out

    def _with(self, terms: dict) -> "TorusElement":
        """An element on the keys of this one, none of them zero: it shares
        this element's forms."""
        return TorusElement._of(self.ctx, terms, self.forms, self.l1)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, TorusElement) and self.terms == other.terms

    def coeff(self, key: int) -> HalfLaurent:
        return self.terms.get(key, HalfLaurent.zero())

    def __add__(self, other: "TorusElement") -> "TorusElement":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return TorusElement(self.ctx, out, self.forms | other.forms, max(self.l1, other.l1))

    def __neg__(self) -> "TorusElement":
        return self._with({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "TorusElement") -> "TorusElement":
        return self + (-other)

    def scal(self, c: HalfLaurent) -> "TorusElement":
        if not c:
            return self.ctx.zero()
        return self._with({k: v * c for k, v in self.terms.items()})

    def tshift(self, exp2: int) -> "TorusElement":
        return self._with({k: v.shift(exp2) for k, v in self.terms.items()})

    def __mul__(self, other: "TorusElement") -> "TorusElement":
        return self._convolve(other, None)

    def mul_shift(self, other: "TorusElement", exp2: int) -> "TorusElement":
        """t^(exp2/2) self*other, in the pass of the product."""
        return self._convolve(other, None, exp2)

    def qcommutator(self, other: "TorusElement", exp2: int) -> "TorusElement":
        """The q-commutator self*other - t^(exp2/2) other*self."""
        return self._convolve(other, exp2)

    def _convolve(self, other: "TorusElement", exp2: int | None, shift: int = 0) -> "TorusElement":
        """t^(shift/2) self*other, minus t^(exp2/2) other*self unless exp2 is
        None, in one pass over pairs of terms: both products of a pair land on
        k1 + k2, with pairings s and -s, so the second entry sits exp2 - 2s
        above the first and cancels it when exp2 = 2s.  The pairings are read
        on the band of the factor with more terms (module docstring, Bands)."""
        ctx = self.ctx
        n1, n2 = len(self.terms), len(other.terms)
        if n1 * n2 > MAX_PRODUCT_PAIRS:
            raise ResourceCap(f"torus product of {n1} by {n2} terms passes {MAX_PRODUCT_PAIRS} pairs")
        ctx.check_range(self.l1, other.l1)
        l1 = self.l1 + other.l1
        mask, half = ctx.mask, ctx.half
        band = None
        if ctx.n >= MIN_CUT_PLACES:
            band = ctx.band((other if n2 >= n1 else self).terms) or (0, 0)
        if band is None or band[1] - band[0] + 1 == ctx.n:
            # s = a^T M b is the digit at place n-1 of form(k1) * key(k2)
            pshift, pbias, x1 = ctx._shift, ctx._pbias, self.forms
            terms2 = [(k2, other.forms[k2], k2, tuple(c2.c.items())) for k2, c2 in other.terms.items()]
        else:
            lo, hi = band
            # rounds the digits below place hi-lo away and lifts the digit there by H
            pshift = ctx.W * (hi - lo)
            pbias = (half << pshift) + ((1 << pshift) >> 1)
            fshift, kshift, bias = ctx.W * (ctx.n - 1 - hi), ctx.W * lo, ctx._bias
            cmask = (1 << (pshift + ctx.W)) - 1
            cbias = bias & cmask

            def cut(f):  # the digits of a form on the band's variables, at places 0..hi-lo
                return (((f + bias) >> fshift) & cmask) - cbias

            if n2 >= n1:
                # s is the digit at place hi-lo of cut(form(k1)) * (k2 >> kshift)
                x1 = {k: cut(f) for k, f in self.forms.items()}
                x2 = {k: k >> kshift for k in other.terms}
            else:
                # s = -b^T M a, the same digit of -(k1 >> kshift) * cut(form(k2))
                x1 = {k: -(k >> kshift) for k in self.terms}
                x2 = {k: cut(f) for k, f in other.forms.items()}
            terms2 = [(k2, other.forms[k2], x2[k2], tuple(c2.c.items())) for k2, c2 in other.terms.items()]
        # the pairing plus H at which the second entry cancels the first
        cancel = None if exp2 is None or exp2 % 2 else exp2 // 2 + half
        acc: dict = {}
        forms: dict = {}
        for k1, c1 in self.terms.items():
            f1, u1, cs1 = self.forms[k1], x1[k1], tuple(c1.c.items())
            for k2, f2, u2, cs2 in terms2:
                s = ((u1 * u2 + pbias) >> pshift) & mask  # the pairing plus H
                if s == cancel:
                    continue  # the two products cancel
                s -= half
                twin = None if exp2 is None else exp2 - 2 * s
                k = k1 + k2
                w = acc.get(k)
                if w is None:
                    w = acc[k] = {}
                    forms[k] = f1 + f2
                s += shift
                for e1, v1 in cs1:
                    for e2, v2 in cs2:
                        e, v = e1 + e2 + s, v1 * v2
                        w[e] = w.get(e, 0) + v
                        if twin is not None:
                            e += twin
                            w[e] = w.get(e, 0) - v
        terms = {}
        for k, w in acc.items():
            c = {e: v for e, v in w.items() if v}
            if c:
                terms[k] = HalfLaurent._of(c)
        if len(terms) < len(forms):
            forms = {k: forms[k] for k in terms}
        return TorusElement._of(ctx, terms, forms, l1)

    def leading_key(self) -> int:
        return max(self.terms)

    def __repr__(self) -> str:
        return f"TorusElement({self.render()})"

    def render(self, var: str = "t") -> str:
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k]
            kr = self.ctx.render_key(k)
            if c.is_one():
                bits.append(kr)
            else:
                cs = c.render(var)
                if len(c.c) > 1:
                    cs = f"({cs})"
                bits.append(f"{cs} {kr}" if kr != "1" else cs)
        return " + ".join(bits)

    def to_json(self) -> list:
        """[key, coefficient] per term in key order: a key is its exponent
        vector, or on a window (`json_window`, in its (p, i) order) its nonzero
        [i, p, e]; a coefficient is written as `HalfLaurent.to_json` writes
        it."""
        ctx, terms = self.ctx, self.terms
        exponents, window = ctx.exponents, ctx.json_window
        out = []
        for k in sorted(terms):
            a = list(exponents(k))
            if window is not None:
                a = [[i, p, e] for (i, p), e in zip(window, a) if e]
            c = terms[k].c
            out.append([a, [[e, c[e]] for e in sorted(c)]])
        return out


class XTorus(QuantumTorus):
    """The rank-r torus on the rescaled generators X_k, entered by exponent
    vectors a in Z^r:
    X^a X^b = t^(pair/2) X^(a+b),  pair = sum_{k<l} (beta_k, beta_l)(a_l b_k - a_k b_l).
    That is pair = a^T M b with M antisymmetric, M_kl = -s_kl for k < l, and
    s = E + E^T for the word's Euler table E = `AdaptedWord.euler`; `pair2` is
    the reference sum on exponent vectors.
    """

    def __init__(self, euler: tuple[tuple[int, ...], ...]):
        self.r = len(euler)
        self.s = [[e + f for e, f in zip(row, col)] for row, col in zip(euler, zip(*euler))]
        super().__init__(
            [f"X{k}" for k in range(1, self.r + 1)],
            [[((k > l) - (k < l)) * row[l] for l in range(self.r)] for k, row in enumerate(self.s)],
        )

    def pair2(self, a: tuple, b: tuple) -> int:
        total = 0
        r = self.r
        for k in range(r):
            ak, bk = a[k], b[k]
            if ak == 0 and bk == 0:
                continue
            srow = self.s[k]
            for l in range(k + 1, r):
                if a[l] or b[l]:
                    total += srow[l] * (a[l] * bk - ak * b[l])
        return total

    def _sparse(self, a):
        if len(a) != self.r:
            raise ValueError(f"expected an exponent vector of length {self.r}, got {len(a)}")
        return ((k, e) for k, e in enumerate(a) if e)

    def unit_vector(self, k: int) -> tuple:
        return tuple(1 if j == k - 1 else 0 for j in range(self.r))


class YTorus(QuantumTorus):
    """The window torus on the variables Y_{i,p} of `window`, ordered by
    (p, i), entered by exponent maps {(i, p): e} with no zero entry; M is
    N(i,p;j,s), read from the rows of the inverse quantum Cartan matrix.
    `pair2` is the reference pairing of two exponent maps; `a_solve` and
    `nakajima_leq` work on exponent maps and do not depend on the window."""

    def __init__(self, qc: QuantumCartan, window: Iterable[tuple[int, int]] = ()):
        self.qc = qc
        self.cartan = qc.cartan
        self.window = sorted(set(window), key=lambda v: (v[1], v[0]))
        self.json_window = self.window
        self.index = {v: k for k, v in enumerate(self.window)}
        super().__init__([f"Y[{i},{p}]" for i, p in self.window], self._gram())

    def _gram(self) -> list:
        """N(i,p;j,s) on the window, one row per variable in one loop: row
        (i, p) picks its entries off line[i], which lists N(i,j,d) for every
        vertex j and d = -span..span, span the window's width."""
        window, rows, h2 = self.window, self.qc._n, 2 * self.qc.h
        if len(window) < 2:
            return [[0]] * len(window)
        lo, span, vs = window[0][1], window[-1][1] - window[0][1], list(rows)
        pos = {(i, j): (rows[i][j] * -(-span // h2))[:span] for i in vs for j in vs}  # d = 1..span
        line = {i: [x for j in vs for x in [-y for y in reversed(pos[i, j])] + [0] + pos[i, j]] for i in vs}
        # N(i,p;j,s) = line[i][(p - lo) + k], k = (index of j) (2 span + 1) + span + lo - s
        pick = itemgetter(*[vs.index(j) * (2 * span + 1) + span + lo - s for j, s in window])
        return [list(pick(line[i][p - lo :])) for i, p in window]

    def pair2(self, m1: dict, m2: dict) -> int:
        rows, h2 = self.qc._n, 2 * self.qc.h
        total = 0
        for (i, p), u in m1.items():
            row = rows[i]
            for (j, s), v in m2.items():
                if p > s:
                    total += u * v * row[j][(p - s - 1) % h2]
                elif p < s:
                    total -= u * v * row[j][(s - p - 1) % h2]
        return total

    def _sparse(self, m: dict):
        try:
            return [(self.index[v], e) for v, e in m.items()]
        except KeyError as exc:
            raise ValueError(f"variable Y{list(exc.args[0])} is outside the torus window") from None

    def monomial_of(self, key: int) -> dict[tuple[int, int], int]:
        """The exponent map of a key, in (p, i) order."""
        return {v: e for v, e in zip(self.window, self.exponents(key)) if e}

    def a_solve(self, ratio: dict) -> Optional[dict[tuple[int, int], int]]:
        """Write ratio as a product prod A_{i,s}^{v_{i,s}} with integer exponents.

        Returns the (unique) exponent map, or None when no integer solution
        exists.  Solved top-down: the Y-exponent at (j, u) equals
        v_{j,u-1} + v_{j,u+1} - sum_{k~j} v_{k,u}, which fixes v_{j,u-1} so
        that the rows u >= bot hold; those below hold iff v vanishes at bot
        and bot - 1 (row bot - 2 reads v_{j,bot-1}, row bot - 1 v_{j,bot}).
        """
        if not ratio:
            return {}
        top = max(p for _, p in ratio)
        bot = min(p for _, p in ratio)
        vertices = self.cartan.vertices
        v: dict[tuple[int, int], int] = {}
        for u in range(top, bot - 1, -1):
            for j in vertices:
                # exponent of Y_{j,u} determines v_{j,u-1} from layers above
                want = ratio.get((j, u), 0)
                acc = v.get((j, u + 1), 0)
                for k in self.cartan.neighbors(j):
                    acc -= v.get((k, u), 0)
                v[(j, u - 1)] = want - acc
        if any(v.get((j, s)) for j in vertices for s in (bot, bot - 1)) or any(j not in vertices for j, _ in ratio):
            return None
        return {k: c for k, c in v.items() if c}

    def nakajima_leq(self, m1: dict, m2: dict) -> bool:
        """m1 <= m2 iff m2 * m1^-1 is a product of A_{i,p} with multiplicities in N."""
        v = self.a_solve(mul_monomials(m2, m1, -1))
        return v is not None and all(c >= 0 for c in v.values())


def mul_monomials(m1: dict, m2: dict, power: int = 1) -> dict:
    """The exponent map of m1 * m2^power, no zero entry."""
    return {v: e for v in m1.keys() | m2.keys() if (e := m1.get(v, 0) + power * m2.get(v, 0))}


def monomial_items(m: dict) -> tuple:
    """The hashable form of the exponent map m: its items ((i, p), e != 0) by (p, i)."""
    return tuple(((i, p), e) for (p, i), e in sorted(((p, i), e) for (i, p), e in m.items() if e))


def render_monomial(m: dict) -> str:
    """Y[i,p]^e per entry of the exponent map m, in (p, i) order; 1 for the unit."""
    return " ".join(f"Y[{i},{p}]" + (f"^{e}" if e != 1 else "") for (i, p), e in monomial_items(m)) or "1"


MAX_QUOTIENT_TERMS = 10000
MAX_PRODUCT_PAIRS = 10**6
# Keys of fewer places are paired whole: on the rank-r tori of `canonical` (6
# to 12 places) a full multiply costs no more than finding and cutting a band.
MIN_CUT_PLACES = 16


def divide_right(s: TorusElement, p: TorusElement) -> TorusElement:
    """The unique q with q * p = s; raises ArithmeticError when the division
    is not exact.  The torus is a domain, so the extreme exponents of a product
    along each variable add: every key of q lies in the box [min s - min p,
    max s - max p], and the distinct quotient keys end inside it.  A quotient
    key qk = lk - lead(p) enters the box iff qk - lo and hi - qk are dominant;
    its form is form(lk) - form(lead(p)).

    A step pops the leading remainder key lk and divides out c, so that the
    leading term of c X^qk p cancels the remainder at lk exactly: the step
    drops that key and subtracts c b t^(pair/2) at qk + kp for every other
    term b X^kp of p, pair = qk^T M kp read off fq = form(qk).  It builds no
    product, so `_convolve`'s checks do not run, and need not: the division's
    bound check covers their range check (every qk lies in the box, every
    remainder key within rl1), and a step pairs qk with the len(p) terms of p,
    for at most MAX_QUOTIENT_TERMS steps.  A monomial divisor costs one pass
    over the dividend."""
    ctx = s.ctx
    if p.is_zero():
        raise ZeroDivisionError("division by zero torus element")
    if s.is_zero():
        return ctx.zero()
    cs, cp = (list(zip(*map(ctx.exponents, x.terms))) for x in (s, p))
    lo = [min(a) - min(b) for a, b in zip(cs, cp)]
    hi = [max(a) - max(b) for a, b in zip(cs, cp)]
    bq = sum(max(abs(a), abs(b)) for a, b in zip(lo, hi))  # L1 bound inside the box
    # remainder keys come from s or from X^qk p, qk in the box
    rl1 = max(s.l1, bq + p.l1) + p.l1
    if rl1 + bq >= ctx.half or ctx.mmax * rl1 * p.l1 >= ctx.half:
        raise ResourceCap(f"torus division leaves the {ctx.W}-bit key digits")
    lo_key, hi_key = (sum(e << s for e, s in zip(v, ctx._place)) for v in (lo, hi))
    lead_p = p.leading_key()
    f_lead, c_lead = p.forms[lead_p], p.terms[lead_p]
    # the other terms of p: key, form and coefficient items
    rest = [(k, p.forms[k], tuple(c.c.items())) for k, c in p.terms.items() if k != lead_p]
    rem = {k: dict(c.c) for k, c in s.terms.items()}
    rforms = dict(s.forms)
    # the largest remaining key is on top; keys that cancelled are skipped
    heap = [-k for k in rem]
    heapq.heapify(heap)
    quot: dict = {}
    qforms: dict = {}
    while heap:
        lk = -heapq.heappop(heap)
        if lk not in rem:
            continue
        if len(quot) >= MAX_QUOTIENT_TERMS:
            raise ResourceCap(f"torus division passed {MAX_QUOTIENT_TERMS} quotient terms")
        qk, fq = lk - lead_p, rforms[lk] - f_lead
        c = HalfLaurent(rem.pop(lk)).shift(-ctx.pair(fq, lead_p)).exact_div(c_lead)
        if c is None:
            raise ArithmeticError("torus division is not exact (coefficient step)")
        if not (ctx.is_dominant(qk - lo_key) and ctx.is_dominant(hi_key - qk)):
            raise ArithmeticError("torus division is not exact (quotient key outside its box)")
        quot[qk], qforms[qk] = c, fq
        cq = tuple(c.c.items())
        for kp, fp, cb in rest:
            k, sp = qk + kp, ctx.pair(fq, kp)
            r = rem.get(k)
            if r is None:
                r = rem[k] = {}
                rforms[k] = fq + fp
                heapq.heappush(heap, -k)
            for e1, v1 in cq:
                for e2, v2 in cb:
                    e = e1 + e2 + sp
                    v = r.get(e, 0) - v1 * v2
                    if v:
                        r[e] = v
                    else:
                        del r[e]
            if not r:
                del rem[k]
    return TorusElement._of(ctx, quot, qforms, bq)
