"""Quantum tori over Z[t^(1/2), t^(-1/2)].

Two instances of the same structure are used:

  * the big torus on variables Y_{i,p} indexed by the repetition quiver, with
    commutation exponents given by the inverse quantum Cartan matrix;
  * the rank-r torus on rescaled flag-minor generators X_1 .. X_r, with
    commutation exponents given by scalar products of the roots beta_k.

Both are presented through their basis of *symmetrized* monomials: the product
of two basis monomials is t^(pair/2) times the basis monomial of the summed
exponent, where pair is an antisymmetric integer pairing on exponents.  The
bar involution (t^(1/2) -> t^(-1/2) fixing basis monomials) is coefficientwise
conjugation in this basis, on either side.

A product does integer work per pair of terms and accumulates one map
(key, doubled t-exponent) -> integer.  The pairing is a form of the left key,
built once per left term, evaluated on the right key: on the rank-r torus one
r-term dot product with a^T M, on the big torus a read of the table of N.
The q-commutator x y - t^(e/2) y x shares that pass: a pair of terms lands on
the same key in both products, with pairings s and -s, so it costs one key
product and one pairing and writes two entries.
Exact division (solving q * p = s) is by leading-term elimination with respect
to a multiplication-compatible total order on exponents; the remainder is
updated in place, and a heap on inverted keys (a > b iff a^-1 < b^-1) yields
the next leading key on either torus.
"""

from __future__ import annotations

import heapq
import operator
from typing import Iterable, Optional

from .cartan import ResourceCap, Weight
from .laurent import HalfLaurent
from .qcartan import QuantumCartan


class Monomial:
    """Laurent monomial in the variables Y_{i,p}: a finite map (i,p) -> Z\\{0}.

    Canonical storage: entries ((i,p), e) sorted by (p, i).  Hashable.
    """

    __slots__ = ("items", "_hash")

    def __init__(self, exps: dict[tuple[int, int], int] | None = None):
        items = tuple(
            ((i, p), e)
            for (p, i), e in sorted(
                ((p, i), e) for (i, p), e in (exps or {}).items() if e != 0
            )
        )
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "_hash", hash(items))

    def __setattr__(self, *a):  # pragma: no cover - guard against mutation
        raise AttributeError("Monomial is immutable")

    @staticmethod
    def unit() -> "Monomial":
        return Monomial()

    @staticmethod
    def var(i: int, p: int, e: int = 1) -> "Monomial":
        return Monomial({(i, p): e})

    def exps(self) -> dict[tuple[int, int], int]:
        return {k: e for k, e in self.items}

    def exp(self, i: int, p: int) -> int:
        for k, e in self.items:
            if k == (i, p):
                return e
        return 0

    def __mul__(self, other: "Monomial") -> "Monomial":
        """One merge of the two sorted item lists."""
        a, b = self.items, other.items
        if not b or not a:
            return self if not b else other
        out = []
        x = y = 0
        while x < len(a) and y < len(b):
            (ka, ea), (kb, eb) = a[x], b[y]
            if ka == kb:
                if ea + eb:
                    out.append((ka, ea + eb))
                x += 1
                y += 1
            elif (ka[1], ka[0]) < (kb[1], kb[0]):
                out.append(a[x])
                x += 1
            else:
                out.append(b[y])
                y += 1
        m = object.__new__(Monomial)
        object.__setattr__(m, "items", tuple(out) + a[x:] + b[y:])
        object.__setattr__(m, "_hash", hash(m.items))
        return m

    def inverse(self) -> "Monomial":
        return Monomial({k: -e for k, e in self.items})

    def power(self, n: int) -> "Monomial":
        return Monomial({k: n * e for k, e in self.items})

    def is_unit(self) -> bool:
        return not self.items

    def is_dominant(self) -> bool:
        return all(e >= 0 for _, e in self.items)

    def support(self) -> tuple[tuple[int, int], ...]:
        return tuple(k for k, _ in self.items)

    def min_p(self) -> int:
        return min(p for (_, p), _ in self.items)

    def max_p(self) -> int:
        return max(p for (_, p), _ in self.items)

    def shift_p(self, delta: int) -> "Monomial":
        return Monomial({(i, p + delta): e for (i, p), e in self.items})

    def sort_key(self) -> tuple:
        """Lex key over the variable axis ordered by (p, i); addition-compatible.
        Item ((i,p), e) with sign s is the token (s, -s p, -s i, e) and (0,)
        ends the tuple, so at the first differing item the larger exponent at
        the earlier variable wins."""
        sg = [1 if e > 0 else -1 for _, e in self.items]
        return tuple((s, -s * p, -s * i, e) for s, ((i, p), e) in zip(sg, self.items)) + ((0,),)

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.items == other.items

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Monomial({self.render()})"

    def render(self) -> str:
        if not self.items:
            return "1"
        bits = []
        for (i, p), e in self.items:
            bits.append(f"Y[{i},{p}]" + (f"^{e}" if e != 1 else ""))
        return " ".join(bits)

    def to_json(self) -> list[list[int]]:
        return [[i, p, e] for (i, p), e in self.items]

    @staticmethod
    def from_json(data: Iterable[Iterable[int]]) -> "Monomial":
        return Monomial({(int(i), int(p)): int(e) for i, p, e in data})


class YTorus:
    """Pairing context for the big torus: exponent of t in Y-monomial swaps."""

    def __init__(self, qc: QuantumCartan):
        self.qc = qc
        self.cartan = qc.cartan

    def pair2(self, m1: Monomial, m2: Monomial) -> int:
        rows, h2 = self.qc._n, 2 * self.qc.h
        total = 0
        for (i, p), u in m1.items:
            row = rows[i]
            for (j, s), v in m2.items:
                if p > s:
                    total += u * v * row[j][(p - s - 1) % h2]
                elif p < s:
                    total -= u * v * row[j][(s - p - 1) % h2]
        return total

    form = staticmethod(lambda m: m)
    form_pair = property(lambda self: self.pair2)

    key_one = staticmethod(Monomial.unit)
    key_mul = staticmethod(lambda a, b: a * b)
    key_inv = staticmethod(lambda a: a.inverse())
    key_sort = staticmethod(lambda a: a.sort_key())
    @staticmethod
    def key_range(keys) -> dict:
        """Per variable, the least and the greatest exponent over the keys."""
        exps = [m.exps() for m in keys]
        return {
            v: (min(e.get(v, 0) for e in exps), max(e.get(v, 0) for e in exps))
            for v in set().union(*exps)
        }

    def element(self, terms: dict[Monomial, HalfLaurent]) -> "TorusElement":
        return TorusElement(self, terms)

    def monomial(self, m: Monomial, coeff: HalfLaurent | None = None) -> "TorusElement":
        return TorusElement(self, {m: coeff if coeff is not None else HalfLaurent.one()})

    def one(self) -> "TorusElement":
        return self.monomial(Monomial.unit())

    def zero(self) -> "TorusElement":
        return TorusElement(self, {})

    def a_solve(self, ratio: Monomial) -> Optional[dict[tuple[int, int], int]]:
        """Write ratio as a product prod A_{i,s}^{v_{i,s}} with integer exponents.

        Returns the (unique) exponent map, or None when no integer solution
        exists.  Solved top-down: the Y-exponent at (j, u) equals
        v_{j,u-1} + v_{j,u+1} - sum_{k~j} v_{k,u}.
        """
        if ratio.is_unit():
            return {}
        e = ratio.exps()
        top = ratio.max_p()
        bot = ratio.min_p()
        v: dict[tuple[int, int], int] = {}
        for u in range(top, bot - 1, -1):
            for j in self.cartan.vertices:
                # exponent of Y_{j,u} determines v_{j,u-1} from layers above
                want = e.get((j, u), 0)
                acc = v.get((j, u + 1), 0)
                for k in self.cartan.neighbors(j):
                    acc -= v.get((k, u), 0)
                v[(j, u - 1)] = want - acc
        v = {k: c for k, c in v.items() if c != 0}
        # verify (the bottom rows of the system were never imposed)
        check: dict[tuple[int, int], int] = {}
        for (j, s), c in v.items():
            check[(j, s + 1)] = check.get((j, s + 1), 0) + c
            check[(j, s - 1)] = check.get((j, s - 1), 0) + c
            for k in self.cartan.neighbors(j):
                check[(k, s)] = check.get((k, s), 0) - c
        check = {k: c for k, c in check.items() if c != 0}
        return v if check == e else None

    def nakajima_leq(self, m1: Monomial, m2: Monomial) -> bool:
        """m1 <= m2 iff m2 * m1^-1 is a product of A_{i,p} with multiplicities in N."""
        v = self.a_solve(m2 * m1.inverse())
        return v is not None and all(c >= 0 for c in v.values())


class TorusElement:
    """Finite linear combination of basis monomials with Laurent coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms: dict):
        self.ctx = ctx
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, TorusElement) and self.terms == other.terms

    def __hash__(self):
        raise TypeError("TorusElement is not hashable")

    def coeff(self, key) -> HalfLaurent:
        return self.terms.get(key, HalfLaurent.zero())

    def __add__(self, other: "TorusElement") -> "TorusElement":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return TorusElement(self.ctx, out)

    def __neg__(self) -> "TorusElement":
        return TorusElement(self.ctx, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "TorusElement") -> "TorusElement":
        return self + (-other)

    def scal(self, c: HalfLaurent) -> "TorusElement":
        return TorusElement(self.ctx, {k: v * c for k, v in self.terms.items()})

    def tshift(self, exp2: int) -> "TorusElement":
        return TorusElement(self.ctx, {k: v.shift(exp2) for k, v in self.terms.items()})

    def __mul__(self, other: "TorusElement") -> "TorusElement":
        return self._convolve(other, None)

    def qcommutator(self, other: "TorusElement", exp2: int) -> "TorusElement":
        """The q-commutator self*other - t^(exp2/2) other*self."""
        return self._convolve(other, exp2)

    def _convolve(self, other: "TorusElement", exp2: int | None) -> "TorusElement":
        """self*other, minus t^(exp2/2) other*self unless exp2 is None, in one
        pass over pairs of terms: both products of a pair land on k1 k2, with
        pairings s and -s, so the second entry sits exp2 - 2s above the first."""
        ctx = self.ctx
        key_mul, form, form_pair = ctx.key_mul, ctx.form, ctx.form_pair
        acc: dict = {}
        for k1, c1 in self.terms.items():
            f1 = form(k1)
            for k2, c2 in other.terms.items():
                k = key_mul(k1, k2)
                s = form_pair(f1, k2)
                twin = None if exp2 is None else exp2 - 2 * s
                w = acc.get(k)
                if w is None:
                    w = acc[k] = {}
                for e1, v1 in c1.c.items():
                    for e2, v2 in c2.c.items():
                        e, v = e1 + e2 + s, v1 * v2
                        w[e] = w.get(e, 0) + v
                        if twin is not None:
                            e += twin
                            w[e] = w.get(e, 0) - v
        return TorusElement(ctx, {k: HalfLaurent(w) for k, w in acc.items()})

    def bar(self) -> "TorusElement":
        """Coefficientwise t^(1/2) -> t^(-1/2); the ring anti-automorphism fixing
        basis monomials."""
        return TorusElement(self.ctx, {k: c.conj() for k, c in self.terms.items()})

    def leading_key(self):
        return max(self.terms, key=self.ctx.key_sort)

    def support(self):
        return list(self.terms.keys())

    def __repr__(self) -> str:
        return f"TorusElement({self.render()})"

    def render(self, var: str = "t") -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=self.ctx.key_sort, reverse=True)
        bits = []
        for k in keys:
            c = self.terms[k]
            kr = k.render() if hasattr(k, "render") else render_xkey(k)
            if c.is_one():
                bits.append(kr if kr != "1" else "1")
            else:
                cs = c.render(var)
                if len(c.c) > 1:
                    cs = f"({cs})"
                bits.append(f"{cs} {kr}" if kr != "1" else cs)
        return " + ".join(bits)

    def to_json(self) -> list:
        keys = sorted(self.terms, key=self.ctx.key_sort)
        return [
            [
                k.to_json() if hasattr(k, "to_json") else list(k),
                self.terms[k].to_json(),
            ]
            for k in keys
        ]


def render_xkey(a: tuple) -> str:
    if all(e == 0 for e in a):
        return "1"
    bits = []
    for k, e in enumerate(a, start=1):
        if e:
            bits.append(f"X{k}" + (f"^{e}" if e != 1 else ""))
    return " ".join(bits)


class XTorus:
    """Pairing context for the rank-r torus on the rescaled generators X_k.

    Exponent keys are integer r-tuples a, with
    X^a X^b = t^(pair/2) X^(a+b),  pair = sum_{k<l} (beta_k, beta_l)(a_l b_k - a_k b_l).
    That is pair = a^T M b with M antisymmetric, M_kl = -(beta_k, beta_l) for k < l;
    products evaluate a^T M (`form`), and `pair2` is the reference sum.
    """

    def __init__(self, betas: tuple[Weight, ...], cartan):
        self.r = len(betas)
        self.betas = betas
        self.s = [
            [cartan.sprod(betas[k], betas[l]) for l in range(self.r)] for k in range(self.r)
        ]
        self._mcols = [[((k > l) - (k < l)) * row[l] for k, row in enumerate(self.s)] for l in range(self.r)]

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

    def form(self, a: tuple) -> list[int]:
        """The row vector a^T M: pair2(a, b) is its dot product with b."""
        return [sum(map(operator.mul, a, col)) for col in self._mcols]

    form_pair = staticmethod(lambda w, b: sum(map(operator.mul, w, b)))

    def key_one(self) -> tuple:
        return (0,) * self.r

    @staticmethod
    def key_mul(a: tuple, b: tuple) -> tuple:
        return tuple(map(operator.add, a, b))

    @staticmethod
    def key_inv(a: tuple) -> tuple:
        return tuple(map(operator.neg, a))

    @staticmethod
    def key_sort(a: tuple) -> tuple:
        return a

    @staticmethod
    def key_range(keys) -> dict:
        """Per coordinate, the least and the greatest exponent over the keys."""
        return {v: (min(c), max(c)) for v, c in enumerate(zip(*keys))}

    def element(self, terms: dict[tuple, HalfLaurent]) -> TorusElement:
        return TorusElement(self, terms)

    def monomial(self, a: tuple, coeff: HalfLaurent | None = None) -> TorusElement:
        return TorusElement(self, {tuple(a): coeff if coeff is not None else HalfLaurent.one()})

    def one(self) -> TorusElement:
        return self.monomial(self.key_one())

    def zero(self) -> TorusElement:
        return TorusElement(self, {})

    def unit_vector(self, k: int) -> tuple:
        return tuple(1 if j == k - 1 else 0 for j in range(self.r))

MAX_QUOTIENT_TERMS = 10000


def divide_right(s: TorusElement, p: TorusElement) -> TorusElement:
    """The unique q with q * p = s; raises ArithmeticError when the division
    is not exact.  The torus is a domain, so the extreme exponents of a product
    along each variable add: every key of q lies in the box [min s - min p,
    max s - max p], and the distinct quotient keys end inside it."""
    ctx = s.ctx
    if p.is_zero():
        raise ZeroDivisionError("division by zero torus element")
    rs, rp = ctx.key_range(s.terms), ctx.key_range(p.terms)
    box = {}
    for v in rs.keys() | rp.keys():
        (slo, shi), (plo, phi) = rs.get(v, (0, 0)), rp.get(v, (0, 0))
        box[v] = (slo - plo, shi - phi)
    lead_p = p.leading_key()
    lead_p_inv = ctx.key_inv(lead_p)
    rem = {k: dict(c.c) for k, c in s.terms.items()}
    # the largest remaining key is on top; keys that cancelled are skipped
    heap = [(ctx.key_sort(ctx.key_inv(k)), k) for k in rem]
    heapq.heapify(heap)
    quot: dict = {}
    while heap:
        lk = heapq.heappop(heap)[1]
        if lk not in rem:
            continue
        if len(quot) >= MAX_QUOTIENT_TERMS:
            raise ResourceCap(f"torus division passed {MAX_QUOTIENT_TERMS} quotient terms")
        qk = ctx.key_mul(lk, lead_p_inv)
        c = HalfLaurent(rem[lk]).shift(-ctx.pair2(qk, lead_p)).exact_div(p.terms[lead_p])
        if c is None:
            raise ArithmeticError("torus division is not exact (coefficient step)")
        e = ctx.key_range([qk])
        if any(not lo <= e.get(v, (0, 0))[0] <= hi for v, (lo, hi) in box.items()):
            raise ArithmeticError("torus division is not exact (quotient key outside its box)")
        quot[qk] = c
        # subtract c X^qk p at its keys; its leading term cancels rem[lk]
        for k, w in (TorusElement(ctx, {qk: c}) * p).terms.items():
            if k not in rem:
                rem[k] = {}
                heapq.heappush(heap, (ctx.key_sort(ctx.key_inv(k)), k))
            r = rem[k]
            for e, v in w.c.items():
                r[e] = r.get(e, 0) - v
                if not r[e]:
                    del r[e]
            if not r:
                del rem[k]
    return TorusElement(ctx, quot)
