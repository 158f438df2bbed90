"""Exact Laurent polynomials in a half-integer power of a deformation parameter.

Coefficients are arbitrary-precision integers; exponents are half-integers
stored as doubled ints, so the monomial t^(k/2) sits under the key k.  The
same ring serves both t^(1/2) (deformed Grothendieck rings) and v^(1/2)
(quantized enveloping algebras); only the display name differs.
"""

from __future__ import annotations

from typing import Iterator


class HalfLaurent:
    """Sparse Laurent polynomial in t^(1/2) over the integers.

    Invariant: a value is immutable after construction (every operation
    returns a fresh object and never writes to an operand's `c`), and `c`
    stores no zero coefficient.  `__init__` filters zeros out of any dict;
    the operations whose results hold no zero by construction build them
    with `_of`, which skips that filter.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.c = {e: v for e, v in (coeffs or {}).items() if v != 0}

    @staticmethod
    def _of(c: dict[int, int]) -> "HalfLaurent":
        """Wrap c, which holds no zero coefficient and is not shared."""
        out = object.__new__(HalfLaurent)
        out.c = c
        return out

    @staticmethod
    def zero() -> "HalfLaurent":
        return HalfLaurent()

    @staticmethod
    def one() -> "HalfLaurent":
        return HalfLaurent({0: 1})

    @staticmethod
    def t_power(exp2: int) -> "HalfLaurent":
        return HalfLaurent._of({exp2: 1})

    def is_zero(self) -> bool:
        return not self.c

    def __bool__(self) -> bool:
        return bool(self.c)

    def is_one(self) -> bool:
        return self.c == {0: 1}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HalfLaurent):
            return NotImplemented
        return self.c == other.c

    def __hash__(self) -> int:
        return hash(frozenset(self.c.items()))

    def __add__(self, other: "HalfLaurent") -> "HalfLaurent":
        out = dict(self.c)
        for e, v in other.c.items():
            w = out.get(e, 0) + v
            if w:
                out[e] = w
            else:
                out.pop(e, None)
        return HalfLaurent._of(out)

    def __neg__(self) -> "HalfLaurent":
        return HalfLaurent._of({e: -v for e, v in self.c.items()})

    def __sub__(self, other: "HalfLaurent") -> "HalfLaurent":
        return self + (-other)

    def __mul__(self, other: "HalfLaurent") -> "HalfLaurent":
        out: dict[int, int] = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                w = out.get(e, 0) + v1 * v2
                if w:
                    out[e] = w
                else:
                    out.pop(e, None)
        return HalfLaurent._of(out)

    def shift(self, exp2: int) -> "HalfLaurent":
        """Multiply by t^(exp2/2)."""
        return HalfLaurent._of({e + exp2: v for e, v in self.c.items()})

    def conj(self) -> "HalfLaurent":
        """The substitution t^(1/2) -> t^(-1/2)."""
        return HalfLaurent._of({-e: v for e, v in self.c.items()})

    def is_symmetric(self) -> bool:
        c = self.c
        return c == {-e: v for e, v in c.items()}

    def is_antisymmetric(self) -> bool:
        c = self.c
        return c == {-e: -v for e, v in c.items()}

    def negative_part(self) -> "HalfLaurent":
        """Terms with strictly negative exponent."""
        return HalfLaurent._of({e: v for e, v in self.c.items() if e < 0})

    def is_nonnegative(self) -> bool:
        return all(v > 0 for v in self.c.values())

    def max_exp2(self) -> int:
        return max(self.c)

    def min_exp2(self) -> int:
        return min(self.c)

    def exact_div(self, other: "HalfLaurent") -> "HalfLaurent | None":
        """Exact quotient self/other, or None when the division has a remainder.

        Long division from the top: each step cancels the top remainder term,
        so the quotient exponents strictly fall.  An exact quotient has its
        exponents in [min(self) - min(other), max(self) - max(other)], so the
        division stops with None at the first exponent below that box."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero Laurent polynomial")
        if self.is_zero():
            return HalfLaurent()
        lead_e = other.max_exp2()
        lead_c = other.c[lead_e]
        low = self.min_exp2() - other.min_exp2()
        rem = dict(self.c)
        quot: dict[int, int] = {}
        while rem:
            e = max(rem)
            v = rem[e]
            qe = e - lead_e
            if qe < low or v % lead_c != 0:
                return None
            q = quot[qe] = v // lead_c
            for oe, ov in other.c.items():
                te = qe + oe
                w = rem.get(te, 0) - q * ov
                if w:
                    rem[te] = w
                else:
                    rem.pop(te, None)
        return HalfLaurent._of(quot)

    def __repr__(self) -> str:
        return f"HalfLaurent({self.render()})"

    def render(self, var: str = "t") -> str:
        if not self.c:
            return "0"
        out = ""
        for e in sorted(self.c, reverse=True):
            v = self.c[e]
            if e % 2:
                p = f"{var}^({e}/2)"
            elif e == 2:
                p = var
            else:
                p = f"{var}^{e // 2}"
            body = str(abs(v)) if e == 0 else p if abs(v) == 1 else f"{abs(v)}*{p}"
            sign = "-" if v < 0 else ""
            out += f" {sign or '+'} {body}" if out else sign + body
        return out

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(self.c.items())


ONE = HalfLaurent.one()
