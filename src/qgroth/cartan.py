"""Simply-laced Cartan data: Dynkin diagrams, weight lattice, Weyl combinatorics.

Vertex numbering (1-based) is fixed once per type:

  A_n : the path  1 - 2 - ... - n
  D_n : the fork  1 - 3,  2 - 3,  and the chain 3 - 4 - ... - n
        (the trivalent node is always 3; for D_4 this is the labelling
        with central node 3 used throughout the test data)
  E_n : the chain 1 - 3 - 4 - 5 - 6 [- 7 [- 8]]  with 2 attached to 4

Weights are stored by their coordinates on the fundamental weights.  In that
basis the reflection s_i subtracts coords[i] times the i-th row of the Cartan
matrix, and the scalar product of a root-lattice element with any weight is an
integer obtained from the simple-root coordinates.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from types import SimpleNamespace
from typing import Iterable, Sequence


class RankMismatch(ValueError):
    pass


class ResourceCap(RuntimeError):
    """Raised when an enumeration would exceed its configured cap."""


SUPPORTED = {("A", n) for n in range(1, 9)} | {("D", n) for n in range(4, 9)} | {
    ("E", n) for n in (6, 7, 8)
}


def _edges(kind: str, n: int) -> tuple[tuple[int, int], ...]:
    if kind == "A":
        return tuple((i, i + 1) for i in range(1, n))
    if kind == "D":
        return ((1, 3), (2, 3)) + tuple((i, i + 1) for i in range(3, n))
    if kind == "E":
        chain = [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)][: n - 2]
        return tuple(chain) + ((2, 4),)
    raise ValueError(f"unknown type {kind}")


@dataclass(frozen=True)
class Weight:
    """Element of the weight lattice, in fundamental-weight coordinates."""

    coords: tuple[int, ...]

    def __add__(self, other: "Weight") -> "Weight":
        if len(self.coords) != len(other.coords):
            raise RankMismatch("weights of different rank")
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        if len(self.coords) != len(other.coords):
            raise RankMismatch("weights of different rank")
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords))

    def scale(self, k: int) -> "Weight":
        return Weight(tuple(k * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def to_json(self) -> list[int]:
        return list(self.coords)

    @staticmethod
    def from_json(data: Iterable[int]) -> "Weight":
        return Weight(tuple(int(a) for a in data))


@dataclass(frozen=True)
class CartanDatum:
    kind: str
    n: int

    def __post_init__(self):
        if (self.kind, self.n) not in SUPPORTED:
            raise ValueError(f"unsupported type {self.kind}{self.n}")

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return _edges(self.kind, self.n)

    def neighbors(self, i: int) -> tuple[int, ...]:
        self._check_vertex(i)
        out = []
        for a, b in self.edges:
            if a == i:
                out.append(b)
            elif b == i:
                out.append(a)
        return tuple(sorted(out))

    def adjacent(self, i: int, j: int) -> bool:
        return j in self.neighbors(i)

    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        return _cartan_matrix(self.kind, self.n)

    def adjacency_matrix(self) -> tuple[tuple[int, ...], ...]:
        c = self.cartan_matrix()
        return tuple(tuple(1 if c[i][j] == -1 else 0 for j in range(self.n)) for i in range(self.n))

    def _check_vertex(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise RankMismatch(f"vertex {i} out of range for {self.kind}{self.n}")

    # --- weights -----------------------------------------------------------

    def zero_weight(self) -> Weight:
        return Weight((0,) * self.n)

    def varpi(self, i: int) -> Weight:
        self._check_vertex(i)
        return Weight(tuple(1 if j == i - 1 else 0 for j in range(self.n)))

    def alpha(self, i: int) -> Weight:
        self._check_vertex(i)
        return Weight(self.cartan_matrix()[i - 1])

    def alpha_coords(self, w: Weight) -> tuple[Fraction, ...]:
        """Coordinates of w on the simple roots (exact rationals)."""
        d, num = self._alpha_numerators(w)
        return tuple(Fraction(x, d) for x in num)

    def _alpha_numerators(self, w: Weight) -> tuple[int, tuple[int, ...]]:
        """(d, d * alpha_coords(w)), both integral."""
        if len(w.coords) != self.n:
            raise RankMismatch("weight has wrong rank")
        d, adj = _cartan_inverse(self.kind, self.n)
        return d, tuple(sum(a * x for a, x in zip(row, w.coords)) for row in adj)

    def root_coords(self, w: Weight) -> tuple[int, ...]:
        """Integer simple-root coordinates; raises if w is not in the root lattice."""
        d, num = self._alpha_numerators(w)
        out = []
        for x in num:
            c, r = divmod(x, d)
            if r:
                raise ValueError(f"{w} is not in the root lattice")
            out.append(c)
        return tuple(out)

    def in_root_lattice(self, w: Weight) -> bool:
        d, num = self._alpha_numerators(w)
        return all(x % d == 0 for x in num)

    def from_root_coords(self, coords: Sequence[int]) -> Weight:
        if len(coords) != self.n:
            raise RankMismatch("coordinate vector has wrong rank")
        c = self.cartan_matrix()
        return Weight(tuple(sum(coords[i] * c[i][j] for i in range(self.n)) for j in range(self.n)))

    def sprod(self, lam: Weight, mu: Weight) -> int:
        """Scalar product; at least one argument must lie in the root lattice."""
        if len(mu.coords) != self.n:
            raise RankMismatch("weight has wrong rank")
        d, num = self._alpha_numerators(lam)
        val, r = divmod(sum(a * x for a, x in zip(num, mu.coords)), d)
        if r:
            raise ValueError("scalar product is not integral (neither argument in root lattice)")
        return val

    def deg(self, w: Weight) -> int:
        """Sum of the simple-root coordinates (the principal grading)."""
        return sum(self.root_coords(w))

    # --- Weyl group --------------------------------------------------------

    def reflect(self, i: int, w: Weight) -> Weight:
        self._check_vertex(i)
        if len(w.coords) != self.n:
            raise RankMismatch("weight has wrong rank")
        c = w.coords[i - 1]
        if c == 0:
            return w
        return w - self.alpha(i).scale(c)

    def apply_word(self, word: Sequence[int], w: Weight) -> Weight:
        """Apply s_{word[0]} s_{word[1]} ... as a composition (rightmost acts first)."""
        for i in reversed(word):
            w = self.reflect(i, w)
        return w

    def positive_roots(self) -> tuple[Weight, ...]:
        return _positive_roots(self.kind, self.n)

    def num_positive_roots(self) -> int:
        return len(self.positive_roots())

    def is_positive_root(self, w: Weight) -> bool:
        return w in set(self.positive_roots())

    def coxeter_number(self) -> int:
        return _coxeter_number(self.kind, self.n)

    def longest_word(self) -> tuple[int, ...]:
        return _longest_word(self.kind, self.n)

    def w0(self, w: Weight) -> Weight:
        return self.apply_word(self.longest_word(), w)

    def nu(self, i: int) -> int:
        """The diagram involution with w0(alpha_i) = -alpha_{nu(i)}."""
        return _nu_table(self.kind, self.n)[i - 1]

    # --- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "type": f"{self.kind}{self.n}",
            "rank": self.n,
            "cartan": [list(r) for r in self.cartan_matrix()],
        }

    @staticmethod
    def from_json(data: dict) -> "CartanDatum":
        return cartan_datum(data["type"])


def cartan_datum(name: str) -> CartanDatum:
    """Parse a type name like 'A4', 'D5', 'E6'."""
    kind, n = name[0].upper(), int(name[1:])
    return CartanDatum(kind, n)


@lru_cache(maxsize=None)
def _cartan_matrix(kind: str, n: int) -> tuple[tuple[int, ...], ...]:
    adj = {(a, b) for a, b in _edges(kind, n)} | {(b, a) for a, b in _edges(kind, n)}
    return tuple(
        tuple(2 if i == j else (-1 if (i + 1, j + 1) in adj else 0) for j in range(n))
        for i in range(n)
    )


# The rational numbers as a field for `rref`: exact, through Fraction.
QQ = SimpleNamespace(sub=operator.sub, mul=operator.mul, inv=lambda a: 1 / Fraction(a))


def rref(rows, F) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over the field F (an object with sub, mul and
    inv): the nonzero reduced rows, and the pivot column of each."""
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


def solve(a, b, F) -> list[list]:
    """The matrix x with a x = b over F, for a square and invertible (a and b
    given by rows); raises ZeroDivisionError when a is singular."""
    n = len(a)
    red, pivots = rref([list(ra) + list(rb) for ra, rb in zip(a, b)], F)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in red]


@lru_cache(maxsize=None)
def _cartan_inverse(kind: str, n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, d * C^-1) with d the least common denominator of the entries of C^-1."""
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = solve(_cartan_matrix(kind, n), eye, QQ)
    d = lcm(*(Fraction(x).denominator for row in inv for x in row))
    return d, tuple(tuple(int(x * d) for x in row) for row in inv)


@lru_cache(maxsize=None)
def _positive_roots(kind: str, n: int) -> tuple[Weight, ...]:
    cd = CartanDatum(kind, n)
    roots = {cd.alpha(i).coords for i in cd.vertices}
    frontier = set(roots)
    while frontier:
        new = set()
        for rc in frontier:
            w = Weight(rc)
            for i in cd.vertices:
                img = cd.reflect(i, w)
                if all(x >= 0 for x in cd.root_coords(img)) and img.coords not in roots:
                    new.add(img.coords)
        roots |= new
        frontier = new
    out = [Weight(rc) for rc in roots]
    out.sort(key=lambda w: (sum(cd.root_coords(w)), cd.root_coords(w)))
    return tuple(out)


@lru_cache(maxsize=None)
def _coxeter_number(kind: str, n: int) -> int:
    cd = CartanDatum(kind, n)
    word = tuple(cd.vertices)
    basis = [cd.varpi(i) for i in cd.vertices]
    cur = list(basis)
    h = 0
    while True:
        cur = [cd.apply_word(word, w) for w in cur]
        h += 1
        if cur == basis:
            break
        if h > 1000:
            raise RuntimeError("Coxeter element order did not close")
    if h * n != 2 * len(_positive_roots(kind, n)):
        raise RuntimeError("Coxeter number disagrees with the positive-root count")
    return h


@lru_cache(maxsize=None)
def _longest_word(kind: str, n: int) -> tuple[int, ...]:
    # Walk rho down to -rho by simple reflections; the reflection record is a
    # reduced word for the longest element.
    cd = CartanDatum(kind, n)
    lam = Weight((1,) * n)
    target = Weight((-1,) * n)
    word = []
    while lam != target:
        i = next(j for j in cd.vertices if lam.coords[j - 1] > 0)
        word.append(i)
        lam = cd.reflect(i, lam)
    if len(word) != len(_positive_roots(kind, n)):
        raise RuntimeError("longest word has the wrong length")
    return tuple(word)


@lru_cache(maxsize=None)
def _nu_table(kind: str, n: int) -> tuple[int, ...]:
    cd = CartanDatum(kind, n)
    out = []
    for i in cd.vertices:
        img = -cd.w0(cd.alpha(i))
        j = next(j for j in cd.vertices if img == cd.alpha(j))
        out.append(j)
    return tuple(out)
