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

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import Iterable, Iterator, Sequence


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
        return _neighbors(self.kind, self.n)[i - 1]

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
        row = _cartan_matrix(self.kind, self.n)[i - 1]  # alpha_i
        return Weight(tuple(x - c * a for x, a in zip(w.coords, row)))

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
        return w in _positive_root_set(self.kind, self.n)

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
    m = re.fullmatch(r"([A-Za-z])(\d+)", name)
    if m is None:
        raise ValueError(f"unsupported type {name}")
    return CartanDatum(m.group(1).upper(), int(m.group(2)))


@lru_cache(maxsize=None)
def _cartan_matrix(kind: str, n: int) -> tuple[tuple[int, ...], ...]:
    adj = {(a, b) for a, b in _edges(kind, n)} | {(b, a) for a, b in _edges(kind, n)}
    return tuple(
        tuple(2 if i == j else (-1 if (i + 1, j + 1) in adj else 0) for j in range(n))
        for i in range(n)
    )


@lru_cache(maxsize=None)
def _neighbors(kind: str, n: int) -> tuple[tuple[int, ...], ...]:
    """The sorted neighbours of each vertex, indexed from 0."""
    rows = _cartan_matrix(kind, n)
    return tuple(tuple(j + 1 for j, c in enumerate(row) if c == -1) for row in rows)


def root_sum(roots, a) -> tuple[int, ...]:
    """sum_k a_k roots[k] over the k with a_k != 0, roots on the simple roots."""
    out = [0] * len(roots[0])
    for k, c in enumerate(a):
        if c:
            for v, x in enumerate(roots[k]):
                out[v] += c * x
    return tuple(out)


def kostant_partitions(roots, d) -> list[tuple[int, ...]]:
    """Every c >= 0 with sum_k c_k roots[k] = d, roots given by simple-root
    coordinates, in decreasing lexicographic order of c."""
    return sorted(iter_kostant_partitions(roots, d), reverse=True)


def iter_kostant_partitions(roots, d) -> Iterator[tuple[int, ...]]:
    """The partitions of `kostant_partitions`, generated lazily by a
    depth-first walk, in no fixed order.

    Only the roots that are not simple are enumerated: the simple roots
    among `roots` take up what is left, which must lie on their coordinates.
    When every simple root is there, no branch is a dead end."""
    # entry k of a partition is read off rem + acc: the remainder at the
    # coordinate of a simple root, or the multiplicity chosen for a walked one
    d = tuple(d)
    walk, fill, on_simple = [], [], set()
    for b in roots:
        if sum(b) == 1:
            fill.append(b.index(1))
            on_simple.add(fill[-1])
        else:
            fill.append(len(d) + len(walk))
            walk.append(b)
    depth = len(walk)
    stack = [(0, d, ())]
    while stack:
        j, rem, acc = stack.pop()
        if j == depth:
            if all(r == 0 or (r > 0 and v in on_simple) for v, r in enumerate(rem)):
                yield tuple(map((rem + acc).__getitem__, fill))
            continue
        b = walk[j]
        stack.append((j + 1, rem, acc + (0,)))
        for c in range(1, min(r // x for r, x in zip(rem, b) if x) + 1):
            stack.append((j + 1, tuple(r - c * x for r, x in zip(rem, b)), acc + (c,)))


def dimension_vectors(n: int, bound: int) -> Iterator[tuple[int, ...]]:
    """Every d in N^n with sum(d) <= bound, once each: the gaps between the
    entries of an n-subset of range(bound + n), so C(bound + n, n) of them."""
    for c in combinations(range(bound + n), n):
        yield tuple(y - x - 1 for x, y in zip((-1,) + c, c))


@lru_cache(maxsize=None)
def _cartan_inverse(kind: str, n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, d * C^-1), d the least common denominator of C^-1: simply-laced,
    sum_b (b, x)(b, y) = h (x, y) over the positive roots b, so sum_b b b^T =
    h C^-1 with h = 2 |Phi+| / n, reduced by the gcd of h and its entries."""
    roots = _root_vectors(kind, n)
    h = 2 * len(roots) // n
    s = [[sum(b[i] * b[j] for b in roots) for j in range(n)] for i in range(n)]
    g = gcd(h, *(x for row in s for x in row))
    return h // g, tuple(tuple(x // g for x in row) for row in s)


@lru_cache(maxsize=None)
def _root_vectors(kind: str, n: int) -> tuple[tuple[int, ...], ...]:
    """The positive roots on the simple roots, by degree and then coordinates:
    the images of the simple roots under s_i(b) = b - (C b)_i e_i, kept while
    every coordinate is >= 0 (s_i moves only coordinate i)."""
    c = _cartan_matrix(kind, n)
    roots = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    frontier = set(roots)
    while frontier:
        frontier = {
            b[:i] + (b[i] - x,) + b[i + 1 :]
            for b in frontier
            for i, x in enumerate(sum(a * y for a, y in zip(row, b)) for row in c)
            if x <= b[i]
        } - roots
        roots |= frontier
    return tuple(sorted(roots, key=lambda b: (sum(b), b)))


@lru_cache(maxsize=None)
def _positive_roots(kind: str, n: int) -> tuple[Weight, ...]:
    """The positive roots as Weights C b, in the order of `_root_vectors`."""
    c = _cartan_matrix(kind, n)
    return tuple(Weight(tuple(sum(a * y for a, y in zip(row, b)) for row in c)) for b in _root_vectors(kind, n))


@lru_cache(maxsize=None)
def _positive_root_set(kind: str, n: int) -> frozenset[Weight]:
    return frozenset(_positive_roots(kind, n))


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
