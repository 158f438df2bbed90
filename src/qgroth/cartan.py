"""Simply-laced Cartan data: Dynkin diagrams, the root lattice, Weyl combinatorics.

Vertex numbering (1-based) is fixed once per type:

  A_n : the path  1 - 2 - ... - n
  D_n : the fork  1 - 3,  2 - 3,  and the chain 3 - 4 - ... - n
        (the trivalent node is always 3; for D_4 this is the labelling
        with central node 3 used throughout the test data)
  E_n : the chain 1 - 3 - 4 - 5 - 6 [- 7 [- 8]]  with 2 attached to 4

The root lattice is the one lattice: a root, or a sum of roots, is a tuple
of ints on the simple roots.  The scalar product is (r, s) = r^T C s, the
reflection is s_i(b) = b - (C b)_i e_i, and a shifted fundamental weight
varpi_j - x, x in the root lattice, is never formed: it pairs with r as
r_j - r^T C x.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import mul
from typing import Iterator, Sequence


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

    # --- the root lattice ----------------------------------------------------

    def root_coords(self, r) -> tuple[int, ...]:
        """r as a tuple of ints on the simple roots, checked to have the rank."""
        r = tuple(r)
        if len(r) != self.n:
            raise RankMismatch(f"vector of {len(r)} entries, {self.kind}{self.n} has rank {self.n}")
        return r

    alpha_coords = root_coords

    def unit(self, i: int) -> tuple[int, ...]:
        """e_i, the simple root alpha_i on the simple roots."""
        self._check_vertex(i)
        return tuple(int(j == i) for j in self.vertices)

    def sprod(self, r, s) -> int:
        """The scalar product (r, s) = r^T C s of two root-lattice vectors."""
        r, s = self.root_coords(r), self.root_coords(s)
        return sum(a * sum(map(mul, row, s)) for a, row in zip(r, _cartan_matrix(self.kind, self.n)))

    # --- Weyl group --------------------------------------------------------

    def reflect(self, i: int, b: tuple[int, ...]) -> tuple[int, ...]:
        """s_i(b) = b - (C b)_i e_i."""
        self._check_vertex(i)
        b = self.root_coords(b)
        cb = sum(map(mul, _cartan_matrix(self.kind, self.n)[i - 1], b))
        return b[: i - 1] + (b[i - 1] - cb,) + b[i:]

    def apply_word(self, word: Sequence[int], b: tuple[int, ...]) -> tuple[int, ...]:
        """Apply s_{word[0]} s_{word[1]} ... as a composition (rightmost acts first)."""
        for i in reversed(word):
            b = self.reflect(i, b)
        return b

    def positive_roots(self) -> tuple[tuple[int, ...], ...]:
        return _root_vectors(self.kind, self.n)

    def num_positive_roots(self) -> int:
        return len(self.positive_roots())

    def is_positive_root(self, b: tuple[int, ...]) -> bool:
        return b in _root_set(self.kind, self.n)

    def coxeter_number(self) -> int:
        return _coxeter_number(self.kind, self.n)

    def longest_word(self) -> tuple[int, ...]:
        return _longest_word(self.kind, self.n)

    def w0(self, b: tuple[int, ...]) -> tuple[int, ...]:
        return self.apply_word(self.longest_word(), b)

    def nu(self, i: int) -> int:
        """The diagram involution with w0(alpha_i) = -alpha_{nu(i)}."""
        return _nu_table(self.kind, self.n)[i - 1]


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
def _root_vectors(kind: str, n: int) -> tuple[tuple[int, ...], ...]:
    """The positive roots on the simple roots, by degree and then coordinates:
    the images of the simple roots under s_i(b) = b - (C b)_i e_i, kept while
    every coordinate is >= 0 (s_i moves only coordinate i)."""
    cd, c = CartanDatum(kind, n), _cartan_matrix(kind, n)
    roots = {cd.unit(i) for i in cd.vertices}
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
def _root_set(kind: str, n: int) -> frozenset[tuple[int, ...]]:
    return frozenset(_root_vectors(kind, n))


@lru_cache(maxsize=None)
def _coxeter_number(kind: str, n: int) -> int:
    cd = CartanDatum(kind, n)
    word = tuple(cd.vertices)
    basis = [cd.unit(i) for i in cd.vertices]
    cur = list(basis)
    h = 0
    while True:
        cur = [cd.apply_word(word, b) for b in cur]
        h += 1
        if cur == basis:
            break
        if h > 1000:
            raise RuntimeError("Coxeter element order did not close")
    if h * n != 2 * len(_root_vectors(kind, n)):
        raise RuntimeError("Coxeter number disagrees with the positive-root count")
    return h


@lru_cache(maxsize=None)
def _longest_word(kind: str, n: int) -> tuple[int, ...]:
    # Walk 2 rho = sum of the positive roots down to -2 rho by simple
    # reflections, each time at the first j with (C b)_j > 0; the reflection
    # record is a reduced word for the longest element.
    cd, c = CartanDatum(kind, n), _cartan_matrix(kind, n)
    roots = _root_vectors(kind, n)
    b = tuple(map(sum, zip(*roots)))
    target = tuple(-x for x in b)
    word = []
    while b != target:
        i = next(j for j in cd.vertices if sum(map(mul, c[j - 1], b)) > 0)
        word.append(i)
        b = cd.reflect(i, b)
    if len(word) != len(roots):
        raise RuntimeError("longest word has the wrong length")
    return tuple(word)


@lru_cache(maxsize=None)
def _nu_table(kind: str, n: int) -> tuple[int, ...]:
    cd = CartanDatum(kind, n)
    return tuple(cd.w0(cd.unit(i)).index(-1) + 1 for i in cd.vertices)
