"""Dynkin quivers, height functions, adapted Coxeter words, and the
Auslander-Reiten labelling of the repetition quiver.

A quiver is an orientation of the Dynkin diagram together with a height
function xi satisfying xi_j = xi_i - 1 for each arrow i -> j.  The repetition
quiver has vertex set Ihat = {(i,p) : p = xi_i mod 2}; its vertices are
labelled by pairs (positive root, integer copy index) through the bijection
phi.  Level 0 is the heart mod(FQ): the r positions at which the adapted word
reflects its letters, labelled by the roots beta_k, with phi(i, xi_i) =
(gamma_i, 0).  Every other level is a shift of it, [1] sending (i, p) to
(nu(i), p + h) and raising the copy index by one.  The Coxeter transformation
tau translates down each column, phi(i, p - 2) = (tau beta, m), flipping sign
and lowering the copy index when tau beta is negative; the tests check phi
against that rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .cartan import CartanDatum, RankMismatch


def _check_rank(cartan: CartanDatum, xi: tuple) -> None:
    if len(xi) != cartan.n:
        raise RankMismatch(f"height function of rank {len(xi)} on a diagram of rank {cartan.n}")


@dataclass(frozen=True)
class QuiverDatum:
    cartan: CartanDatum
    arrows: tuple[tuple[int, int], ...]
    xi: tuple[int, ...]

    def __post_init__(self):
        edges = {frozenset(e) for e in self.cartan.edges}
        seen = {frozenset(a) for a in self.arrows}
        if seen != edges or len(self.arrows) != len(edges):
            raise ValueError("arrows must orient every Dynkin edge exactly once")
        _check_rank(self.cartan, self.xi)
        for i, j in self.arrows:
            if self.xi[j - 1] != self.xi[i - 1] - 1:
                raise ValueError(f"height function violates xi_j = xi_i - 1 on arrow {i}->{j}")

    # --- constructors ------------------------------------------------------

    @staticmethod
    def from_xi(cartan: CartanDatum, xi: Sequence[int]) -> "QuiverDatum":
        xi = tuple(xi)
        _check_rank(cartan, xi)
        arrows = []
        for a, b in cartan.edges:
            if xi[a - 1] - xi[b - 1] == 1:
                arrows.append((a, b))
            elif xi[b - 1] - xi[a - 1] == 1:
                arrows.append((b, a))
            else:
                raise ValueError(f"heights at edge {a}-{b} must differ by 1")
        return QuiverDatum(cartan, tuple(arrows), xi)

    @staticmethod
    def from_arrows(cartan: CartanDatum, arrows: Sequence[tuple[int, int]]) -> "QuiverDatum":
        """Derive xi by fixing xi = 0 at the smallest-index sink and propagating."""
        arrows = tuple(tuple(a) for a in arrows)
        for v in sorted({v for arrow in arrows for v in arrow}):
            cartan._check_vertex(v)
        sources_of_arrows = {i for i, _ in arrows}
        sinks = sorted(v for v in cartan.vertices if v not in sources_of_arrows)
        if not sinks:
            raise ValueError("orientation has no sink")
        xi = {sinks[0]: 0}
        while len(xi) < cartan.n:
            progressed = False
            for i, j in arrows:
                if j in xi and i not in xi:
                    xi[i] = xi[j] + 1
                    progressed = True
                if i in xi and j not in xi:
                    xi[j] = xi[i] - 1
                    progressed = True
            if not progressed:
                raise ValueError("diagram not connected by arrows")
        return QuiverDatum(cartan, arrows, tuple(xi[v] for v in cartan.vertices))

    @staticmethod
    def bipartite(cartan: CartanDatum) -> "QuiverDatum":
        """Sink-source orientation: two-colour the tree, xi in {0, 1}."""
        xi = {1: 0}
        while len(xi) < cartan.n:
            for a, b in cartan.edges:
                if a in xi and b not in xi:
                    xi[b] = 1 - xi[a]
                if b in xi and a not in xi:
                    xi[a] = 1 - xi[b]
        return QuiverDatum.from_xi(cartan, tuple(xi[v] for v in cartan.vertices))

    # --- basic structure ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.cartan.n

    def gamma(self, i: int) -> tuple[int, ...]:
        """Sum of alpha_j over vertices j admitting a path to i (the dimension
        vector of the injective hull at i), on the simple roots."""
        self.cartan._check_vertex(i)
        reach = {i}
        changed = True
        while changed:
            changed = False
            for a, b in self.arrows:
                if b in reach and a not in reach:
                    reach.add(a)
                    changed = True
        return tuple(int(j in reach) for j in self.cartan.vertices)

    def in_ihat(self, i: int, p: int) -> bool:
        return 1 <= i <= self.n and (p - self.xi[i - 1]) % 2 == 0

    # --- Coxeter transformation --------------------------------------------

    @cached_property
    def tau_word(self) -> tuple[int, ...]:
        """The adapted Coxeter word: a topological order of the orientation,
        smallest index first among simultaneously available vertices."""
        picked: list[int] = []
        done: set[int] = set()
        while len(picked) < self.n:
            i = next(
                v
                for v in self.cartan.vertices
                if v not in done and all(a in done for a, b in self.arrows if b == v)
            )
            picked.append(i)
            done.add(i)
        return tuple(picked)

    def tau(self, b: tuple[int, ...]) -> tuple[int, ...]:
        return self.cartan.apply_word(self.tau_word, b)

    def tau_power(self, b: tuple[int, ...], ell: int) -> tuple[int, ...]:
        for _ in range(ell % self.cartan.coxeter_number()):
            b = self.tau(b)
        return b

    # --- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "type": f"{self.cartan.kind}{self.cartan.n}",
            "arrows": [list(a) for a in self.arrows],
            "xi": list(self.xi),
        }


class PhiMap:
    """The labelling bijection phi between Ihat and (positive roots) x Z.

    Level 0 is read off the adapted word: phi(i_k, xi'_k) = (beta_k, 0) at
    the position where the k-th letter is reflected.  The shift [1] sends
    (i, p) with label (beta, m) to (nu(i), p + h) with label (beta, m + 1),
    so two shifts return to column i 2h higher.  Within one period
    (xi_i - 2h, xi_i] column i holds its level-0 labels on top and, below
    them, the level -1 labels, which one shift carries onto level 0 of
    column nu(i).
    """

    def __init__(self, word: "AdaptedWord"):
        self.quiver = word.quiver
        self.cartan = word.quiver.cartan
        self.h = self.cartan.coxeter_number()
        self._level0 = dict(zip(word.positions, word.roots))
        self._position = dict(zip(word.roots, word.positions))
        # one period of column i: its n_i level-0 labels, then the
        # h - n_i of column nu(i), which must start where they end
        xi = self.quiver.xi
        for i in self.cartan.vertices:
            n_i = word.word.count(i)
            if xi[self.cartan.nu(i) - 1] + 2 * n_i != xi[i - 1] + self.h:
                raise RuntimeError(f"level 0 of columns {i} and nu({i}) do not tile a period")

    def phi(self, i: int, p: int) -> tuple[tuple[int, ...], int]:
        if not self.quiver.in_ihat(i, p):
            raise ValueError(f"({i},{p}) is not a vertex of the repetition quiver")
        periods = (self.quiver.xi[i - 1] - p) // (2 * self.h)
        p += 2 * self.h * periods
        beta = self._level0.get((i, p))
        if beta is not None:
            return beta, -2 * periods
        return self._level0[(self.cartan.nu(i), p + self.h)], -2 * periods - 1

    def phi_inverse(self, beta: tuple[int, ...], m: int) -> tuple[int, int]:
        if beta not in self._position:
            raise ValueError(f"{beta} is not a positive root")
        i, p = self._position[beta]
        periods, shift = divmod(m, 2)
        if shift:
            i, p = self.cartan.nu(i), p + self.h
        return i, p + 2 * self.h * periods

    def generator_position(self, i: int, m: int) -> tuple[int, int]:
        """phi^-1(alpha_i, m), alpha_i = e_i: the vertex of the level-m generator at i."""
        return self.phi_inverse(self.cartan.unit(i), m)


@dataclass(frozen=True)
class AdaptedWord:
    """A reduced word for the longest element adapted to the orientation,
    built by repeatedly reflecting the highest source (ties going to the
    smaller index) whose root keeps the word reduced, together with the roots
    beta_k on the simple roots, the partial sums x(b, j) = sum of the beta_k
    with k <= b and i_k = j, and the position (i_k, xi'_k) of Ihat at which
    the k-th letter is reflected (xi' the height function of the quiver
    reflected so far).

    The roots are the one table that sums and pairs them.  The weight
    mu(b, j) = s_{i_1} ... s_{i_b}(varpi_j) is varpi_j - x(b, j), so every
    pairing the paper makes is one of two integer forms, (r, s) = r^T C s and
    (r, varpi_j - x) = r_j - r^T C x.  The Hall side, the rank-r torus and
    the quantum-group side read the Euler and hom tables of mod(FQ) off it."""

    quiver: QuiverDatum
    word: tuple[int, ...]
    roots: tuple[tuple[int, ...], ...]
    sums: tuple[tuple[tuple[int, ...], ...], ...]  # sums[b][j - 1] = x(b, j)
    positions: tuple[tuple[int, int], ...]

    @staticmethod
    def build(quiver: QuiverDatum) -> "AdaptedWord":
        """One pass down the word carrying the row x(b, .): the root of letter
        i is w_b(alpha_i) = sum_j c_ij mu(b, j) = e_i - sum_j c_ij x(b, j),
        and it is positive exactly when w_b s_i is still reduced.  Reflecting
        letter i adds its root to the i-th entry of the row only."""
        cd = quiver.cartan
        xi = list(quiver.xi)
        row = ((0,) * cd.n,) * cd.n
        word, roots, sums, positions = [], [], [row], []
        for step in range(1, cd.num_positive_roots() + 1):
            # Highest source first so the sweep of the index set is monotone
            # in the spectral parameter; ties broken by vertex index.
            for i in sorted(cd.vertices, key=lambda v: (-xi[v - 1], v)):
                if any(xi[j - 1] > xi[i - 1] for j in cd.neighbors(i)):
                    continue
                near = [row[j - 1] for j in cd.neighbors(i)]
                beta = tuple(int(v == i - 1) - 2 * x + sum(y[v] for y in near) for v, x in enumerate(row[i - 1]))
                if cd.is_positive_root(beta):
                    break
            else:
                raise RuntimeError(f"adapted word: no source keeps the word reduced at step {step}")
            row = row[: i - 1] + (tuple(x + y for x, y in zip(row[i - 1], beta)),) + row[i:]
            word.append(i)
            roots.append(beta)
            sums.append(row)
            positions.append((i, xi[i - 1]))
            xi[i - 1] -= 2
        if set(roots) != set(cd.positive_roots()):
            raise RuntimeError("source-reflection word did not enumerate the positive roots")
        return AdaptedWord(quiver, tuple(word), tuple(roots), tuple(sums), tuple(positions))

    @property
    def r(self) -> int:
        return len(self.word)

    @cached_property
    def euler(self) -> tuple[tuple[int, ...], ...]:
        """euler[k][l] = <beta_k, beta_l> of `ringel_form`: the Euler form of
        the heart mod(FQ) on the roots, in word order."""
        return tuple(tuple(ringel_form(self.quiver, s, t) for t in self.roots) for s in self.roots)

    @cached_property
    def hom(self) -> tuple[tuple[int, ...], ...]:
        """hom[k][l] = dim Hom(M(beta_k), M(beta_l)): mod(FQ) is directed, its
        bricks in word order, Hom and Ext^1 between two never both nonzero,
        so 1 on the diagonal and max(0, euler[k][l]) off it, 0 above it."""
        return tuple(tuple(1 if k == l else max(0, e) for l, e in enumerate(row)) for k, row in enumerate(self.euler))

    def kminus(self, k: int, j: Optional[int] = None) -> int:
        """Largest index s < k with word[s] = j (j defaults to word[k]); 0 if none."""
        if not 1 <= k <= self.r:
            raise ValueError(f"index {k} out of range")
        letter = self.word[k - 1] if j is None else j
        for s in range(k - 1, 0, -1):
            if self.word[s - 1] == letter:
                return s
        return 0


class QuiverContext:
    """Bundles a quiver with its adapted word, phi map and index tables."""

    def __init__(self, quiver: QuiverDatum):
        self.quiver = quiver
        self.cartan = quiver.cartan
        self.word = AdaptedWord.build(quiver)
        self.phi = PhiMap(self.word)
        # k (1-based) -> the Ihat vertex with phi(i,p) = (beta_k, 0)
        self.positions = self.word.positions
        self.index_of_position = {ip: k + 1 for k, ip in enumerate(self.positions)}
        # build-time sanity: phi is normalized by phi(i, xi_i) = (gamma_i, 0),
        # and the Euler form satisfies <alpha_i, gamma_j> = delta_ij, read as
        # one n x n table: <e_i, g> = g_i - sum_{arrows i->k} g_k
        vertices = self.cartan.vertices
        gammas = [quiver.gamma(j) for j in vertices]
        for i, g in zip(vertices, gammas):
            if self.phi.phi(i, quiver.xi[i - 1]) != (g, 0):
                raise RuntimeError(f"phi(i, xi_i) is not (gamma_i, 0) at i = {i}")
        euler = [list(g) for g in gammas]  # row j holds <e_i, gamma_j> at i - 1
        for i, k in quiver.arrows:
            for row, g in zip(euler, gammas):
                row[i - 1] -= g[k - 1]
        for i in vertices:
            for j, row in zip(vertices, euler):
                if row[i - 1] != int(i == j):
                    raise RuntimeError(f"Euler form <alpha_{i}, gamma_{j}> is not delta")

def ringel_form(quiver: QuiverDatum, d, e) -> int:
    """Euler form <d, e> = sum_i d_i e_i - sum_{arrows i->j} d_i e_j of two
    integer sequences on the simple roots."""
    cd = quiver.cartan
    dv, ev = cd.root_coords(d), cd.root_coords(e)
    val = sum(a * b for a, b in zip(dv, ev))
    for i, j in quiver.arrows:
        val -= dv[i - 1] * ev[j - 1]
    return val
