"""Dynkin quivers, height functions, adapted Coxeter words, and the
Auslander-Reiten labelling of the repetition quiver.

A quiver is an orientation of the Dynkin diagram together with a height
function xi satisfying xi_j = xi_i - 1 for each arrow i -> j.  The repetition
quiver has vertex set Ihat = {(i,p) : p = xi_i mod 2}; its vertices are
labelled by pairs (positive root, integer copy index) through the bijection
phi, which starts from phi(i, xi_i) = (gamma_i, 0) and is propagated by the
Coxeter transformation tau, flipping sign and shifting the copy index whenever
tau crosses from positive to negative roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .cartan import CartanDatum, RankMismatch, Weight, cartan_datum


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
        if len(self.xi) != self.cartan.n:
            raise RankMismatch("height function has wrong rank")
        for i, j in self.arrows:
            if self.xi[j - 1] != self.xi[i - 1] - 1:
                raise ValueError(f"height function violates xi_j = xi_i - 1 on arrow {i}->{j}")

    # --- constructors ------------------------------------------------------

    @staticmethod
    def from_xi(cartan: CartanDatum, xi: Sequence[int]) -> "QuiverDatum":
        xi = tuple(xi)
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

    def sources(self) -> list[int]:
        targets = {j for _, j in self.arrows}
        return sorted(v for v in self.cartan.vertices if v not in targets)

    def reflect_source(self, i: int) -> "QuiverDatum":
        if i not in self.sources():
            raise ValueError(f"vertex {i} is not a source")
        arrows = tuple((j, a) if a == i or j == i else (a, j) for a, j in self.arrows)
        xi = tuple(x - 2 if v == i else x for v, x in zip(self.cartan.vertices, self.xi))
        return QuiverDatum(self.cartan, arrows, xi)

    def gamma(self, i: int) -> Weight:
        """Sum of alpha_j over vertices j admitting a path to i (the dimension
        vector of the injective hull at i)."""
        self.cartan._check_vertex(i)
        reach = {i}
        changed = True
        while changed:
            changed = False
            for a, b in self.arrows:
                if b in reach and a not in reach:
                    reach.add(a)
                    changed = True
        w = self.cartan.zero_weight()
        for j in reach:
            w = w + self.cartan.alpha(j)
        return w

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

    def tau(self, w: Weight) -> Weight:
        return self.cartan.apply_word(self.tau_word, w)

    def tau_inv(self, w: Weight) -> Weight:
        return self.cartan.apply_word(self.tau_word[::-1], w)

    def tau_power(self, w: Weight, ell: int) -> Weight:
        h = self.cartan.coxeter_number()
        ell %= h
        for _ in range(ell):
            w = self.tau(w)
        return w

    # --- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "type": f"{self.cartan.kind}{self.cartan.n}",
            "arrows": [list(a) for a in self.arrows],
            "xi": list(self.xi),
        }

    @staticmethod
    def from_json(data: dict) -> "QuiverDatum":
        cd = cartan_datum(data["type"])
        return QuiverDatum(cd, tuple((int(a), int(b)) for a, b in data["arrows"]), tuple(data["xi"]))


class PhiMap:
    """The labelling bijection phi between Ihat and (positive roots) x Z.

    Computed lazily column by column and memoized; the inverse is kept in a
    parallel table.  Thread safety relies on idempotent cache fills.
    """

    def __init__(self, quiver: QuiverDatum):
        self.quiver = quiver
        self.cartan = quiver.cartan
        # column i -> dict p -> (root, m); bounds of the explored p-interval
        self._cols: dict[int, dict[int, tuple[Weight, int]]] = {}
        self._lo: dict[int, int] = {}
        self._hi: dict[int, int] = {}
        self._inv: dict[tuple[tuple[int, ...], int], tuple[int, int]] = {}
        for i in quiver.cartan.vertices:
            xi = quiver.xi[i - 1]
            g = quiver.gamma(i)
            self._cols[i] = {xi: (g, 0)}
            self._lo[i] = self._hi[i] = xi
            self._inv[(g.coords, 0)] = (i, xi)

    def _extend_down(self, i: int) -> None:
        p = self._lo[i]
        beta, m = self._cols[i][p]
        nxt = self.quiver.tau(beta)
        if self.cartan.is_positive_root(nxt):
            entry = (nxt, m)
        else:
            entry = (-nxt, m - 1)
        self._cols[i][p - 2] = entry
        self._inv[(entry[0].coords, entry[1])] = (i, p - 2)
        self._lo[i] = p - 2

    def _extend_up(self, i: int) -> None:
        p = self._hi[i]
        beta, m = self._cols[i][p]
        nxt = self.quiver.tau_inv(beta)
        if self.cartan.is_positive_root(nxt):
            entry = (nxt, m)
        else:
            entry = (-nxt, m + 1)
        self._cols[i][p + 2] = entry
        self._inv[(entry[0].coords, entry[1])] = (i, p + 2)
        self._hi[i] = p + 2

    def phi(self, i: int, p: int) -> tuple[Weight, int]:
        if not self.quiver.in_ihat(i, p):
            raise ValueError(f"({i},{p}) is not a vertex of the repetition quiver")
        while self._lo[i] > p:
            self._extend_down(i)
        while self._hi[i] < p:
            self._extend_up(i)
        return self._cols[i][p]

    def phi_inverse(self, beta: Weight, m: int) -> tuple[int, int]:
        if not self.cartan.is_positive_root(beta):
            raise ValueError(f"{beta} is not a positive root")
        key = (beta.coords, m)
        # Each h steps in a column move the copy index by one, so a bounded
        # number of one-step extensions of every column suffices.
        steps = 2 * self.cartan.coxeter_number() * (abs(m) + 3)
        while key not in self._inv:
            if steps == 0:
                raise RuntimeError(f"phi_inverse failed to locate ({beta}, {m})")
            steps -= 1
            for i in self.quiver.cartan.vertices:
                self._extend_down(i)
                self._extend_up(i)
        return self._inv[key]


@dataclass(frozen=True)
class AdaptedWord:
    """A reduced word for the longest element adapted to the orientation,
    built by repeatedly reflecting the smallest-index source, together with
    the root sequence beta_k and the weight sequence lambda_k."""

    quiver: QuiverDatum
    word: tuple[int, ...]
    betas: tuple[Weight, ...]
    lambdas: tuple[Weight, ...]

    @staticmethod
    def build(quiver: QuiverDatum) -> "AdaptedWord":
        cd = quiver.cartan
        r = cd.num_positive_roots()
        # Vertex i must be reflected once per vertex of its column ladder,
        # i.e. once per consecutive Coxeter power keeping gamma_i positive.
        budget = {}
        for i in cd.vertices:
            m, w = 0, quiver.gamma(i)
            while cd.is_positive_root(w):
                m += 1
                w = quiver.tau(w)
            budget[i] = m
        if sum(budget.values()) != r:
            raise RuntimeError("column ladders do not cover the positive roots")
        word: list[int] = []
        q = quiver
        for _ in range(r):
            # Highest source first so the sweep of the index set is monotone
            # in the spectral parameter; ties broken by vertex index.
            i = max(
                (v for v in q.sources() if budget[v] > 0),
                key=lambda v: (q.xi[v - 1], -v),
            )
            budget[i] -= 1
            word.append(i)
            q = q.reflect_source(i)
        betas = []
        lambdas = []
        for k in range(1, r + 1):
            betas.append(cd.apply_word(word[: k - 1], cd.alpha(word[k - 1])))
            lambdas.append(cd.apply_word(word[:k], cd.varpi(word[k - 1])))
        if {b.coords for b in betas} != {b.coords for b in cd.positive_roots()}:
            raise RuntimeError("source-reflection word did not enumerate the positive roots")
        return AdaptedWord(quiver, tuple(word), tuple(betas), tuple(lambdas))

    @property
    def r(self) -> int:
        return len(self.word)

    def kminus(self, k: int, j: Optional[int] = None) -> int:
        """Largest index s < k with word[s] = j (j defaults to word[k]); 0 if none."""
        if not 1 <= k <= self.r:
            raise ValueError(f"index {k} out of range")
        letter = self.word[k - 1] if j is None else j
        for s in range(k - 1, 0, -1):
            if self.word[s - 1] == letter:
                return s
        return 0

    def lam(self, k: int, letter: Optional[int] = None) -> Weight:
        """lambda_k, with the convention lambda_0 = varpi of the given letter."""
        if k == 0:
            if letter is None:
                raise ValueError("lambda_0 needs the letter whose varpi to use")
            return self.quiver.cartan.varpi(letter)
        return self.lambdas[k - 1]

    def mu(self, b: int, j: int) -> Weight:
        """s_{i_1} ... s_{i_b} (varpi_j); mu(0, j) = varpi_j."""
        return self._mus[b][j - 1]

    @cached_property
    def _mus(self) -> list[list[Weight]]:
        """mu(b, j) for every b and j, in one pass down the word: s_i varpi_j =
        varpi_j - [i = j] alpha_i, so mu(b, j) = mu(b-1, j) - [j = i_b] beta_b."""
        cd = self.quiver.cartan
        rows = [[cd.varpi(j) for j in cd.vertices]]
        for i, beta in zip(self.word, self.betas):
            row = list(rows[-1])
            row[i - 1] = row[i - 1] - beta
            rows.append(row)
        return rows


class QuiverContext:
    """Bundles a quiver with its phi map, adapted word and index tables."""

    def __init__(self, quiver: QuiverDatum):
        self.quiver = quiver
        self.cartan = quiver.cartan
        self.phi = PhiMap(quiver)
        self.word = AdaptedWord.build(quiver)
        # k (1-based) -> the Ihat vertex with phi(i,p) = (beta_k, 0)
        self.positions: list[tuple[int, int]] = [
            self.phi.phi_inverse(b, 0) for b in self.word.betas
        ]
        self.index_of_position = {ip: k + 1 for k, ip in enumerate(self.positions)}
        # build-time sanity: the Euler form satisfies <alpha_i, gamma_j> = delta_ij
        gammas = [quiver.gamma(j) for j in self.cartan.vertices]
        for i in self.cartan.vertices:
            for j, g in zip(self.cartan.vertices, gammas):
                if ringel_form(quiver, self.cartan.alpha(i), g) != int(i == j):
                    raise RuntimeError(f"Euler form <alpha_{i}, gamma_{j}> is not delta")

def ringel_form(quiver: QuiverDatum, d, e) -> int:
    """Euler form <d, e> = sum_i d_i e_i - sum_{arrows i->j} d_i e_j.

    Arguments may be Weights (converted through simple-root coordinates) or
    plain integer sequences.
    """
    cd = quiver.cartan
    dv = cd.root_coords(d) if isinstance(d, Weight) else tuple(d)
    ev = cd.root_coords(e) if isinstance(e, Weight) else tuple(e)
    if len(dv) != cd.n or len(ev) != cd.n:
        raise RankMismatch("dimension vector has wrong rank")
    val = sum(a * b for a, b in zip(dv, ev))
    for i, j in quiver.arrows:
        val -= dv[i - 1] * ev[j - 1]
    return val
