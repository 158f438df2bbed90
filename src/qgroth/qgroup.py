"""The quantized coordinate-ring side: quantum minors inside the rank-r torus,
dual PBW and dual canonical bases, and their comparison with the truncated
classes of the character side, which live in the same torus.

Minors D(b,d) are never abstract: they exist only through their expansions on
the basis X^a of the rank-r torus.  The flag minors D(0,k) are ordered
products of the rescaled variables; every other minor is produced from the
determinantal identity by exact right division, recursing on b + d.  Each
rescaled dual PBW vector is built as a standard class is, by one normalized
product: the one with its last factor removed times the rescaled minor
v^(N(beta_k)/2) E*(k).  The dual canonical vectors are carved out of the dual
PBW vectors by a twisted bar-inversion: working with the rescaled family
v^(N/2) E*, the twist disappears and the involution is plain coefficient
conjugation (checked once per side, as conj(E*(k)) = v^N(beta_k) E*(k), with
N(beta_k) read off the word's Euler table), so one solve by Lusztig's lemma,
as on the character side, fills a whole weight space.

The comparison walks the weight spaces d with sum(d) at most the degree
bound and runs that solve once per weight space, over the depths read off
its decompositions into roots; `b_tilde` reads the same solve.  Each row is
checked against the characterization of the dual canonical basis instead of
being solved again over the dual PBW family.  The solve checks that bar is
unitriangular on the family, whose leading keys are distinct, dominant and
carry coefficient 1; so at most one bar-invariant element lies in E~(a) +
sum_b t^(-1/2) Z[t^(-1/2)] E~(b) over strictly deeper b (the uniqueness half
of Lusztig's lemma), and a row of that shape that is bar-invariant is B~(a).
A standard class and E~(a) are one normalized product over the same labels,
of the truncated fundamentals and of the rescaled generators, so only the E~
are built: by equal factors, a row is a standard match when every generator
in its support agrees, and a weight space with a moved generator in some
row's support fails without a solve.

Everything solved here depends only on the orientation, so there is one warm
side per orientation per process, `quantum_group_side`, keyed on the arrows as
`hall.derived_hall` is.  It keeps what a later request reads: the B~ rows,
their coefficients interned in one pool per side, the r generators and the
truncated fundamentals (and the truncated standard classes that `hall iota`
reads on the side's `CategoryQ`).  The side's `CategoryQ` keeps the depths of
each weight space it has enumerated, which `hall iota` reads too, and the
coefficients of each `hall iota` word of simple generators over the truncated
standard classes (`CategoryQ.simple_words`), shared by every field; only the
comparison with the Hall side runs on each request.  The side keeps the JSON
text of each row it has reported (`row_json`), encoded once and dropped with
the side.  The E~ and minor memos are per request: the E~ are
dropped after each `verify_mainth`, the minors once the generators are built,
and a weight space already solved builds no E~.  A failed request keeps
nothing: the side is out of the registry while a request runs and goes back
only when the request returns.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from functools import cached_property
from itertools import combinations
from typing import Iterator

from .cartan import dimension_vectors
from .characters import CategoryQ, CharacterError, bar_invariant_correction, combine, ordered_product
from .laurent import HalfLaurent
from .presentation import relation_failures
from .quiver import QuiverContext, QuiverDatum
from .torus import TorusElement, divide_right


class QGroupSide:
    def __init__(self, cat: CategoryQ):
        self.cat = cat
        self.cartan = cat.cartan
        self.word = cat.qctx.word
        self.r = self.word.r
        self.xt = cat.xt
        self._minors: dict[tuple[int, int], TorusElement] = {}
        self._btilde: dict[int, TorusElement | None] = {}  # each solved key's checked lift, or None
        self._coefficients: dict[HalfLaurent, HalfLaurent] = {}  # the one copy of each B~ coefficient
        self._texts: dict[tuple, str] = {}  # the JSON text of each reported row, by (avec, simple, standard)
        self._etilde: dict[tuple[int, ...], TorusElement] = {(0,) * self.r: self.xt.one()}
        # N(beta_k) = <beta_k, beta_k> - deg beta_k, and the doubled exponent of the rescaling
        # X_k = v^(c_k/2) Z_k, c_k = N(beta_k) + 2 (varpi_i - lambda_{k-}, beta_k), varpi_i - lambda_{k-} = x(k-, i)
        self._n, self._c2 = [], []
        for k, (row, beta, i) in enumerate(zip(self.word.euler, self.word.roots, self.word.word), 1):
            self._n.append(row[k - 1] - sum(beta))
            self._c2.append(self._n[-1] + 2 * self.cartan.sprod(self.word.sums[self.word.kminus(k)][i - 1], beta))

    # -- minors ---------------------------------------------------------------

    def flag(self, b: int) -> TorusElement:
        """D(0,b) in the torus: the ordered product of the rescaled variables down the tower of b."""
        out, k = self.xt.one(), b
        while k != 0:
            out = out * self.xt.monomial(self.xt.unit_vector(k), HalfLaurent.t_power(-self._c2[k - 1]))
            k = self.word.kminus(k)
        return out

    def minor(self, b: int, d: int) -> TorusElement:
        """D(b,d) for 0 <= b <= d with matching letters, through the
        determinantal identity; memoised, the flags D(0,d) too."""
        if b == d:
            return self.xt.one()
        if not 0 <= b < d <= self.r:
            raise ValueError(f"bad minor indices ({b},{d})")
        key = (b, d)
        if key in self._minors:
            return self._minors[key]
        if b == 0:
            val = self._minors[key] = self.flag(d)
            return val
        i = self.word.word[d - 1]
        if self.word.word[b - 1] != i:
            raise ValueError(f"minor indices ({b},{d}) carry different letters")
        bm, dm = self.word.kminus(b), self.word.kminus(d)
        x, sp = self.word.sums, self.cartan.sprod

        def pair(u, w, e, j):
            # (mu(u, .) - mu(w, .), mu(e, j)) with mu(u, .) - mu(w, .) = x(w, .) - x(u, .) = r
            r = tuple(p - q for p, q in zip(w, u))
            return r[j - 1] - sp(r, x[e][j - 1])

        a2 = 2 * pair(x[bm][i - 1], x[dm][i - 1], d, i)
        b2 = 2 * pair(x[bm][i - 1], x[d][i - 1], dm, i)
        nbhd = self.cartan.neighbors(i)
        c2 = 0
        for j, k in combinations(nbhd, 2):
            c2 += 2 * pair(x[b][k - 1], x[d][k - 1], d, j)
        rhs = (self.minor(b, dm) * self.minor(bm, d)).tshift(-2 + b2 - a2)
        prod = None
        for j in nbhd:
            f = self.minor(self.word.kminus(b, j), self.word.kminus(d, j))
            prod = f if prod is None else prod * f
        rhs = rhs + prod.tshift(c2 - a2)
        val = divide_right(rhs, self.minor(bm, dm))
        self._minors[key] = val
        return val

    # -- dual PBW and dual canonical bases -------------------------------------

    def e_star(self, k: int) -> TorusElement:
        return self.minor(self.word.kminus(k), k)

    @cached_property
    def generators(self) -> list[TorusElement]:
        """The rescaled generators E~(e_k) = v^(N(beta_k)/2) E*(k), k = 1..r, in
        order.  Every E~ is built from them, so the minor memo is dropped.  The
        twist of sigma, conj(E*(k)) = v^N(beta_k) E*(k), is checked on each k."""
        stars = [self.e_star(k) for k in range(1, self.r + 1)]
        self._minors.clear()
        for k, (star, n) in enumerate(zip(stars, self._n), 1):
            if {m: c.conj() for m, c in star.terms.items()} != star.tshift(2 * n).terms:
                raise CharacterError(f"conj(E*({k})) is not v^N(beta_{k}) E*({k}), N(beta_{k}) = {n}")
        return [star.tshift(n) for star, n in zip(stars, self._n)]

    def e_tilde(self, a) -> TorusElement:
        """The rescaled dual PBW vector E~(a) = v^(s(a)/2) E*(1)^a1 ... E*(r)^ar:
        the ordered product of the `generators`, normalized at X^a; memoised.
        Its shifts add up to s(a) = sum_k a_k N(beta_k) + sum_{k<l} a_k a_l
        (beta_k, beta_l) = N(beta(a)) - sum_k a_k (a_k - 1)."""
        return ordered_product(self._etilde, tuple(a), self.generators.__getitem__, self.cat.labels)

    def _solve(self, depth: dict, solve: bool = True) -> None:
        """Unless the weight space, given by its depths, is solved already:
        build its E~ family and, when `solve`, run one solve over it and
        memoise for each key the lift `_characterized` accepts, or None.  A
        lift's coefficients are interned in one pool per side."""
        if solve and depth.keys() <= self._btilde.keys():
            return
        pbw = {k: self.e_tilde(self.xt.exponents(k)) for k in sorted(depth)}
        if solve:
            rows = bar_invariant_correction(pbw, depth)
            pool = self._coefficients
            for k in depth:
                lift = self._characterized(k, rows[k], depth, pbw)
                if lift is not None:
                    lift = lift._with({m: pool.setdefault(c, c) for m, c in lift.terms.items()})
                self._btilde[k] = lift

    def b_tilde(self, a) -> TorusElement:
        """Rescaled dual canonical vector B~(a): sigma-invariant, unitriangular
        with strictly negative v-powers over the rescaled dual PBW family of
        the same weight.  The row of a in the one solve of its weight space,
        checked as in `verify_mainth`; CharacterError where it fails."""
        key = self.xt.key(a)
        if key not in self._btilde:
            self._solve(self.cat.depths(self.cat.root_of(a)))
        if self._btilde[key] is None:
            raise CharacterError(f"the dual canonical row at {tuple(a)} fails its characterization")
        return self._btilde[key]

    # -- verification reports ---------------------------------------------------

    def verify_mainth(self, degree_bound: int) -> list[dict]:
        """For every dominant exponent vector of weight-degree at most the
        bound, in increasing order: the truncated standard class must equal
        the rescaled dual PBW vector, and the truncated simple class the
        rescaled dual canonical vector.  Each weight space d with sum(d) at
        most the bound is read off `CategoryQ.depths(d)` and solved once.

        The row of a is a standard match when every generator in its support
        agrees with its truncated fundamental (equal factors, see the module
        docstring); the r generators are compared once.  A weight space with a
        moved generator in some row's support fails without a solve; else its
        row of a passes when L_a = sum_b P_ab E~(b) has (i) P_aa = 1, (ii)
        every other b strictly deeper than a, with only negative exponents in
        P_ab, and (iii) every coefficient symmetric.  The E~ being the standard
        classes, by uniqueness (ibid.) L_a is B~(a), the truncated simple class
        sum_b P_ab of the standard classes, and it is stored as B~(a)."""
        if degree_bound < 0:
            raise ValueError(f"negative degree bound {degree_bound}")
        fundamental = self.cat.truncated_fundamental
        moved = [k for k, p in enumerate(self.cat.positions) if fundamental(*p) != self.generators[k]]
        spaces = [self.cat.depths(d) for d in dimension_vectors(self.cartan.n, degree_bound)]
        rows = {}
        for depth in sorted(spaces, key=min):  # least key first: E~ built, and named on failure, by increasing a
            same = {k: not any(self.xt.exponents(k)[m] for m in moved) for k in depth}
            solved = all(same.values())
            self._solve(depth, solved)
            for k in depth:
                rows[k] = {
                    "avec": self.xt.exponents(k),
                    "simple_matches_dual_canonical": solved and self._btilde[k] is not None,
                    "standard_matches_dual_pbw": same[k],
                }
        self._etilde = {(0,) * self.r: self.xt.one()}  # a later request reads the B~ rows, not the E~
        return [rows[k] for k in sorted(rows)]

    def row_json(self, row: dict) -> str:
        """The JSON text of a row of `verify_mainth`: its exponent vector, its
        B~ where the simple class matched, else null, and both flags, encoded
        with sorted keys as `cli._emit` encodes; once per side and row, since
        every row depends only on the orientation.  B~ is read through
        `b_tilde`, so a row that claims a match its solve refused raises."""
        avec, simple, standard = row["avec"], row["simple_matches_dual_canonical"], row["standard_matches_dual_pbw"]
        key = (avec, simple, standard)
        if key not in self._texts:
            self._texts[key] = json.dumps(
                {
                    "avec": list(avec),
                    "dual_canonical": self.b_tilde(avec).to_json() if simple else None,
                    "simple_ok": simple,
                    "standard_ok": standard,
                },
                sort_keys=True,
                check_circular=False,
            )
        return self._texts[key]

    @staticmethod
    def _characterized(a: int, row: dict, depth: dict, pbw: dict) -> TorusElement | None:
        """L_a = sum_b P_ab E~(b) if the row of a meets conditions (i)-(iii)
        of `verify_mainth`, else None."""
        if not row.get(a, HalfLaurent.zero()).is_one():
            return None
        if any(b != a and not (depth[b] > depth[a] and all(e < 0 for e in p.c)) for b, p in row.items()):
            return None
        lift = combine(pbw, row)
        return lift if all(c.is_symmetric() for c in lift.terms.values()) else None

    def serre_check(self) -> list[tuple]:
        """The level-zero rows R1 (quantum Serre) of the relation table, among
        the truncated fundamental classes at the simple-root positions."""
        gens = self.cat.simple_generators()
        return relation_failures(self.cat.quiver, [0], lambda i, m: gens[i], TorusElement.qcommutator, None)


_registry: dict[tuple, QGroupSide] = {}


@contextmanager
def quantum_group_side(quiver: QuiverDatum) -> Iterator[QGroupSide]:
    """The one warm `QGroupSide` of the orientation of quiver in this process,
    keyed on the arrows, not the heights: it is built on the height function
    `QuiverDatum.from_arrows` gives the sorted arrows, so the positions of
    quiver are the side's moved in p by the difference of their heights.
    The side leaves the registry for the request and returns only when the
    request does, so a request that raises keeps nothing."""
    key = (quiver.cartan, frozenset(quiver.arrows))
    side = _registry.pop(key, None)
    if side is None:
        side = QGroupSide(CategoryQ(QuiverContext(QuiverDatum.from_arrows(quiver.cartan, sorted(quiver.arrows)))))
    yield side
    _registry[key] = side
