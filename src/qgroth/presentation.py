"""Generators of the deformed Grothendieck ring and its defining relations.

The ring is generated by copies of the positive quantum enveloping algebra
sitting at each integer level m; the level-m generators are the fundamental
classes at the vertices phi^-1(alpha_i, m).  The defining relations are
written once, in `relation_failures`: quantum Serre within a level, deformed
boson relations with an inhomogeneous delta term across adjacent levels, and
t-commutation with alternating sign across distant levels.  Either nesting
[x_i, [x_i, x_j]_{t^s}]_{t^-s}, s = +-1, is the Serre element, and
[x_j, x_i]_{t^s} is a unit times [x_i, x_j]_{t^-s}, so the inner commutator of
either sign serves both orders of a pair.  The arrow i -> j fixes the cheap
one, s = 1, else -1: through Phi the labels of x_i and x_j pair to
-(alpha_i, alpha_j) = s, alpha_i coming first in the adapted word iff i -> j,
so [x_i, x_j]_{t^s} cancels the product of the two leading terms.  One table
serves three algebras, each through its own q-commutator: K_t here, exactly in
the window torus on the variables of the full fundamental t-characters of the
checked levels (`TorusElement.qcommutator`, one pass, where the locality lemma
below does not decide the row); U_q(n) at one level, on the truncated
fundamentals (`QGroupSide.serre_check`); and the derived Hall algebra at
t = sqrt(q) (`hall.check_h_relations`).  Each caller checks exactly the
relations among the generators inside its level window.

Translation.  The shift [1] is an autoequivalence of the derived category
and carries the level-m generators onto level m + 1, so a relation between
levels m and p depends only on p - m, in K_t as in DH(Q).  `relation_failures`
owns the one read-off: when its caller has proved the shift on its
generators, it computes only the rows with m = lo and reads each failure
among them off at every level at which its translate fits, in the full
table's order; otherwise it computes the whole table.  Each caller brings
its own proof.  In K_t, [1] acts on the repetition quiver as
T: (i, p) -> (nu(i), p + h), and each hypothesis is checked where its data
lives: per type, `QuantumCartan` refuses pairing rows that are not
nu-invariant, N(nu i, nu j) = N(i, j); per node, `_nu_symmetric` checks that
the base character at nu(j) is nu's image of the one at j, monomial by
monomial with equal coefficients; per generator, `verify_relations` checks
on each request that it equals its node's base character packed at its
position (j, p) by `YTorus.shifted`, and that (i, m + 1) sits at
(nu(j), p + h).  Then T carries gen(i, m) onto gen(i, m + 1), each variable
onto one of the window, and preserves every pairing, N(i,p;j,s) depending on
(i, j, p - s) only: it is an isomorphism of quantum tori from the variables
of the levels below the top onto their images, fixing the scalars and so
the boson constant.  In DH(Q), `hall.check_h_relations` rests on (a) the
rewriting rules reading levels only through their differences, so that
raising every level by one is an automorphism fixing the boson term, and
(b) a check on every request that z_{S_i}^[m+1] is z_{S_i}^[m] raised by
one level.

Locality.  Most rows of K_t's table are zero for a reason that needs no
product.  A_{j,s} = Y_{j,s-1} Y_{j,s+1} prod_{k~j} Y_{k,s}^-1 pairs with
Y_{j,s+-1} only, N(A_{j,s}, Y_{i,p}) = 2 delta_ij (delta_{p,s-1} -
delta_{p,s+1}) (Hernandez, Adv. Math. 187, 2004), hence with A_{j,s+-2} and
A_{k,s+-1}, k ~ j, only.  Every monomial of the generator labelled Y_{i,p} is
Y_{i,p} times a product of A^-1 from its A-support: the A_{j,s} that
`a_solve` finds in its node's base character, shifted to p.  So when the
labels of x and y pair to e/2, no A of either support pairs with the other
label, and no A of one support pairs with an A of the other, every pair of
terms pairs to e/2 and x y - t^(e/2) y x = 0 exactly, whatever the
coefficients.  `verify_relations` hands `relation_failures` a q-commutator
that answers such a pair 0, the labels paired through
`QuantumCartan.n_pair`, and multiplies every other one.  Its hypotheses
split the same way: `QuantumCartan` refuses rows that break the rule, N
antisymmetric included; the condition on the supports of generators at
(j1, p) and (j2, p + d) is `_apart`, cached per (type, j1, j2, d); and the
lemma applies only to pairs of generators that pass the check above.  It
decides every R3 row and some R1 and R2 rows.
"""

from __future__ import annotations

from functools import lru_cache

from .cartan import CartanDatum
from .characters import _fm_base, fundamental_tchar, fundamental_window
from .laurent import HalfLaurent
from .qcartan import quantum_cartan
from .quiver import QuiverContext
from .torus import TorusElement, YTorus, monomial_items, mul_monomials

# R2's inhomogeneous term in K_t, 1 - t^-2.
BOSON = HalfLaurent({0: 1, -4: -1})


class Presentation:
    def __init__(self, qctx: QuiverContext):
        self.qctx = qctx
        self.cartan = qctx.cartan
        self.qc = quantum_cartan(self.cartan)

    def window(self, levels) -> YTorus:
        """The window torus of the generators at the given levels."""
        return fundamental_window(
            self.qc, [self.qctx.phi.generator_position(i, m) for m in levels for i in self.cartan.vertices]
        )

    def x_gen(self, yt: YTorus, i: int, m: int) -> TorusElement:
        return fundamental_tchar(yt, *self.qctx.phi.generator_position(i, m))

    def verify_relations(self, m_lo: int = 0, m_hi: int = 3) -> list[tuple]:
        """The relation table among the generators of levels m_lo..m_hi, in
        their window torus, with boson constant `BOSON`: read off the rows
        with m = m_lo when the shift is proved on the generators (module
        docstring, Translation), and 0 without a product on each pair of
        them that the locality lemma decides (Locality)."""
        cd, levels = self.cartan, range(m_lo, m_hi + 1)
        yt = self.window(levels)
        at = {(i, m): self.qctx.phi.generator_position(i, m) for m in levels for i in cd.vertices}
        gens = {im: self.x_gen(yt, *im) for im in at}
        n_pair, zero = self.qc.n_pair, yt.zero()
        # the position of each generator that is its node's base character packed there
        based = {
            id(gens[im]): (j, p) for im, (j, p) in at.items() if gens[im] == yt.shifted(_fm_base(cd.kind, cd.n, j), p)
        }
        translated = len(based) == len(gens) and all(
            _nu_symmetric(cd.kind, cd.n, j) and (m == m_hi or at[i, m + 1] == (cd.nu(j), p + self.qc.h))
            for (i, m), (j, p) in at.items()
        )

        def qcomm(x, y, e):
            a, b = based.get(id(x)), based.get(id(y))
            if a and b and 2 * n_pair(*a, *b) == e and _apart(cd.kind, cd.n, a[0], b[0], b[1] - a[1]):
                return zero
            return x.qcommutator(y, e)

        return relation_failures(
            self.qctx.quiver, levels, lambda i, m: gens[i, m], qcomm, yt.one().scal(BOSON), translated
        )


def relation_failures(quiver, levels, gen, qcomm, boson, translated=False) -> list[tuple]:
    """(family, m, p, i, j) for every defining relation that fails among the
    generators gen(i, m), m in levels, where qcomm(x, y, e) = x y - t^(e/2) y x
    in the caller's algebra, in (m, p, i, j) order:

    R1, m = p: [x_i, [x_i, x_j]_t]_{t^-1} = 0 for adjacent i, j and [x_i, x_j] = 0
    for other i != j (quantum Serre), row (j, i) read off the inner commutator
    [x_i, x_j]_{t^(s/2)} of row (i, j), i < j, s = 2 along an arrow i -> j, else -2;
    R2, p = m + 1: [x_{i,m}, x_{j,p}]_{t^-a_ij} = delta_ij boson (deformed boson);
    R3, p > m + 1: [x_{i,m}, x_{j,p}]_{t^((-1)^(p-m) a_ij)} = 0 (t-commutation).

    `translated` is set only by a caller that has proved that raising the
    level by one is an isomorphism carrying gen(i, m) onto gen(i, m + 1) and
    fixing the boson constant (module docstring, Translation).  Then the row
    (m, p, i, j) has the verdict of the row (lo, lo + p - m, i, j): only the
    rows with m = lo are computed, and each failure (lo, lo + d) among them
    is read off at every level m with m + d <= hi, when `levels` are
    consecutive; on any other levels every row is computed."""
    if not levels:
        raise ValueError("empty level range: no relation to check")
    if len(levels) == 1 and quiver.n == 1:
        raise ValueError("one level of rank 1: no relation to check")
    cartan, lo, hi = quiver.cartan, levels[0], levels[-1]
    # the read-off steps one level at a time: other level sets get every row
    translated = translated and list(levels) == list(range(lo, hi + 1))
    a = cartan.cartan_matrix()
    failures, mirror = [], {}
    for m in levels[:1] if translated else levels:
        for p in (p for p in levels if p >= m):
            for i in cartan.vertices:
                for j in cartan.vertices:
                    xi, xj = gen(i, m), gen(j, p)
                    if p > m:
                        res = qcomm(xi, xj, 2 * (-1) ** (p - m) * a[i - 1][j - 1])
                        bad = res != boson if p == m + 1 and i == j else bool(res)
                    elif i == j:
                        continue
                    elif i > j:
                        bad = mirror.pop((i, j))
                    elif cartan.adjacent(i, j):
                        s = 2 if (i, j) in quiver.arrows else -2
                        y = qcomm(xi, xj, s)  # [x_i, x_j]_{t^(s/2)}, s = 2 along the arrow i -> j
                        bad, mirror[j, i] = bool(qcomm(xi, y, -s)), bool(qcomm(xj, y, s))
                    else:
                        bad = mirror[j, i] = bool(qcomm(xi, xj, 0))
                    if bad:
                        family = "R1" if p == m else "R2" if p == m + 1 else "R3"
                        failures.append((family, m, p, i, j))
    if not translated:
        return failures
    return [(family, m, m + p - lo, i, j) for m in levels for family, _, p, i, j in failures if m + p - lo <= hi]


@lru_cache(maxsize=None)
def _nu_symmetric(kind: str, n: int, j: int) -> bool:
    """Whether the base character at nu(j) is nu's image of the one at j,
    monomial by monomial with equal coefficients."""
    nu = CartanDatum(kind, n).nu
    image = {monomial_items({(nu(v), q): e for (v, q), e in y}): c for y, c in _fm_base(kind, n, j).items()}
    return _fm_base(kind, n, nu(j)) == image


@lru_cache(maxsize=None)
def _apart(kind: str, n: int, j1: int, j2: int, d: int) -> bool:
    """The locality lemma's condition on the supports of generators at
    (j1, p) and (j2, p + d): neither label is a Y that an A of the other's
    support pairs with, and no A of the first support pairs with an A of the
    second (`_a_reach`)."""
    (_, t1, r1), (s2, t2, _) = _a_reach(kind, n, j1), _a_reach(kind, n, j2)
    return (j2, d) not in t1 and (j1, -d) not in t2 and r1.isdisjoint((v, u + d) for v, u in s2)


@lru_cache(maxsize=None)
def _a_reach(kind: str, n: int, i: int) -> tuple[frozenset, frozenset, frozenset]:
    """(S, T, R) of the fundamental character at (i, 0), each of whose
    monomials is Y_{i,0} times a product of A^-1 (`_fm_base` applies nothing
    else): S, its A-support; T, the Y_{j,s+-1} and R, the A_{j,s+-2} and
    A_{k,s+-1}, k ~ j, that an A_{j,s} in S pairs with."""
    cd = CartanDatum(kind, n)
    solve = YTorus(quantum_cartan(cd)).a_solve
    s = frozenset().union(*(solve(mul_monomials({(i, 0): 1}, dict(m), -1)) for m in _fm_base(kind, n, i)))
    steps = {j: [(j, -2), (j, 2)] + [(k, d) for k in cd.neighbors(j) for d in (-1, 1)] for j in cd.vertices}
    return s, frozenset((j, u + d) for j, u in s for d in (-1, 1)), frozenset(
        (k, u + d) for j, u in s for k, d in steps[j]
    )
