"""Generators of the deformed Grothendieck ring and its defining relations.

The ring is generated by copies of the positive quantum enveloping algebra
sitting at each integer level m; the level-m generators are the fundamental
classes at the vertices phi^-1(alpha_i, m).  Within a level they satisfy the
quantum Serre relations; adjacent levels satisfy deformed boson relations with
an inhomogeneous delta term; distant levels t-commute with alternating sign in
the exponent.  All three families are verified exactly in the big torus, on
the full fundamental t-characters, as q-commutators computed in one pass
(`TorusElement.qcommutator`); the Serre element is the nested
[x_i, [x_i, x_j]_t]_{t^-1}, whose inner commutator cancels most of the support.
"""

from __future__ import annotations

from .characters import fundamental_tchar
from .laurent import HalfLaurent
from .qcartan import quantum_cartan
from .quiver import QuiverContext
from .torus import TorusElement, YTorus


class Presentation:
    def __init__(self, qctx: QuiverContext):
        self.qctx = qctx
        self.cartan = qctx.cartan
        self.h = self.cartan.coxeter_number()
        self.yt = YTorus(quantum_cartan(self.cartan))
        self._base = {
            i: qctx.phi.phi_inverse(self.cartan.alpha(i), 0) for i in self.cartan.vertices
        }
        self._gens: dict[tuple[int, int], TorusElement] = {}

    def generator_position(self, i: int, m: int) -> tuple[int, int]:
        """(nu^m(k_i), p_i + m h) for the level-m generator at vertex i."""
        k, p = self._base[i]
        j = k
        for _ in range(abs(m) % 2):
            j = self.cartan.nu(j)
        return j, p + m * self.h

    def x_gen(self, i: int, m: int) -> TorusElement:
        return fundamental_tchar(self.yt, *self.generator_position(i, m))

    def _gen(self, i: int, m: int) -> TorusElement:
        """x_gen(i, m), built once per presentation."""
        if (i, m) not in self._gens:
            self._gens[(i, m)] = self.x_gen(i, m)
        return self._gens[(i, m)]

    # -- relation checks ------------------------------------------------------

    def check_r1(self, m: int) -> list[tuple]:
        """Level-m quantum Serre relations: for adjacent i, j the element
        x_i^2 x_j - (t + t^-1) x_i x_j x_i + x_j x_i^2, computed as the nested
        q-commutator [x_i, [x_i, x_j]_t]_{t^-1}; otherwise [x_i, x_j]."""
        failures = []
        vs = self.cartan.vertices
        x = {i: self._gen(i, m) for i in vs}
        for i in vs:
            for j in vs:
                if i == j:
                    continue
                if self.cartan.adjacent(i, j):
                    res = x[i].qcommutator(x[i].qcommutator(x[j], 2), -2)
                else:
                    res = x[i].qcommutator(x[j], 0)
                if not res.is_zero():
                    failures.append(("R1", m, i, j, res))
        return failures

    def check_r2(self, m: int) -> list[tuple]:
        """Adjacent-level deformed boson relations."""
        failures = []
        for i in self.cartan.vertices:
            for j in self.cartan.vertices:
                aij = self.cartan.sprod(self.cartan.alpha(i), self.cartan.alpha(j))
                res = self._gen(i, m).qcommutator(self._gen(j, m + 1), -2 * aij)
                if i == j:
                    res = res - self.yt.one().scal(
                        HalfLaurent.one() - HalfLaurent.t_power(-4)
                    )
                if not res.is_zero():
                    failures.append(("R2", m, i, j, res))
        return failures

    def check_r3(self, m: int, p: int) -> list[tuple]:
        """Distant-level t-commutation, exponent sign alternating with p - m."""
        if p <= m + 1:
            raise ValueError("distant-level relation needs p > m + 1")
        failures = []
        sign = (-1) ** (p - m)
        for i in self.cartan.vertices:
            for j in self.cartan.vertices:
                aij = self.cartan.sprod(self.cartan.alpha(i), self.cartan.alpha(j))
                res = self._gen(i, m).qcommutator(self._gen(j, p), 2 * sign * aij)
                if not res.is_zero():
                    failures.append(("R3", m, p, i, j, res))
        return failures

    def verify_relations(self, m_lo: int = 0, m_hi: int = 3) -> list[tuple]:
        """All three relation families with levels in [m_lo, m_hi]."""
        if m_lo > m_hi:
            raise ValueError(f"empty level range {m_lo}..{m_hi}")
        failures = []
        for m in range(m_lo, m_hi + 1):
            failures += self.check_r1(m)
        for m in range(m_lo, m_hi):
            failures += self.check_r2(m)
        for m in range(m_lo, m_hi + 1):
            for p in range(m + 2, m_hi + 1):
                failures += self.check_r3(m, p)
        return failures

