"""The quantum Cartan matrix C(z), its inverse, and the commutation pairing.

C(z) replaces the diagonal 2 of the Cartan matrix by z + z^-1.  The inverse
has entries that are power series sum_{m>=1} c_ij(m) z^m with integer
coefficients.  The table is built from the identity C(z) C(z)^-1 = 1, read
coefficient by coefficient as a recurrence in m:

    c_ij(0) = 0,  c_ij(1) = delta_ij,  c_ij(m+1) = -c_ij(m-1) + sum_{k~i} c_kj(m).

Two independent routes cross-check it:

  * series route: C(z)^-1 = sum_{k>=0} (z+z^-1)^(-k-1) A^k, expanding
    (z+z^-1)^(-k-1) = z^(k+1) (1+z^2)^(-k-1) with the binomial series, so only
    finitely many k contribute to each coefficient;
  * translation route: parity vanishing plus the coefficient of alpha_j in a
    Coxeter-power of gamma_i, read off any orientation of the diagram.

Coefficients are periodic in m with period twice the Coxeter number; the
recurrence runs over two periods and the build checks that the second
repeats the first.

The commutation exponent N(i,p;j,s) depends only on (i, j, d = p - s): it is
antisymmetric in d, 0 at d = 0 and 2h-periodic for d >= 1 (as c_ij(2h) = 0,
checked), so it is one row of 2h integers per (i, j), read only by `n_pair`,
one exponent, and `gram`, a window's matrix.  The build checks the two facts
of the rows that `presentation` rests on, once per type: they are
nu-invariant, N(nu i, nu j) = N(i, j), and A-local, N(A_{j,s}, Y_{i,p}) =
2 delta_ij (delta_{p,s-1} - delta_{p,s+1}) with N antisymmetric (Hernandez,
Adv. Math. 187, 2004).
"""

from __future__ import annotations

from math import comb
from operator import itemgetter

from .cartan import CartanDatum
from .quiver import QuiverDatum


class QuantumCartan:
    def __init__(self, cartan: CartanDatum):
        self.cartan = cartan
        self.h = cartan.coxeter_number()
        self._table = self._build_table()
        self._n = self._pairing_rows()
        # the two facts of the rows that `presentation` rests on (module docstring)
        rows, n, vs, nu, h2 = self._n, self.n_pair, cartan.vertices, cartan.nu, 2 * self.h
        if any(rows[nu(i)][nu(j)] != rows[i][j] for i in vs for j in vs):
            raise RuntimeError(f"the pairing rows of {cartan.kind}{cartan.n} are not nu-invariant")
        # N(A_{j,s}, Y_{i,p}) reads N at p - s and p - s +- 1, 2h-periodic on either side of -1..1
        if any(rows[i][j] != rows[j][i] for i in vs for j in vs) or any(
            n(j, -1, i, d) + n(j, 1, i, d) - sum(n(k, 0, i, d) for k in cartan.neighbors(j))
            != 2 * (i == j) * ((d == -1) - (d == 1))
            for j in vs for i in vs for d in range(-h2 - 1, h2 + 2)
        ):
            raise RuntimeError(f"the pairing rows of {cartan.kind}{cartan.n} are not A-local")

    def series_coeff(self, i: int, j: int, m: int) -> int:
        """Coefficient of z^m in row i, column j of the inverse, by the series
        route, walking row i of A^k for k < m."""
        adj, n = self.cartan.adjacency_matrix(), self.cartan.n
        row, total = [int(l == i - 1) for l in range(n)], 0
        for k in range(m):
            if (m - 1 - k) % 2 == 0:
                ell = (m - 1 - k) // 2
                total += row[j - 1] * (-1) ** ell * comb(k + ell, ell)
            row = [sum(row[l] * adj[l][c] for l in range(n)) for c in range(n)]
        return total

    def series(self, i: int, j: int, m_max: int) -> list[int]:
        """c_ij(1), ..., c_ij(m_max), read from the periodic table."""
        return [self.ctilde(i, j, m) for m in range(1, m_max + 1)]

    def _build_table(self) -> list[list[list[int]]]:
        """table[m][i - 1][j - 1] = c_ij(m) for m = 0..2h, by the recurrence of
        C(z) C(z)^-1 = 1 run over two periods."""
        n, h2 = self.cartan.n, 2 * self.h
        nbrs = [[k - 1 for k in self.cartan.neighbors(i)] for i in self.cartan.vertices]
        table = [[[0] * n for _ in range(n)], [[int(i == j) for j in range(n)] for i in range(n)]]
        for m in range(1, 2 * h2):
            prev, cur = table[m - 1], table[m]
            table.append([[sum(cur[k][j] for k in nbrs[i]) - prev[i][j] for j in range(n)]
                          for i in range(n)])
        if table[h2 + 1 :] != table[1 : h2 + 1]:
            raise RuntimeError("periodicity of the inverse table failed")
        return table[: h2 + 1]

    def _pairing_rows(self) -> dict[int, dict[int, list[int]]]:
        """rows[i][j][d - 1] = N(i,p;j,p-d) for d = 1..2h, by the four-coefficient
        formula, whose terms c(-d-1) and c(1-d) vanish for d >= 1."""
        h2, c, vs = 2 * self.h, self.ctilde, self.cartan.vertices
        if any(any(row) for row in self._table[h2]):
            raise RuntimeError("c_ij(2h) != 0: the pairing is not 2h-periodic")
        return {i: {j: [c(i, j, d - 1) - c(i, j, d + 1) for d in range(1, h2 + 1)] for j in vs}
                for i in vs}

    def ctilde(self, i: int, j: int, m: int) -> int:
        """Inverse coefficient with the conventions c(m) = 0 for m <= 0 and
        period 2h for m >= 1."""
        self.cartan._check_vertex(i)
        self.cartan._check_vertex(j)
        if m <= 0:
            return 0
        return self._table[(m - 1) % (2 * self.h) + 1][i - 1][j - 1]

    def ar_value(self, i: int, j: int, m: int, quiver: QuiverDatum) -> int:
        """Inverse coefficient via the translation formula on an orientation:
        the coefficient of alpha_j in tau^ell(gamma_i)."""
        if quiver.cartan != self.cartan:
            raise ValueError("quiver is over a different Cartan datum")
        if m <= 0:
            return 0
        xi = quiver.xi
        s = m + xi[i - 1] - xi[j - 1] - 1
        if s % 2 != 0:
            return 0
        ell = s // 2
        return quiver.tau_power(quiver.gamma(i), ell)[j - 1]

    def gram(self, window: list[tuple[int, int]]) -> list[list[int]]:
        """N(i,p;j,s) on a window of variables (i, p) sorted by (p, i), a row
        per variable in one loop: row (i, p) picks its entries off line[i], which
        lists N(i,j,d) for every vertex j and d = -span..span, span the width."""
        rows, h2 = self._n, 2 * self.h
        if len(window) < 2:
            return [[0]] * len(window)
        lo, span, vs = window[0][1], window[-1][1] - window[0][1], list(rows)
        pos = {(i, j): (rows[i][j] * -(-span // h2))[:span] for i in vs for j in vs}  # d = 1..span
        line = {i: [x for j in vs for x in [-y for y in reversed(pos[i, j])] + [0] + pos[i, j]] for i in vs}
        # N(i,p;j,s) = line[i][(p - lo) + k], k = (index of j) (2 span + 1) + span + lo - s
        pick = itemgetter(*[vs.index(j) * (2 * span + 1) + span + lo - s for j, s in window])
        return [list(pick(line[i][p - lo :])) for i, p in window]

    def n_pair(self, i: int, p: int, j: int, s: int) -> int:
        """The antisymmetric commutation exponent between variables at (i,p), (j,s)."""
        d = p - s
        if d > 0:
            return self._n[i][j][(d - 1) % (2 * self.h)]
        if d < 0:
            return -self._n[i][j][(-d - 1) % (2 * self.h)]
        return 0


_registry: dict[str, QuantumCartan] = {}


def quantum_cartan(cartan: CartanDatum) -> QuantumCartan:
    key = f"{cartan.kind}{cartan.n}"
    if key not in _registry:
        _registry[key] = QuantumCartan(cartan)
    return _registry[key]
