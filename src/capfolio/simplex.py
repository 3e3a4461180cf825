"""Dense revised simplex on nonnegative and free columns.

Solves   min c'x   s.t.   A x = b,   x_j >= 0 except on the free columns

by one phase from a feasible basis the caller supplies, as the cutting-plane
master of `baseline` can write its own down.  Pricing is Dantzig, falling
back to Bland's rule while the objective stalls (which protects against
cycling on the heavily degenerate LPs this package feeds in) and reverting
to Dantzig as soon as the value moves again.

A `Program` keeps the tableau live between solves.  Appending a column
x_j >= 0 or changing costs leaves the optimal basis feasible, so the next
solve resumes from it, and the duals come from its last pricing pass; this
is how the master is re-solved after each cut.

Every iteration solves with the basis matrix afresh: the programs here
have a handful of rows, where that costs less than keeping a factorization
up to date and leaves no drift to wash out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SolverDiverged

OPTIMAL = "Optimal"
UNBOUNDED = "Unbounded"

_PIVOT_TOL = 1e-9
_COST_TOL = 1e-12
# consecutive non-improving iterations before pricing falls back to Bland
_STALL_LIMIT = 100


@dataclass(frozen=True, slots=True)
class SimplexResult:
    status: str
    x: np.ndarray | None
    objective: float
    duals: np.ndarray | None
    iterations: int


class Program:
    """min cost'x subject to a_eq x = b_eq, x_j >= 0 wherever free[j] is
    False, kept live between solves.

    `basis` names m columns whose basic values, with every other column at
    zero, are nonnegative on the columns that are not free; the constructor
    checks this.  A free column that enters the basis stays in it, and one
    outside the basis sits at zero.  `add_column` appends a column x_j >= 0
    and costs may be assigned through `cost`, neither of which moves the
    basic values, so each `solve` resumes from the last basis.
    """

    def __init__(self, cost, a_eq, b_eq, free, basis):
        self.m, self.n = m, n = a_eq.shape
        for name, arr, want in (
            ("cost", cost, n),
            ("b_eq", b_eq, m),
            ("free", free, n),
            ("basis", basis, m),
        ):
            if arr.shape != (want,):
                raise DimensionMismatch(f"{name} has shape {arr.shape}, want ({want},)")
        self.a, self.b, self.free = a_eq, b_eq, free
        self.cost = cost.copy()  # the caller's array stays its own
        self.basis = np.array(basis, dtype=np.intp)
        self._refresh()
        x_b = self.x[self.basis]
        if np.any(x_b[~self.free[self.basis]] < -1e-9):
            raise SolverDiverged("starting basis is infeasible")

    def add_column(self, column, cost: float) -> None:
        """Append a column x_j >= 0 with these row coefficients and cost."""
        self.a = np.column_stack([self.a, column])
        self.cost = np.append(self.cost, cost)
        self.free = np.append(self.free, False)
        self.n += 1

    def solve(self) -> SimplexResult:
        """Optimize from the live basis."""
        self.iterations = 0
        if not self._iterate(2000 + 50 * (self.m + self.n)):
            return SimplexResult(UNBOUNDED, None, -math.inf, None, self.iterations)
        x = self.x.copy()
        return SimplexResult(OPTIMAL, x, float(self.cost @ x), self.duals, self.iterations)

    def _solve_basis(self, rhs, trans=False):
        """B^-1 rhs, or B^-T rhs, for the basis matrix B."""
        mat = self.a[:, self.basis]
        try:
            out = np.linalg.solve(mat.T if trans else mat, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverDiverged(f"singular basis: {exc}") from exc
        if not np.isfinite(out).all():
            raise SolverDiverged("singular basis: non-finite basic values")
        return out

    def _refresh(self):
        """Nonbasic columns at zero, basic values solved from the rows."""
        self.x = np.zeros(self.n)
        self.x[self.basis] = self._solve_basis(self.b)

    def _iterate(self, max_iter):
        """Pivot to optimality; False if the objective is unbounded below.
        The duals of the last pricing pass stay in `duals`."""
        cost = self.cost
        bland, stall, best = False, 0, None
        while True:
            self.iterations += 1
            if self.iterations > max_iter:
                raise SolverDiverged(
                    f"simplex exceeded {max_iter} iterations (degenerate cycling?)"
                )
            self._refresh()
            value = float(cost @ self.x)
            if best is None or value < best - 1e-12 * max(1.0, abs(best)):
                # progress resumed, so drop back to the fast Dantzig pricing
                best, stall, bland = value, 0, False
            else:
                stall += 1
                bland = stall > _STALL_LIMIT
            basic_cost = cost[self.basis]
            self.duals = self._solve_basis(basic_cost, trans=True)
            rc = cost - self.duals @ self.a
            # reduced costs carry rounding on the scale of the basic costs
            tol = _COST_TOL * max(1.0, float(np.abs(basic_cost).max(initial=0.0)))
            entering, direction = self._pick_entering(rc, bland, tol)
            if entering < 0:
                return True
            if not self._move(entering, direction, bland):
                return False

    def _pick_entering(self, rc, bland, tol):
        # gain > 0 marks a profitable move; direction +1 raises the variable,
        # and only a free column may enter going down
        gain_up = -rc
        gain_dn = np.where(self.free, rc, -math.inf)
        gain_up[self.basis] = gain_dn[self.basis] = -math.inf
        gain = np.maximum(gain_up, gain_dn)
        if bland:
            j = int((gain > tol).argmax())  # first profitable index
        else:
            j = int(gain.argmax())
        if gain[j] <= tol:
            return -1, 0
        return j, 1 if gain_up[j] >= gain_dn[j] else -1

    def _move(self, j, direction, bland):
        """Move variable j in +-1 `direction` until a basic variable that is
        not free reaches zero and leaves.  False if none does."""
        d = self._solve_basis(self.a[:, j]) * direction
        # ratios on basic columns that are not free, with a large enough pivot
        limits = (d > _PIVOT_TOL) & ~self.free[self.basis]
        t = np.divide(self.x[self.basis], d, out=np.full(d.size, math.inf), where=limits)
        if not np.isfinite(t).any():
            return False
        ties = np.flatnonzero(t <= t.min() + 1e-12)
        if bland:
            # Bland breaks ratio ties by smallest variable index
            i = int(ties[self.basis[ties].argmin()])
        else:
            # otherwise prefer the largest pivot element for stability
            i = int(ties[np.abs(d[ties]).argmax()])
        self.basis[i] = j
        return True
