"""Dense bounded-variable revised simplex.

Solves   min c'x   s.t.   A x = b,   lo <= x <= up   (entries may be +-inf)

by one phase from a feasible basis the caller supplies, as the cutting-plane
master of `baseline` can write its own down.  Pricing is Dantzig, falling
back to Bland's rule while the objective stalls (which protects against
cycling on the heavily degenerate LPs this package feeds in) and reverting
to Dantzig as soon as the value moves again.

A `Program` keeps the tableau live between solves.  Appending a column at
its lower bound or changing costs leaves the optimal basis feasible, so the
next solve resumes from it, and the duals come from its last pricing pass;
this is how the master is re-solved after each cut.

Every iteration solves with the basis matrix afresh: the programs here
have a handful of rows, where that costs less than keeping a factorization
up to date and leaves no drift to wash out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericalBreakdown

AT_LO, AT_UP, FREE_ZERO, IN_BASIS = range(4)  # column status in the tableau

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
    """min cost'x subject to a_eq x = b_eq and box bounds on x, kept live
    between solves.

    `basis` names m columns whose basic values, with every other column on
    its finite lower bound (else its finite upper bound, else zero), lie
    within their bounds; the constructor checks this.  `add_column` appends
    a column at its lower bound 0 and costs may be assigned through `cost`,
    neither of which moves the basic values, so each `solve` resumes from
    the last basis.  Columns live in buffers that double when full, so
    appending a column does not copy the matrix each time.
    """

    def __init__(self, cost, a_eq, b_eq, lower, upper, basis):
        self.m, self.n = m, n = a_eq.shape
        for name, arr, want in (
            ("cost", cost, n),
            ("b_eq", b_eq, m),
            ("lower", lower, n),
            ("upper", upper, n),
            ("basis", basis, m),
        ):
            if arr.shape != (want,):
                raise DimensionMismatch(f"{name} has shape {arr.shape}, want ({want},)")
        if np.any(lower > upper):
            raise DimensionMismatch("some lower bound exceeds its upper bound")
        self.b = b_eq
        self._a = np.empty((m, 2 * n))
        self._cost, self._lo, self._up = (np.empty(2 * n) for _ in range(3))
        self._status = np.empty(2 * n, dtype=np.int8)
        self._a[:, :n] = a_eq
        self._cost[:n], self._lo[:n], self._up[:n] = cost, lower, upper
        self._use()
        self.status[:] = np.where(
            np.isfinite(self.lo), AT_LO, np.where(np.isfinite(self.up), AT_UP, FREE_ZERO)
        )
        self.basis = np.array(basis, dtype=np.intp)
        self.status[self.basis] = IN_BASIS
        self._refresh()
        x_b = self.x[self.basis]
        if np.any(x_b < self.lo[self.basis] - 1e-9) or np.any(x_b > self.up[self.basis] + 1e-9):
            raise NumericalBreakdown("starting basis is infeasible")

    def add_column(self, column, cost: float) -> None:
        """Append a column x_j >= 0 with these row coefficients and cost."""
        j = self.n
        if j == self._cost.size:
            self._grow(2 * j)
        self._a[:, j] = column
        self._cost[j], self._lo[j], self._up[j] = cost, 0.0, math.inf
        self._status[j] = AT_LO
        self.n = j + 1
        self._use()

    def solve(self) -> SimplexResult:
        """Optimize from the live basis."""
        self.iterations = 0
        if not self._iterate(2000 + 50 * (self.m + self.n)):
            return SimplexResult(UNBOUNDED, None, -math.inf, None, self.iterations)
        x = self.x.copy()
        return SimplexResult(OPTIMAL, x, float(self.cost @ x), self.duals, self.iterations)

    def _use(self):
        """Point the working views at the first n columns."""
        n = self.n
        self.cost, self.lo, self.up = self._cost[:n], self._lo[:n], self._up[:n]
        self.a, self.status = self._a[:, :n], self._status[:n]

    def _grow(self, size):
        for name in ("_cost", "_lo", "_up", "_status"):
            old = getattr(self, name)
            setattr(self, name, np.concatenate([old, np.empty(size - old.size, old.dtype)]))
        self._a = np.concatenate([self._a, np.empty((self.m, size - self._a.shape[1]))], axis=1)

    def _bound_values(self):
        """Every column on the bound its status names (0 for free and basic)."""
        x = np.where(self.status == AT_LO, self.lo, 0.0)
        return np.where(self.status == AT_UP, self.up, x)

    def _solve_basis(self, rhs, trans=False):
        """B^-1 rhs, or B^-T rhs, for the basis matrix B."""
        mat = self.a[:, self.basis]
        try:
            out = np.linalg.solve(mat.T if trans else mat, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdown(f"singular basis: {exc}") from exc
        if not np.isfinite(out).all():
            raise NumericalBreakdown("singular basis: non-finite basic values")
        return out

    def _refresh(self):
        """Nonbasic columns on their bounds, basic values solved from the rows."""
        x = self._bound_values()
        x[self.basis] = 0.0
        x[self.basis] = self._solve_basis(self.b - self.a @ x)
        self.x = x

    def _iterate(self, max_iter):
        """Pivot to optimality; False if the objective is unbounded below.
        The duals of the last pricing pass stay in `duals`."""
        cost = self.cost
        bland, stall, best = False, 0, math.inf
        while True:
            self.iterations += 1
            if self.iterations > max_iter:
                raise NumericalBreakdown(
                    f"simplex exceeded {max_iter} iterations (degenerate cycling?)"
                )
            self._refresh()
            value = float(cost @ self.x)
            if value < best - 1e-12 * max(1.0, abs(best)):
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
        # gain > 0 marks a profitable move; direction +1 raises the variable
        free = self.status == FREE_ZERO
        gain_up = np.where((self.status == AT_LO) | free, -rc, -math.inf)
        gain_dn = np.where((self.status == AT_UP) | free, rc, -math.inf)
        gain = np.maximum(gain_up, gain_dn)
        if bland:
            j = int((gain > tol).argmax())  # first profitable index
        else:
            j = int(gain.argmax())
        if gain[j] <= tol:
            return -1, 0
        return j, 1 if gain_up[j] >= gain_dn[j] else -1

    def _move(self, j, direction, bland):
        """Move variable j in +-1 `direction` until a bound stops it: a basic
        variable leaves, or j flips to its other bound.  False if no bound
        stops it."""
        d = self._solve_basis(self.a[:, j]) * direction
        x_b = self.x[self.basis]
        lo_b, up_b = self.lo[self.basis], self.up[self.basis]
        # ratios only where the pivot element is large enough; inf elsewhere
        t_lo = np.divide(x_b - lo_b, d, out=np.full(d.size, math.inf), where=d > _PIVOT_TOL)
        t_up = np.divide(up_b - x_b, -d, out=np.full(d.size, math.inf), where=d < -_PIVOT_TOL)
        t_basic = np.minimum(t_lo, t_up)
        span = self.up[j] - self.lo[j]  # may be inf
        if t_basic.size and t_basic.min() < span:
            ties = np.flatnonzero(t_basic <= t_basic.min() + 1e-12)
            if bland:
                # Bland breaks ratio ties by smallest variable index
                i = int(ties[self.basis[ties].argmin()])
            else:
                # otherwise prefer the largest pivot element for stability
                i = int(ties[np.abs(d[ties]).argmax()])
            self.status[self.basis[i]] = AT_LO if t_lo[i] <= t_up[i] else AT_UP
            self.status[j] = IN_BASIS
            self.basis[i] = j
            return True
        if math.isinf(span):
            return False
        self.status[j] = AT_UP if direction > 0 else AT_LO
        return True

