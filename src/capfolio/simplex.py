"""Dense bounded-variable revised simplex.

Solves   min c'x   s.t.   A x = b,   lo <= x <= up   (entries may be +-inf).

Two phases: phase 1 adds one signed artificial per row (coefficient
sign(residual), cost 1) so the artificial block starts feasible at the
absolute row residuals; artificials that remain basic at zero are frozen to
the [0, 0] box for phase 2 instead of being pivoted out, which keeps the
logic short and the basis nonsingular.  Pricing is Dantzig, falling back to
Bland's rule while the objective stalls (which protects against cycling on
the heavily degenerate LPs this package feeds in) and reverting to
Dantzig as soon as the value moves again.

A warm start from a given basis skips phase 1: appending columns or
changing costs leaves an optimal basis feasible, which is how the cutting-
plane master of `baseline` is re-solved after each cut.

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
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"

_PIVOT_TOL = 1e-9
_COST_TOL = 1e-12
# consecutive non-improving iterations before pricing falls back to Bland
_STALL_LIMIT = 100


@dataclass(frozen=True, slots=True)
class LinearProgram:
    """min cost'x subject to a_eq x = b_eq and box bounds on x."""

    cost: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        m, n = self.a_eq.shape
        for name, arr, want in (
            ("cost", self.cost, n),
            ("b_eq", self.b_eq, m),
            ("lower", self.lower, n),
            ("upper", self.upper, n),
        ):
            if arr.shape != (want,):
                raise DimensionMismatch(f"{name} has shape {arr.shape}, want ({want},)")
        if np.any(self.lower > self.upper):
            raise DimensionMismatch("some lower bound exceeds its upper bound")


def make_lp(cost, a_eq, b_eq, lower=None, upper=None) -> LinearProgram:
    """Assemble a LinearProgram from array-likes; bounds default to [0, inf)."""
    cost = np.asarray(cost, dtype=float)
    a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
    b_eq = np.asarray(b_eq, dtype=float)
    n = cost.shape[0]
    lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(n, math.inf) if upper is None else np.asarray(upper, dtype=float)
    return LinearProgram(cost, a_eq, b_eq, lower, upper)


@dataclass(frozen=True, slots=True)
class SimplexResult:
    status: str
    x: np.ndarray | None
    objective: float
    duals: np.ndarray | None
    iterations: int
    basis: np.ndarray | None = None  # basic columns at the optimum, if all structural


class _Tableau:
    """Mutable working state shared by the two phases."""

    def __init__(self, a, b, lo, up):
        self.a, self.b, self.lo, self.up = a, b, lo, up
        self.m, self.n = a.shape
        self.status = np.where(
            np.isfinite(lo), AT_LO, np.where(np.isfinite(up), AT_UP, FREE_ZERO)
        ).astype(np.int8)
        self.basis = np.empty(0, dtype=int)
        self.iterations = 0

    def bound_values(self):
        """Every column on the bound its status names (0 for free and basic)."""
        x = np.where(self.status == AT_LO, self.lo, 0.0)
        return np.where(self.status == AT_UP, self.up, x)

    def solve(self, rhs, trans=False):
        """B^-1 rhs, or B^-T rhs, for the basis matrix B."""
        mat = self.a[:, self.basis]
        try:
            out = np.linalg.solve(mat.T if trans else mat, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdown(f"singular basis: {exc}") from exc
        if not np.all(np.isfinite(out)):
            raise NumericalBreakdown("singular basis: non-finite basic values")
        return out

    def refresh(self):
        """Nonbasic columns on their bounds, basic values solved from the rows."""
        x = self.bound_values()
        x[self.basis] = 0.0
        x[self.basis] = self.solve(self.b - self.a @ x)
        self.x = x

    def run_phase(self, cost, max_iter, allow_unbounded):
        """Iterate to optimality of `cost`; returns UNBOUNDED or OPTIMAL."""
        bland, stall, best = False, 0, math.inf
        while True:
            self.iterations += 1
            if self.iterations > max_iter:
                raise NumericalBreakdown(
                    f"simplex exceeded {max_iter} iterations (degenerate cycling?)"
                )
            self.refresh()
            value = float(cost @ self.x)
            if value < best - 1e-12 * max(1.0, abs(best)):
                # progress resumed, so drop back to the fast Dantzig pricing
                best, stall, bland = value, 0, False
            else:
                stall += 1
                bland = stall > _STALL_LIMIT
            rc = cost - self.solve(cost[self.basis], trans=True) @ self.a
            # reduced costs carry rounding on the scale of the basic costs
            tol = _COST_TOL * max(1.0, float(np.max(np.abs(cost[self.basis]), initial=0.0)))
            entering, direction = self._pick_entering(rc, bland, tol)
            if entering < 0:
                return OPTIMAL
            if not self._move(entering, direction, bland):
                if allow_unbounded:
                    return UNBOUNDED
                raise NumericalBreakdown("phase-1 objective unbounded; inconsistent data")

    def _pick_entering(self, rc, bland, tol):
        # gain > 0 marks a profitable move; direction +1 raises the variable
        free = self.status == FREE_ZERO
        gain_up = np.where((self.status == AT_LO) | free, -rc, -math.inf)
        gain_dn = np.where((self.status == AT_UP) | free, rc, -math.inf)
        gain = np.maximum(gain_up, gain_dn)
        if bland:
            j = int(np.argmax(gain > tol))  # first profitable index
        else:
            j = int(np.argmax(gain))
        if gain[j] <= tol:
            return -1, 0
        return j, 1 if gain_up[j] >= gain_dn[j] else -1

    def _move(self, j, direction, bland):
        """Move variable j in +-1 `direction` until a bound stops it: a basic
        variable leaves, or j flips to its other bound.  False if no bound
        stops it."""
        d = self.solve(self.a[:, j]) * direction
        x_b = self.x[self.basis]
        lo_b, up_b = self.lo[self.basis], self.up[self.basis]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_lo = np.where(d > _PIVOT_TOL, (x_b - lo_b) / d, math.inf)
            t_up = np.where(d < -_PIVOT_TOL, (up_b - x_b) / (-d), math.inf)
        t_basic = np.minimum(t_lo, t_up)
        span = self.up[j] - self.lo[j]  # may be inf
        if t_basic.size and t_basic.min() < span:
            ties = np.flatnonzero(t_basic <= t_basic.min() + 1e-12)
            if bland:
                # Bland breaks ratio ties by smallest variable index
                i = int(ties[np.argmin(self.basis[ties])])
            else:
                # otherwise prefer the largest pivot element for stability
                i = int(ties[np.argmax(np.abs(d[ties]))])
            self.status[self.basis[i]] = AT_LO if t_lo[i] <= t_up[i] else AT_UP
            self.status[j] = IN_BASIS
            self.basis[i] = j
            return True
        if math.isinf(span):
            return False
        self.status[j] = AT_UP if direction > 0 else AT_LO
        return True


def solve_dense(lp: LinearProgram, basis=None) -> SimplexResult:
    """Two-phase bounded-variable revised simplex on dense arrays.

    `basis` optionally names m structural columns to start phase 2 from,
    with every nonbasic column at its default bound: an earlier
    `SimplexResult.basis` stays a valid warm start after columns are
    appended or costs change.  A start that is singular or infeasible falls
    back to the cold two-phase start.
    """
    a, b = lp.a_eq, lp.b_eq
    m, n = a.shape
    scale = max(1.0, float(np.max(np.abs(b))) if m else 1.0)
    max_iter = 2000 + 50 * (m + n)

    tab = None if basis is None else _warm_tableau(lp, basis, scale)
    if tab is None:
        # phase 1: signed artificials make the start feasible
        tab = _Tableau(
            np.hstack([a, np.zeros((m, m))]),
            b,
            np.concatenate([lp.lower, np.zeros(m)]),
            np.concatenate([lp.upper, np.full(m, math.inf)]),
        )
        tab.a[:, n:] = np.diag(np.where(b >= a @ tab.bound_values()[:n], 1.0, -1.0))
        tab.basis = np.arange(n, n + m)
        tab.status[n:] = IN_BASIS
        phase1_cost = np.concatenate([np.zeros(n), np.ones(m)])
        tab.run_phase(phase1_cost, max_iter, allow_unbounded=False)
        if float(phase1_cost @ tab.x) > 1e-7 * scale:
            return SimplexResult(INFEASIBLE, None, math.nan, None, tab.iterations)

        # freeze artificials at zero; any still basic are degenerate and harmless
        tab.up[n:] = 0.0
        tab.status[n:][tab.status[n:] != IN_BASIS] = AT_LO

    phase2_cost = np.concatenate([lp.cost, np.zeros(tab.n - n)])
    status = tab.run_phase(phase2_cost, max_iter, allow_unbounded=True)
    if status == UNBOUNDED:
        return SimplexResult(UNBOUNDED, None, -math.inf, None, tab.iterations)
    x = tab.x[:n].copy()
    duals = tab.solve(phase2_cost[tab.basis], trans=True)
    final = tab.basis.copy() if np.all(tab.basis < n) else None
    return SimplexResult(OPTIMAL, x, float(lp.cost @ x), duals, tab.iterations, final)


def _warm_tableau(lp, basis, scale):
    """Tableau at `basis` without artificials, or None if that start fails."""
    m, n = lp.a_eq.shape
    basis = np.array(basis, dtype=int)
    if basis.shape != (m,) or np.any((basis < 0) | (basis >= n)):
        raise DimensionMismatch(f"basis must hold {m} column indices below {n}")
    tab = _Tableau(lp.a_eq, lp.b_eq, lp.lower, lp.upper)
    tab.basis = basis
    tab.status[basis] = IN_BASIS
    try:
        tab.refresh()
    except NumericalBreakdown:
        return None
    x_b, tol = tab.x[basis], 1e-9 * scale
    if np.any(x_b < lp.lower[basis] - tol) or np.any(x_b > lp.upper[basis] + tol):
        return None
    return tab
