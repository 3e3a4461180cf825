"""Static buy-and-hold CVaR baseline solved as a scenario linear program.

`generate_scenarios` samples gross returns over [0, horizon] from the exact
lognormal law of the asset prices and appends a bond column.  The one
solve, `solve_static_cvar`, minimizes the CVaR of the terminal loss
L_k = xbar - R_k'w, every scenario equally likely, against a safe level
xbar the caller supplies (a comparison with the dynamic problem passes its
`cvar.safe_level`), over dollar allocations w subject to the budget and a
mean-return floor (Rockafellar-Uryasev form):

    min  alpha + E[(L - alpha)+] / (1 - beta)
    s.t. sum_j w_j = x0,   (1/N) sum_k R_k'w >= d,   w and alpha free.

E[(L - alpha)+] is the largest over scenario sets S of the linear functions
(|S|/N)(xbar - alpha) - (sum_{k in S} R_k / N)'w, attained at the tail
S = {k : L_k > alpha}.  Kelley's cutting-plane method (Kuenzi-Bay and Mayer
2006) solves a master LP over (w, alpha, theta >= 0) with one cut per tail
seen so far,

    min  alpha + theta / (1 - beta)
    s.t. budget, mean floor, |w_j| <= box,
         theta >= (|S|/N)(xbar - alpha) - (sum_{k in S} R_k / N)'w  per cut,

whose value bounds the optimum from below.  The master portfolio w is
priced at its own VaR, the ceil(beta N)-th smallest loss, where the LP
objective is the exact CVaR of w (Rockafellar-Uryasev, Thm 1): an upper
bound.  Each round adds the cut of that portfolio's tail beyond its VaR,
the supporting cut of CVaR at w; only when the master holds it already
does the round add the tail of the master's own alpha.  Rounds stop when
the bounds meet to 1e-12 relative, or when the master holds both cuts: it
was then solved with the exact objective at its own point, so the bounds
agree up to rounding.  There are finitely many tails, so this happens after
finitely many cuts, at the exact LP optimum.  The master is solved through
its dual, which has n_assets + 3 rows and a column per cut, every column
nonnegative but the budget multiplier's, which is free.  It starts at the
all-scenario cut, which bounds alpha and gives the dual a feasible basis in
closed form; a new cut appends a column, so one live simplex program
resumes from the last optimal basis each round.

The box starts at 100 x0 (wider if the mean floor needs more leverage) and
grows 100-fold while the best portfolio touches it.  The boxed optimum is
convex and non-increasing in the box size, so a growth that does not lower
it proves the optimum.  While it falls, the homogeneous program
(x0 = d = xbar = 0) decides: a negative optimum in the box is a costless
direction whose loss tail keeps falling, a tail arbitrage, and the LP is
reported unbounded.  Every solve re-checks the primal residuals and the
recomputed scenario CVaR before returning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import simplex
from .errors import DomainError, SolverDiverged
from .market import MarketModel, is_number
from .montecarlo import estimate_cvar, increments, require_seed_and_sizes

OPTIMAL = simplex.OPTIMAL
INFEASIBLE = "Infeasible"
UNBOUNDED = simplex.UNBOUNDED

_BOX = 100.0  # the master starts in the box |w_j| <= _BOX * x0
_GROW = 100.0  # and grows it by this factor while it binds
_GAP = 1e-12  # relative gap between the bounds at which the cuts stop
_MAX_ROUNDS = 1000


@dataclass(frozen=True, slots=True)
class ScenarioSet:
    """Sampled gross returns over the full horizon, bond column last.

    returns has shape (n_scenarios, n_assets + 1); every scenario is equally
    likely.
    """

    returns: np.ndarray

    @property
    def n_scenarios(self) -> int:
        return self.returns.shape[0]

    @property
    def n_assets(self) -> int:
        return self.returns.shape[1] - 1


@dataclass(frozen=True, slots=True)
class _Lp:
    """The Rockafellar-Uryasev CVaR LP; never materialized densely."""

    returns: np.ndarray  # (N, n_assets+1) gross returns incl. bond
    beta: float
    d: float
    x0: float
    xbar: float


@dataclass(frozen=True, slots=True)
class LpSolution:
    """weights are dollar allocations (risky assets then bond); alpha is the
    VaR of the optimum exactly, the ceil(beta N)-th smallest of the losses
    xbar - R'weights, and objective their CVaR there; alpha is NaN when the
    LP has no optimum."""

    weights: np.ndarray | None
    alpha: float
    objective: float
    status: str


def generate_scenarios(model: MarketModel, n: int, seed: int) -> ScenarioSet:
    """Exact lognormal gross returns per asset plus the bond, seeded.

    Each piecewise-constant segment [t_s, t_{s+1}) contributes a factor
    exp((mu - diag(Sigma)/2) dt + sigma G sqrt(dt)) with G standard normal,
    Sigma = sigma sigma'; segment s draws G sqrt(dt) as block s of
    `montecarlo.increments`, the Philox stream keyed (seed, s), so scenario i
    is reproducible independently of n.  Raises
    DomainError unless seed is an integer in [0, 2**64) and n one >= 1.
    """
    require_seed_and_sizes(seed, n=n)
    # the market's coefficient tuples as arrays, once per call
    edges = np.append(model.breakpoints, model.horizon)
    vols, drifts = np.asarray(model.vol), np.asarray(model.drift)
    n_assets = model.n_assets
    log_gross = np.zeros((n, n_assets))
    log_bond = 0.0
    for s in range(len(model.breakpoints)):
        dt = edges[s + 1] - edges[s]
        vol = vols[s]
        diag_cov = np.einsum("ij,ij->i", vol, vol)
        drift = (drifts[s] - 0.5 * diag_cov) * dt
        log_gross += drift + increments(model, seed, s, n, dt) @ vol.T
        log_bond += model.rate[s] * dt
    returns = np.empty((n, n_assets + 1))
    returns[:, :n_assets] = np.exp(log_gross)
    returns[:, n_assets] = math.exp(log_bond)
    return ScenarioSet(returns)


def solve_static_cvar(
    scenarios: ScenarioSet, beta: float, d: float, x0: float, xbar: float
) -> LpSolution:
    """Minimize the CVaR of xbar - R'w subject to sum(w) = x0 and
    mean(R'w) >= d by cutting planes, growing the box while it binds. Raises
    exactly DomainError for a non-finite input, beta outside (0, 1) or
    x0 <= 0, and SolverDiverged when the cuts or the simplex fail."""
    for name, value in (("beta", beta), ("d", d), ("x0", x0), ("xbar", xbar)):
        if not is_number(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if not 0.0 < beta < 1.0:
        raise DomainError(f"confidence level must lie in (0,1), got {beta}")
    if not x0 > 0.0:
        raise DomainError(f"initial budget must be positive, got {x0}")
    lp = _Lp(scenarios.returns, beta, float(d), float(x0), float(xbar))
    col_mean = lp.returns.mean(axis=0)
    spread = float(col_mean.max() - col_mean.min())
    # leverage t on the best-minus-worst mean spread meets the mean floor
    lever = max(lp.d - lp.x0 * float(col_mean.max()), 0.0) / spread if spread else 0.0
    box = max(_BOX * lp.x0, 2.0 * (lp.x0 + lever))
    master = _Master(lp)
    previous = None
    while True:
        best = _cut_rounds(lp, master, box)
        if best is None:
            return LpSolution(None, math.nan, math.nan, INFEASIBLE)
        if np.max(np.abs(best[0])) < (1.0 - 1e-9) * box:
            break
        if previous is not None:
            if best[2] >= previous[2] - _GAP * max(1.0, abs(best[2])):
                best = previous  # a wider box did not help: this is the optimum
                break
            # the homogeneous program; w = 0 is feasible, so it never fails
            cone = _Lp(lp.returns, lp.beta, 0.0, 0.0, 0.0)
            if _cut_rounds(cone, _Master(cone), box)[2] < -1e-9 * box:
                return LpSolution(None, math.nan, -math.inf, UNBOUNDED)
        previous = best
        box *= _GROW
    weights, alpha, cvar = best
    _check_primal(lp, weights, alpha, cvar)
    return LpSolution(weights=weights, alpha=alpha, objective=cvar, status=OPTIMAL)


def _cut_rounds(lp, master, box):
    """Kelley's method at a fixed box: (weights, VaR, cvar) of the best
    portfolio seen once it meets the master's lower bound, or None when the
    budget and mean rows admit no portfolio in the box.

    Each round prices the master portfolio w at its own VaR, the
    ceil(beta N)-th smallest loss, where the RU objective equals the exact
    CVaR of w: an upper bound on the optimum.  Its tail {L > VaR} is the
    supporting cut of CVaR at w and is added first.  Only when the master
    holds that cut already is the master point's tail {L > alpha} added;
    when it holds both, it was solved with the exact objective at its own
    point, so its lower bound is the CVaR of w and w is optimal.  No cut
    may enter before these tests: a held cut certifies the optimum only if
    the master held it when it was last solved."""
    r = lp.returns
    k = math.ceil(lp.beta * r.shape[0]) - 1
    best = None
    for _ in range(_MAX_ROUNDS):
        found = master.solve(box)
        if found is None:
            return None
        weights, alpha, lower = found
        losses = lp.xbar - r @ weights
        var = float(np.partition(losses, k)[k])
        tail = losses > var
        upper = var + float((losses[tail] - var).sum()) / ((1.0 - lp.beta) * losses.size)
        if best is None or upper < best[2]:
            best = (weights, var, upper)
        if best[2] - lower <= _GAP * max(1.0, abs(best[2])):
            return best
        if not (master.add_cut(tail) or master.add_cut(losses > alpha)):
            return best
    raise SolverDiverged(f"cutting planes left a gap after {_MAX_ROUNDS} rounds")


class _Master:
    """Dual of the master LP, one column per cut, kept live across rounds.

    Rows are w_1..w_n, alpha and theta.  Columns are the budget multiplier
    (free), the mean-floor multiplier, the multipliers of w_j <= box and of
    -w_j <= box, the slack of sum(y) <= 1/(1-beta), then y_i >= 0 per cut,
    starting with the all-scenario cut.  The first basis is written down:
    that cut at y = 1 meets the alpha row, the theta slack takes the rest
    of 1/(1-beta), and on row w_j the box multiplier whose sign matches
    mean(R_j) cancels it.  A cut appends a column and a box change sets
    costs, so each round resumes from the last optimal basis.
    """

    def __init__(self, lp: _Lp):
        r = lp.returns
        n = r.shape[1]
        self.lp = lp
        everyone = np.ones(r.shape[0], dtype=bool)  # this cut bounds alpha
        self.tails = {np.packbits(everyone).tobytes()}
        cut, cut_cost = self._cut(everyone)
        a = np.zeros((n + 2, 2 * n + 4))
        a[:n, : 2 * n + 2] = np.column_stack(
            [np.ones(n), r.mean(axis=0), -np.eye(n), np.eye(n)]
        )
        a[n + 1, 2 * n + 2] = 1.0
        a[:, 2 * n + 3] = cut
        b = np.append(np.zeros(n), (1.0, 1.0 / (1.0 - lp.beta)))
        cost = np.append((-lp.x0, -lp.d), np.zeros(2 * n + 2))
        cost[-1] = cut_cost
        boxes = np.where(cut[:n] >= 0.0, 2, n + 2) + np.arange(n)
        self.program = simplex.Program(
            cost, a, b, np.arange(2 * n + 4) == 0, np.append(boxes, (2 * n + 3, 2 * n + 2))
        )

    def _cut(self, tail):
        """(column, cost) of theta >= (|S|/N)(xbar - alpha)
        - (sum_{k in S} R_k / N)'w for the tail S."""
        n_scen = self.lp.returns.shape[0]
        share = np.count_nonzero(tail) / n_scen
        column = np.append(tail @ self.lp.returns / n_scen, (share, 1.0))
        return column, -self.lp.xbar * share

    def add_cut(self, tail):
        """Add the cut of the tail S; False when S has its cut already."""
        key = np.packbits(tail).tobytes()
        if key in self.tails:
            return False
        self.tails.add(key)
        self.program.add_column(*self._cut(tail))
        return True

    def solve(self, box):
        """(weights, alpha, lower bound) at the master optimum, or None."""
        n = self.program.m - 2
        self.program.cost[2 : 2 * n + 2] = box
        result = self.program.solve()
        if result.status != OPTIMAL:
            return None  # an unbounded dual: no portfolio meets the rows
        return -result.duals[:n], -float(result.duals[n]), -result.objective


def _check_primal(lp, weights, alpha, cvar):
    scale = max(1.0, abs(lp.x0), abs(lp.d))
    budget_gap = abs(weights.sum() - lp.x0)
    portfolio = lp.returns @ weights
    mean_gap = lp.d - portfolio.mean()
    recomputed = estimate_cvar(portfolio, lp.beta, lp.xbar).value
    cvar_gap = abs(recomputed - cvar)
    if budget_gap > 1e-8 * scale or mean_gap > 1e-8 * scale or cvar_gap > 1e-8 * scale:
        raise SolverDiverged(
            "recovered portfolio fails primal checks: "
            f"|budget|={budget_gap:.2e}, mean shortfall={mean_gap:.2e}, "
            f"|cvar-recomputed|={cvar_gap:.2e}"
        )


__all__ = [
    "LpSolution",
    "ScenarioSet",
    "generate_scenarios",
    "solve_static_cvar",
]
