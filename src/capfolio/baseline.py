"""Static buy-and-hold CVaR baseline solved as a scenario linear program.

Gross returns over [0, horizon] are sampled from the exact lognormal law of
the asset prices, a bond column is appended, and the CVaR of the terminal
loss against the safe level is minimized over dollar allocations w subject
to the budget and a mean-return floor (Rockafellar-Uryasev form):

    min  alpha + (1/((1-beta) N)) sum_k u_k
    s.t. u_k >= xbar - R_k'w - alpha,  u_k >= 0,
         sum_j w_j = x0,   (1/N) sum_k R_k'w >= d,   w and alpha free.

With 1e5 scenarios the u-block dwarfs dense-tableau methods, so the solver
works on the LP dual, which has only n_assets + 2 rows:

    max  xbar sum_k y_k + x0 p + d mu
    s.t. sum_k R_kj y_k + p + mu mean_k(R_kj) = 0   for every column j,
         sum_k y_k = 1,   0 <= y_k <= 1/((1-beta) N),   mu >= 0,  p free.

The row multipliers at the dual optimum are exactly (-w, -alpha), which is
how the portfolio is recovered; every solve re-checks the primal residuals
and the recomputed scenario CVaR before returning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import simplex
from .errors import DomainError, NumericalBreakdown
from .market import MarketModel
from .montecarlo import estimate_cvar

OPTIMAL = simplex.OPTIMAL
INFEASIBLE = simplex.INFEASIBLE
UNBOUNDED = simplex.UNBOUNDED


@dataclass(frozen=True, slots=True)
class ScenarioSet:
    """Sampled gross returns over the full horizon, bond column last.

    returns has shape (n_scenarios, n_assets + 1); probabilities are the
    uniform scenario weights.
    """

    returns: np.ndarray
    probabilities: np.ndarray
    seed: int

    @property
    def n_scenarios(self) -> int:
        return self.returns.shape[0]

    @property
    def n_assets(self) -> int:
        return self.returns.shape[1] - 1


@dataclass(frozen=True, slots=True)
class RuCvarLp:
    """Structured Rockafellar-Uryasev CVaR LP; never materialized densely."""

    returns: np.ndarray  # (N, n_assets+1) gross returns incl. bond
    beta: float
    d: float
    x0: float
    xbar: float


@dataclass(frozen=True, slots=True)
class LpSolution:
    """weights are dollar allocations (risky assets then bond); alpha is the
    VaR level of the optimum, NaN when the LP has no optimum."""

    weights: np.ndarray | None
    alpha: float
    objective: float
    status: str


def generate_scenarios(model: MarketModel, n: int, seed: int) -> ScenarioSet:
    """Exact lognormal gross returns per asset plus the bond, seeded.

    Each piecewise-constant segment [t_s, t_{s+1}) contributes a factor
    exp((mu - diag(Sigma)/2) dt + sigma G sqrt(dt)) with G standard normal,
    Sigma = sigma sigma'; segment s draws from a Philox stream keyed
    (seed, s) so scenario i is reproducible independently of n.
    """
    if n < 1:
        raise DomainError(f"need at least one scenario, got {n}")
    edges = np.append(model.breakpoints, model.horizon)
    n_assets = model.n_assets
    log_gross = np.zeros((n, n_assets))
    log_bond = 0.0
    for s in range(len(model.breakpoints)):
        dt = edges[s + 1] - edges[s]
        if dt <= 0.0:
            continue
        vol = model.vol[s]
        diag_cov = np.einsum("ij,ij->i", vol, vol)
        drift = (model.drift[s] - 0.5 * diag_cov) * dt
        key = np.array([seed, s], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        shocks = gen.standard_normal((n, n_assets)) * math.sqrt(dt)
        log_gross += drift + shocks @ vol.T
        log_bond += model.rate[s] * dt
    returns = np.empty((n, n_assets + 1))
    returns[:, :n_assets] = np.exp(log_gross)
    returns[:, n_assets] = math.exp(log_bond)
    return ScenarioSet(
        returns=returns, probabilities=np.full(n, 1.0 / n), seed=seed
    )


def build_ru_lp(
    scenarios: ScenarioSet,
    beta: float,
    d: float,
    x0: float,
    xbar: float | None = None,
) -> RuCvarLp:
    """Assemble the CVaR LP; xbar defaults to the bond-grown budget."""
    if not 0.0 < beta < 1.0:
        raise DomainError(f"confidence level must lie in (0,1), got {beta}")
    if x0 <= 0.0:
        raise DomainError(f"initial budget must be positive, got {x0}")
    if xbar is None:
        xbar = x0 * float(scenarios.returns[0, -1])
    return RuCvarLp(
        returns=scenarios.returns, beta=beta, d=float(d), x0=float(x0), xbar=float(xbar)
    )


def simplex_solve(lp: RuCvarLp) -> LpSolution:
    """Solve the CVaR LP through its dual and recover (w, alpha) from the duals."""
    r = lp.returns
    n_scen, n_cols = r.shape
    y_cap = 1.0 / ((1.0 - lp.beta) * n_scen)
    col_mean = r.mean(axis=0)
    # variables: y_1..y_N, p, mu
    a = np.zeros((n_cols + 1, n_scen + 2))
    a[:n_cols, :n_scen] = r.T
    a[:n_cols, n_scen] = 1.0
    a[:n_cols, n_scen + 1] = col_mean
    a[n_cols, :n_scen] = 1.0
    b = np.zeros(n_cols + 1)
    b[n_cols] = 1.0
    cost = np.empty(n_scen + 2)
    cost[:n_scen] = -lp.xbar
    cost[n_scen] = -lp.x0
    cost[n_scen + 1] = -lp.d
    lower = np.zeros(n_scen + 2)
    lower[n_scen] = -math.inf
    upper = np.full(n_scen + 2, math.inf)
    upper[:n_scen] = y_cap
    # crash start: preload the tail risk mass on the scenarios an equal-weight
    # portfolio loses most on, so phase 1 skips building it in box-sized steps
    start = np.full(n_scen + 2, simplex.AT_LO, dtype=np.int8)
    start[n_scen] = simplex.FREE_ZERO
    heuristic_value = r @ np.full(n_cols, lp.x0 / n_cols)
    k_tail = int(math.floor((1.0 - lp.beta) * n_scen))
    if k_tail > 0:
        start[np.argsort(heuristic_value)[:k_tail]] = simplex.AT_UP
    result = simplex.solve_dense(
        simplex.LinearProgram(cost, a, b, lower, upper), start_status=start
    )
    if result.status == INFEASIBLE:
        # dual infeasibility means the primal CVaR is unbounded below
        # (the scenario set admits a costless tail-arbitrage direction)
        return LpSolution(None, math.nan, -math.inf, UNBOUNDED)
    if result.status == UNBOUNDED:
        return LpSolution(None, math.nan, math.nan, INFEASIBLE)
    weights = -result.duals[:n_cols]
    alpha = -float(result.duals[n_cols])
    cvar = -result.objective
    _check_primal(lp, weights, alpha, cvar)
    return LpSolution(weights=weights, alpha=alpha, objective=cvar, status=OPTIMAL)


def _check_primal(lp, weights, alpha, cvar):
    scale = max(1.0, abs(lp.x0), abs(lp.d))
    budget_gap = abs(weights.sum() - lp.x0)
    portfolio = lp.returns @ weights
    mean_gap = lp.d - portfolio.mean()
    recomputed = estimate_cvar(portfolio, lp.beta, lp.xbar).value
    cvar_gap = abs(recomputed - cvar)
    if budget_gap > 1e-8 * scale or mean_gap > 1e-8 * scale or cvar_gap > 1e-8 * scale:
        raise NumericalBreakdown(
            "recovered portfolio fails primal checks: "
            f"|budget|={budget_gap:.2e}, mean shortfall={mean_gap:.2e}, "
            f"|cvar-recomputed|={cvar_gap:.2e}"
        )


def solve_static_cvar(
    model: MarketModel, beta: float, d: float, x0: float, n_scenarios: int, seed: int
) -> LpSolution:
    """Sample scenarios, build the CVaR LP, and solve it."""
    scenarios = generate_scenarios(model, n_scenarios, seed)
    return simplex_solve(build_ru_lp(scenarios, beta, d, x0))


__all__ = [
    "LpSolution",
    "RuCvarLp",
    "ScenarioSet",
    "build_ru_lp",
    "generate_scenarios",
    "simplex_solve",
    "solve_static_cvar",
]
