"""Dynamic mean-variance benchmark with a bankruptcy floor at zero.

Minimize Var[X] over terminal payoffs X >= 0 subject to E[X] = d and the
budget E[z(T) X] = x0.  The optimal payoff is the truncated linear rule
X* = (lam - eta z)/2 on {z <= lam/eta} and 0 beyond, so everything reduces
to lognormal partial moments of z(T), and the payoff is an `lpm.Payoff`
whose wealth and policy `surface` evaluates.  No wealth cap applies here; the
module exists as a comparison point for the capped downside-risk policies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NoSignChange, SolverDiverged
from .kernels import PartialMomentContext, partial_moment_H
from .lpm import RESIDUAL_TOL, Multipliers, Payoff
from .market import MarketModel, deflator_context, require_numbers
from .solvers import find_root_1d

MEAN_VARIANCE = "MeanVariance"


@dataclass(frozen=True, slots=True)
class MvProblem:
    """Mean-variance problem data: budget x0, mean target d, horizon.

    Requires d strictly above the risk-free growth of the budget, which
    checked_context tests against the market (the model is not known here).
    """

    x0: float
    d: float
    horizon: float

    def __post_init__(self):
        require_numbers(self)
        if not self.x0 > 0.0:
            raise DomainError(f"initial budget must be positive, got {self.x0}")
        if not self.d > 0.0:
            raise DomainError(f"mean target must be positive, got {self.d}")
        if not self.horizon > 0.0:
            raise DomainError(f"horizon must be positive, got {self.horizon}")


def _moments(ctx, delta):
    """(H_0, H_1, H_2) at the truncation point delta."""
    return tuple(partial_moment_H(ctx, p, delta) for p in (0.0, 1.0, 2.0))


def _residuals(ctx, x0, d, lam, eta):
    h0, h1, h2 = _moments(ctx, lam / eta)
    mean_gap = 0.5 * (lam * h0 - eta * h1) - d
    budget_gap = 0.5 * (lam * h1 - eta * h2) - x0
    return mean_gap / max(1.0, abs(d)), budget_gap / max(1.0, x0)


def checked_context(problem: MvProblem, model: MarketModel) -> PartialMomentContext:
    """The law of z(T) in the market; DomainError unless `deflator_context`
    accepts the horizon and d exceeds the float x0 / ctx.mean, the budget's
    risk-free growth, which the `solve` command writes as the floor
    d_bounds.lower: the floor itself is rejected, the next float accepted."""
    ctx = deflator_context(model, problem.horizon)
    floor = problem.x0 / ctx.mean
    if problem.d <= floor:
        raise DomainError(
            "mean target d must exceed the risk-free growth of the budget "
            f"(d={problem.d}, x0/E[z]={floor:.6g})"
        )
    return ctx


def solve_mv(problem: MvProblem, model: MarketModel) -> Multipliers:
    """Find the multipliers (lam, eta) of the truncated linear payoff.

    With the truncation point delta = lam/eta the mean equation gives
    eta = 2 d / E[(delta - z)+], and the budget equation becomes the single
    equation E_w[z] = x0/d, where E_w[z] = E[z (delta - z)+] / E[(delta - z)+]
    is the mean of z under the weight (delta - z)+.  E_w[z] rises from 0 at
    delta = 0 to E[z] as delta grows (its derivative is (H_0 H_2 - H_1^2) /
    E[(delta - z)+]^2 > 0 by Cauchy-Schwarz, H_p at delta), so d > x0/E[z]
    gives exactly one root, bracketed in closed form: E_w[z] < delta puts the
    root above x0/d, and E[(delta - z)(z - x0/d)] <= E[(delta - z)+ (z - x0/d)]
    for delta >= x0/d puts it below twice the untruncated solution
    u = (E[z^2] - E[z] x0/d) / (E[z] - x0/d): as E[(delta - z)+] <= delta,
    E_w[z] - x0/d is at least (E[z] - x0/d) / 2 at delta = 2u, a margin the
    cancellation in u cannot erase.  A bracketed root in ln delta solves it to
    rounding.  Where 2u overflows, or within ulps of the floor x0/d rounds to
    E[z] or E[z] x0/d to E[z^2] or above, the upper end is the clamp
    ln delta = 700 - ln max(1, E[z]), where the gap is still finite.  Near the
    floor the root runs toward +inf, the untruncated payoff; where the gap at
    the upper end rounds to 0 or below, the solve takes that end and the
    residual gate decides.

    Raises exactly SolverDiverged if the multipliers overflow (a truncation
    point so deep in the lower tail of z(T) that E[(delta - z)+] is below the
    float range), the root's budget runs out or a scaled residual is not
    within lpm.RESIDUAL_TOL, and DomainError where checked_context does.
    """
    ctx = checked_context(problem, model)
    a_mom = ctx.mean
    x0, d = problem.x0, problem.d
    ratio = x0 / d
    c_mom = partial_moment_H(ctx, 2.0, math.inf)

    def weighted_mean_gap(u):
        delta = math.exp(u)
        h0, h1, h2 = _moments(ctx, delta)
        below = delta * h0 - h1
        if not below > 0.0:
            raise SolverDiverged(
                f"mean-variance truncation point {delta:.3e} lies where E[(delta - z)+] underflows"
            )
        return (delta * h1 - h2) / below - ratio

    top = 700.0 - max(0.0, math.log(a_mom))  # delta H_1 <= delta E[z] stays finite
    if ratio < a_mom and a_mom * ratio < c_mom:
        top = min(math.log(2.0 * (c_mom - a_mom * ratio) / (a_mom - ratio)), top)
    try:
        delta = math.exp(find_root_1d(weighted_mean_gap, math.log(ratio), top, tol=0.0).root)
    except NoSignChange:  # the gap never rises above 0: the untruncated limit, for the gate
        delta = math.exp(top)
    shortfall = delta * partial_moment_H(ctx, 0.0, delta) - partial_moment_H(ctx, 1.0, delta)
    eta = 2.0 * d / shortfall
    if not math.isfinite(eta):
        raise SolverDiverged(
            f"mean-variance multipliers overflow: E[(delta - z)+] = {shortfall:.3e} "
            f"at the truncation point {delta:.6g} is below the float range"
        )
    lam = delta * eta
    r1, r2 = _residuals(ctx, x0, d, lam, eta)
    if not (abs(r1) <= RESIDUAL_TOL and abs(r2) <= RESIDUAL_TOL):  # NaN residuals fail too
        raise SolverDiverged(
            f"mean-variance multiplier solve stalled at residuals ({r1:.3e}, {r2:.3e})"
        )
    return Multipliers(mean=lam, budget=eta, case=MEAN_VARIANCE)


def mv_payoff(mult: Multipliers, model: MarketModel) -> Payoff:
    """Optimal terminal payoff (lam - eta z)^+ / 2 as one branch that falls
    from lam / 2 at z = 0 to 0 at lam / eta; `surface.wealth`,
    `surface.policy` and `surface.feedback_curve` replicate it."""
    return Payoff(
        model=model,
        levels=(mult.mean / mult.budget,),
        starts=(0.5 * mult.mean,),
        ends=(0.0,),
    )


def mv_second_moment(mult: Multipliers, model: MarketModel) -> float:
    """E[(X*)^2] in closed form from partial moments of order 0, 1, 2."""
    h0, h1, h2 = _moments(deflator_context(model, model.horizon), mult.mean / mult.budget)
    lam, eta = mult.mean, mult.budget
    return 0.25 * (lam * lam * h0 - 2.0 * lam * eta * h1 + eta * eta * h2)
