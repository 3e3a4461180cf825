"""Mean-CVaR policy via reduction to a family of first-order shortfall problems.

The loss of a terminal wealth X against the safe level xbar is f = xbar - X.
For a fixed auxiliary level alpha, minimizing E[(f - alpha)_+] is the same
shortfall problem as the q=1 downside module with benchmark gamma = xbar -
alpha, so

    J(alpha) = alpha + E[(gamma_alpha - X*)_+] / (1 - beta)

and CVaR_beta(f) = min_alpha J(alpha), attained where alpha is the VaR of
the optimal loss (Rockafellar & Uryasev 2000, Thm 1).  J is convex in alpha.
With (lam, eta) the multipliers of the embedded solution and delta < h =
delta + rho its thresholds, the envelope theorem on the q=1 Lagrangian gives
the derivative in closed form:

    J'(alpha) = 1 - [1 - H_0(h) + eta (H_1(h) - H_1(delta))
                     - lam (H_0(h) - H_0(delta))] / (1 - beta)

The two multiplier terms account for the middle branch X* = gamma, which
moves with the benchmark.  J' = 1 where the embedded instance is
DegenerateRich and for alpha >= xbar.  alpha* is the root of the monotone J'
on [xbar - B, xbar], or xbar - B when J'(xbar - B) >= 0.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from . import lpm
from .errors import DomainError, InfeasibleBudget, TargetTooHigh
from .kernels import partial_moment_H
from .market import MarketModel, expected_deflator
from .solvers import find_root_1d


@dataclass(frozen=True, slots=True)
class CvarProblem:
    """Mean-CVaR problem data.

    x0      initial budget (> 0)
    d       mean target for terminal wealth
    cap     upper bound B on terminal wealth, cap > max(d, safe level)
    beta    CVaR confidence level in (0, 1)
    horizon investment horizon T
    xbar    safe level the loss is measured against; None means the
            risk-free growth of the budget, resolved against the market
            by safe_level().
    """

    x0: float
    d: float
    cap: float
    beta: float
    horizon: float
    xbar: float | None = None

    def __post_init__(self):
        if self.x0 <= 0.0:
            raise DomainError(f"initial budget must be positive, got {self.x0}")
        if not 0.0 < self.beta < 1.0:
            raise DomainError(f"confidence level must lie in (0,1), got {self.beta}")
        if self.horizon <= 0.0:
            raise DomainError(f"horizon must be positive, got {self.horizon}")
        if self.cap <= self.d:
            raise DomainError(
                f"wealth cap {self.cap} must exceed the mean target {self.d}"
            )
        if self.xbar is not None and self.cap <= self.xbar:
            raise DomainError(
                f"wealth cap {self.cap} must exceed the safe level {self.xbar}"
            )


@dataclass(frozen=True, slots=True)
class AlphaSearchTrace:
    """Record of a one-dimensional search over the auxiliary level alpha."""

    evaluated: tuple  # ordered (alpha, J(alpha)) pairs, every evaluation
    alpha_star: float
    j_star: float


@dataclass(frozen=True, slots=True)
class CvarSolution:
    """Solved mean-CVaR instance.

    alpha_star is the VaR of the optimal loss.  policy is the embedded
    shortfall solution at alpha_star (benchmark xbar - alpha_star, q=1);
    lpm.payoff(policy) is the payoff the wealth and policy evaluators of
    `surface` take.  cvar equals trace.j_star.
    """

    problem: CvarProblem
    xbar: float
    alpha_star: float
    cvar: float
    policy: lpm.PolicySolution
    trace: AlphaSearchTrace


def safe_level(problem: CvarProblem, model: MarketModel) -> float:
    """Resolve the loss benchmark: explicit xbar, else x0 at risk-free growth."""
    if problem.xbar is not None:
        return problem.xbar
    grown = problem.x0 / expected_deflator(model, 0.0, model.horizon)
    if problem.cap <= grown:
        raise DomainError(
            f"wealth cap {problem.cap} must exceed the default safe level {grown:.6g}"
        )
    return grown


def _embedded(problem: CvarProblem, gamma: float) -> lpm.LpmProblem:
    """The q=1 shortfall instance with benchmark gamma, xbar - alpha in the
    search, clamped to the cap: at alpha = xbar - cap the difference
    xbar - alpha can round above it.
    """
    return lpm.LpmProblem(
        x0=problem.x0,
        d=problem.d,
        gamma=min(gamma, problem.cap),
        cap=problem.cap,
        q=1.0,
        horizon=problem.horizon,
    )


def _shortfall_slope(sol: lpm.PolicySolution) -> float:
    """dV/dgamma of the optimal shortfall V(gamma) = E[(gamma - X*)_+].

    Envelope theorem on the q=1 Lagrangian: the tail {z > h} pays 1 per
    unit of gamma, and the middle branch X* = gamma on {delta < z <= h}
    shifts the mean and budget constraints, priced by lam and eta.
    """
    if sol.multipliers.case == lpm.DEGENERATE_RICH:
        return 0.0
    ctx = sol.context
    lo, hi = sol.delta, sol.delta + sol.rho
    h0_lo = partial_moment_H(ctx, 0.0, lo) if lo > 0.0 else 0.0
    h1_lo = partial_moment_H(ctx, 1.0, lo) if lo > 0.0 else 0.0
    h0_hi = partial_moment_H(ctx, 0.0, hi)
    h1_hi = partial_moment_H(ctx, 1.0, hi)
    lam, eta = sol.multipliers.mean, sol.multipliers.budget
    return 1.0 - h0_hi + eta * (h1_hi - h1_lo) - lam * (h0_hi - h0_lo)


def _evaluate(problem: CvarProblem, model: MarketModel, xbar: float, alpha: float):
    """(J, J', embedded solution) at alpha; the solution is None at or above xbar.

    Raises TargetTooHigh when the mean target is unattainable.
    """
    if alpha >= xbar:
        return alpha, 1.0, None
    sol = lpm.solve_lpm(_embedded(problem, xbar - alpha), model)
    scale = 1.0 / (1.0 - problem.beta)
    return (
        alpha + sol.objective_value * scale,
        1.0 - _shortfall_slope(sol) * scale,
        sol,
    )


def underline_d_of_alpha(problem: CvarProblem, model: MarketModel, alpha) -> float:
    """Smallest binding mean target of the embedded problem at this alpha.

    Returns 0 once the benchmark xbar - alpha is nonpositive, where no
    shortfall is possible and the mean constraint never conflicts.
    """
    xbar = safe_level(problem, model)
    if alpha >= xbar:
        return 0.0
    return lpm.d_bounds(_embedded(problem, xbar - alpha), model)[0]


def j_value(problem: CvarProblem, model: MarketModel, alpha) -> float:
    """Objective J(alpha); +inf sentinel when the mean target is unattainable."""
    try:
        return _evaluate(problem, model, safe_level(problem, model), float(alpha))[0]
    except TargetTooHigh:
        return math.inf


def j_derivative(problem: CvarProblem, model: MarketModel, alpha) -> float:
    """Exact J'(alpha) from the embedded solution (module docstring).

    Raises TargetTooHigh when the mean target is unattainable.
    """
    return _evaluate(problem, model, safe_level(problem, model), float(alpha))[1]


def _search(problem: CvarProblem, model: MarketModel, xbar: float):
    """(trace, embedded solution at alpha*) of the root search on J'."""
    lo = xbar - problem.cap
    evaluated = {}  # alpha -> (J, J', solution), in evaluation order

    def slope(alpha: float) -> float:
        if alpha not in evaluated:
            evaluated[alpha] = _evaluate(problem, model, xbar, alpha)
        return evaluated[alpha][1]

    if slope(lo) >= 0.0:
        alpha_star = lo
    else:
        # J' is monotone, negative at lo and 1 at xbar; where it jumps
        # between embedded cases the root is the jump point
        alpha_star = find_root_1d(slope, lo, xbar, tol=1e-12).root
    j_star, _, embedded = evaluated[alpha_star]
    trace = AlphaSearchTrace(
        evaluated=tuple((a, v[0]) for a, v in evaluated.items()),
        alpha_star=alpha_star,
        j_star=j_star,
    )
    return trace, embedded


def solve_cvar(problem: CvarProblem, model: MarketModel) -> CvarSolution:
    """Solve the mean-CVaR problem end to end.

    alpha* is the VaR of the optimal loss, found as the root of the exact
    J'(alpha) of the module docstring on [xbar - cap, xbar], or xbar - cap
    when J'(xbar - cap) >= 0.  The returned policy is the embedded shortfall
    solution the search produced at alpha*, with its multipliers,
    thresholds and case tag.  Raises TargetTooHigh when d is unattainable
    at the cap and InfeasibleBudget when the budget already exceeds the
    capped payoff.
    """
    xbar = safe_level(problem, model)
    probe = _embedded(problem, problem.cap)
    d_high = lpm.d_bounds(probe, model)[1]  # does not depend on alpha
    if problem.d >= d_high:
        raise TargetTooHigh(
            f"mean target {problem.d} is not attainable below the cap "
            f"{problem.cap} (supremum {d_high:.6g})"
        )
    trace, embedded = _search(problem, model, xbar)
    if embedded is None:
        raise DomainError(
            f"search returned alpha={trace.alpha_star} at or above the safe level"
        )
    return CvarSolution(
        problem=problem,
        xbar=xbar,
        alpha_star=trace.alpha_star,
        cvar=trace.j_star,
        policy=embedded,
        trace=trace,
    )


@dataclass(frozen=True, slots=True)
class FrontierRow:
    d: float
    alpha_star: float
    cvar: float
    status: str


def frontier(
    problem: CvarProblem,
    model: MarketModel,
    d_grid,
    beta: float | None = None,
) -> list[FrontierRow]:
    """One solve per mean target; infeasible rows keep a status, NaN values."""
    rows = []
    for d in d_grid:
        instance = dataclasses.replace(
            problem, d=float(d), beta=problem.beta if beta is None else beta
        )
        try:
            solved = solve_cvar(instance, model)
        except (TargetTooHigh, InfeasibleBudget) as exc:
            rows.append(
                FrontierRow(
                    d=float(d),
                    alpha_star=math.nan,
                    cvar=math.nan,
                    status=type(exc).__name__,
                )
            )
            continue
        rows.append(
            FrontierRow(
                d=float(d),
                alpha_star=solved.alpha_star,
                cvar=solved.cvar,
                status="ok",
            )
        )
    return rows
