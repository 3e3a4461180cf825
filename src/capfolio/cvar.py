"""Mean-CVaR policy via reduction to a family of first-order shortfall problems.

The loss of a terminal wealth X against the safe level xbar is f = xbar - X.
For a fixed level alpha, minimizing E[(f - alpha)_+] is the q=1 shortfall
problem of `lpm` with benchmark gamma = xbar - alpha, so

    J(alpha) = alpha + E[(gamma - X*)_+] / (1 - beta)

and CVaR_beta(f) = min_alpha J(alpha), attained where alpha is the VaR of
the optimal loss (Rockafellar & Uryasev 2000, Thm 1).  J is convex.

The minimizer is one root in the cap threshold delta.  The q=1 solution
pays B on {z <= delta}, gamma up to delta + rho and 0 beyond, with
multipliers eta = 1/rho and lam = delta/rho, so J'(alpha) = 0 reads
beta = H_0(delta) + E[(delta + rho - z) 1{delta < z <= delta + rho}] / rho,
free of gamma.  Below delta_beta, H_0(delta_beta) = beta, rho(delta) is the
width of the sloped branch that funds beta - H_0(delta), `lpm.branch_width`
with p = 0.  The budget fixes gamma = (x0 - B H_1(delta)) / (H_1(delta + rho) - H_1(delta)),
and the mean gap B H_0(delta) + gamma (H_0(delta + rho) - H_0(delta)) - d
rises in delta on [0, min(delta_beta, delta_bar)], H_1(delta_bar) = x0/B
(tests/test_random_markets.py checks its signs on random markets).  At the
top it is at least d_upper - d > 0; alpha* = xbar - gamma at its root.
Three corners:

- gap >= 0 at delta = 0: the mean constraint is slack at alpha* (the
  embedded case is DegenerateLowTarget), and gamma comes from the budget;
- gamma >= B: alpha* = xbar - B, where J'(xbar - B) >= 0;
- at delta_beta, rho = 0: the gap is not evaluated but taken at its limit,
  where the gamma branch buys mean at the price delta (+inf at delta = 0).

One `lpm.solve_lpm` at alpha* supplies the policy and J*, and its residual
gate checks the reduction.  `j_value` is the independent check route: it
solves the embedded instance at any alpha.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

from . import lpm
from .errors import DomainError, InfeasibleBudget, NoSignChange, TargetTooHigh
from .kernels import invert_H, partial_moment_H
from .market import MarketModel, deflator_context, expected_deflator, require_numbers
from .solvers import find_root_1d


@dataclass(frozen=True, slots=True)
class CvarProblem:
    """Mean-CVaR problem data.

    x0      initial budget
    d       mean target for terminal wealth
    cap     upper bound B on terminal wealth, cap > max(d, safe level)
    beta    CVaR confidence level in (0, 1)
    horizon investment horizon T
    xbar    safe level the loss is measured against; None means the
            risk-free growth of the budget, resolved against the market
            by safe_level().

    x0, d, cap and horizon obey `lpm.LpmProblem`'s rules, checked by
    building the embedded problem at gamma = cap, so every embedded problem
    a solve builds (gamma in (0, cap]) constructs.
    """

    x0: float
    d: float
    cap: float
    beta: float
    horizon: float
    xbar: float | None = None

    def __post_init__(self):
        require_numbers(self)
        _embedded(self, self.cap)
        if not 0.0 < self.beta < 1.0:
            raise DomainError(f"confidence level must lie in (0,1), got {self.beta}")
        if self.xbar is not None and not self.cap > self.xbar:
            raise DomainError(
                f"wealth cap {self.cap} must exceed the safe level {self.xbar}"
            )


@dataclass(frozen=True, slots=True)
class CvarSolution:
    """Solved mean-CVaR instance.

    alpha_star is the VaR of the optimal loss.  policy is the embedded
    shortfall solution at alpha_star (benchmark xbar - alpha_star, q=1);
    lpm.payoff(policy) is the payoff the wealth and policy evaluators of
    `surface` take.  cvar = alpha_star + policy.objective_value / (1 - beta).
    """

    problem: CvarProblem
    xbar: float
    alpha_star: float
    cvar: float
    policy: lpm.PolicySolution


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
    """The q=1 shortfall instance with benchmark gamma = xbar - alpha,
    clamped to the cap: at alpha = xbar - cap the difference xbar - alpha
    can round above it.
    """
    return lpm.LpmProblem(
        x0=problem.x0,
        d=problem.d,
        gamma=min(gamma, problem.cap),
        cap=problem.cap,
        q=1.0,
        horizon=problem.horizon,
    )


def _evaluate(problem: CvarProblem, model: MarketModel, xbar: float, alpha: float):
    """(J, embedded solution) at alpha; the solution is None at or above xbar.

    Raises TargetTooHigh when the mean target is unattainable.
    """
    if alpha >= xbar:
        return alpha, None
    sol = lpm.solve_lpm(_embedded(problem, xbar - alpha), model)
    # times the reciprocal, not a division, which rounds J differently
    return alpha + sol.objective_value * (1.0 / (1.0 - problem.beta)), sol


def j_value(problem: CvarProblem, model: MarketModel, alpha) -> float:
    """Objective J(alpha); +inf sentinel when the mean target is unattainable."""
    try:
        return _evaluate(problem, model, safe_level(problem, model), float(alpha))[0]
    except TargetTooHigh:
        return math.inf


def _reduction(problem: CvarProblem, ctx):
    """(curve, top): curve(delta) is (mean gap, gamma) where J'(alpha) = 0 at
    the cap threshold delta in [0, top] (module docstring), priced once per
    delta."""
    x0, cap, beta = problem.x0, problem.cap, problem.beta
    delta_beta = invert_H(ctx, 0.0, beta)

    @functools.cache
    def curve(delta):
        h0, h1 = (partial_moment_H(ctx, p, delta) for p in (0.0, 1.0))
        rho = lpm.branch_width(ctx, 0.0, delta, h0, beta - h0, True)
        dh1 = partial_moment_H(ctx, 1.0, delta + rho) - h1
        spare = x0 - cap * h1
        if not dh1 > 0.0:  # the delta_beta limit; at delta = 0, spare = x0 > 0
            return cap * h0 + (spare / delta if delta else math.inf) - problem.d, math.inf
        dh0 = partial_moment_H(ctx, 0.0, delta + rho) - h0
        return cap * h0 + spare * dh0 / dh1 - problem.d, spare / dh1

    return curve, min(delta_beta, invert_H(ctx, 1.0, x0 / cap))


def solve_cvar(problem: CvarProblem, model: MarketModel) -> CvarSolution:
    """Solve the mean-CVaR problem end to end (module docstring).

    The policy is the embedded shortfall solution at alpha*.  Raises exactly
    DomainError where safe_level or the embedded shortfall problem does,
    TargetTooHigh when d is unattainable at the cap or within rounding of it
    (the root at the top of the curve, gamma <= 0 and alpha* >= xbar, or a
    gap negative there too), InfeasibleBudget when the budget already exceeds
    the capped payoff, and SolverDiverged when a root or the gate fails.
    """
    xbar = safe_level(problem, model)
    probe = _embedded(problem, problem.cap)
    d_high = lpm.d_bounds(probe, model)[1]  # does not depend on alpha
    if problem.d >= d_high:
        raise TargetTooHigh(
            f"mean target {problem.d} is not attainable below the cap "
            f"{problem.cap} (supremum {d_high:.6g})"
        )
    curve, top = _reduction(problem, deflator_context(model, problem.horizon))
    gap, gamma = curve(0.0)
    if gap < 0.0:
        try:
            gamma = curve(find_root_1d(lambda x: curve(x)[0], 0.0, top, tol=0.0).root)[1]
        except NoSignChange:  # negative at the top too, where it is at least
            gamma = 0.0  # d_upper - d: d is within rounding of d_upper (raised below)
    alpha_star = xbar - min(gamma, problem.cap)
    j_star, embedded = _evaluate(problem, model, xbar, alpha_star)
    if embedded is None:
        raise TargetTooHigh(f"mean target {problem.d} is within rounding of d_upper = {d_high}")
    return CvarSolution(
        problem=problem, xbar=xbar, alpha_star=alpha_star, cvar=j_star, policy=embedded
    )


@dataclass(frozen=True, slots=True)
class FrontierRow:
    d: float
    alpha_star: float
    cvar: float
    status: str


def frontier(problem: CvarProblem, model: MarketModel, d_grid) -> list[FrontierRow]:
    """One solve per mean target; infeasible rows keep a status, NaN values."""
    rows = []
    for d in d_grid:
        instance = dataclasses.replace(problem, d=d)
        try:
            solved = solve_cvar(instance, model)
        except (TargetTooHigh, InfeasibleBudget) as exc:
            rows.append(FrontierRow(float(d), math.nan, math.nan, type(exc).__name__))
        else:
            rows.append(FrontierRow(float(d), solved.alpha_star, solved.cvar, "ok"))
    return rows
