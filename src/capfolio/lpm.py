"""Mean-LPM portfolio problem with capped terminal wealth.

Solves

    min  E[((gamma - X)_+)^q]
    s.t. E[X] >= d,  E[z(T) X] = x0,  0 <= X <= B

for q in {0} union (0, 1] union {2} over terminal wealth X, then evaluates
the closed-form wealth process x*(t, z) and dollar policy pi*(t, z) that
replicate the optimal X.

The optimal X takes at most three values/branches in the deflator z:

    q <= 1:  X* = B on {eta z <= lam}, gamma on {lam < eta z <= lam + gamma^(q-1)},
             0 beyond
    q = 2:   X* = B on {eta z <= lam}, gamma - (eta z - lam)/2 on
             {lam < eta z <= lam + 2 gamma}, 0 beyond

where (lam, eta) are the multipliers of the mean and budget constraints.
Internally the solve runs in the substituted thresholds delta = lam/eta and
rho = (upper threshold) - delta, which are monotone coordinates for the two
constraint equations.

Case tags: Regular (both multipliers positive), DegenerateLowTarget (mean
constraint slack, lam = 0), DegenerateRich (budget alone already funds
X >= gamma; objective 0, solution not unique).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .errors import (
    InfeasibleBudget,
    MaxIterations,
    NoSignChange,
    PolicyUndefinedAtTerminal,
    SingularJacobian,
    SolverDiverged,
    TargetOutOfRange,
    TargetTooHigh,
)
from .kernels import (
    PartialMomentContext,
    std_normal_pdf_array,
    truncated_exp_moment,
    truncated_exp_moment_array,
)
from .market import (
    MarketModel,
    deflator_context,
    deflator_moments,
    expected_deflator,
    gram_inverse_excess,
)
from .solvers import find_root_1d, solve_2d

__all__ = [
    "REGULAR",
    "DEGENERATE_LOW_TARGET",
    "DEGENERATE_RICH",
    "LpmProblem",
    "Multipliers",
    "PolicySolution",
    "FeedbackCurve",
    "d_bounds",
    "classify",
    "solve_multipliers",
    "solve_lpm",
    "terminal_wealth",
    "expected_terminal_wealth",
    "wealth",
    "policy",
    "feedback_curve",
    "hit_probability",
    "wealth_envelope",
]

REGULAR = "Regular"
DEGENERATE_LOW_TARGET = "DegenerateLowTarget"
DEGENERATE_RICH = "DegenerateRich"

#: below this remaining deflator volatility the wealth formulas switch to
#: their terminal limit and the policy is reported undefined
TERMINAL_NU = 1e-8


@dataclass(frozen=True, slots=True)
class LpmProblem:
    """One mean-LPM instance.

    Attributes
    ----------
    x0 : float
        Initial capital, > 0.
    d : float
        Minimum expected terminal wealth.
    gamma : float
        Benchmark level of the shortfall (gamma - X)_+, > 0.
    cap : float
        Upper bound B on terminal wealth; must exceed d and gamma may equal
        it only in the limit the CVaR layer probes.
    q : float
        Shortfall moment order, in {0} union (0, 1] union {2}.
    horizon : float
        Investment horizon T in years; must match the market model used.
    """

    x0: float
    d: float
    gamma: float
    cap: float
    q: float
    horizon: float

    def __post_init__(self):
        if not self.x0 > 0.0:
            raise ValueError(f"x0 must be positive, got {self.x0}")
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not self.cap > 0.0:
            raise ValueError(f"cap must be positive, got {self.cap}")
        if self.cap < self.gamma:
            raise ValueError(
                f"cap {self.cap} below the benchmark {self.gamma}"
            )
        if not self.cap > self.d:
            raise ValueError(f"cap {self.cap} must exceed the target {self.d}")
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        ok_q = self.q == 0.0 or 0.0 < self.q <= 1.0 or self.q == 2.0
        if not ok_q:
            raise ValueError(
                f"q must lie in {{0}} union (0,1] union {{2}}, got {self.q}"
            )


@dataclass(frozen=True, slots=True)
class Multipliers:
    """Lagrange pair of one solved instance.

    `mean` multiplies the expected-wealth constraint E[X] >= d, `budget`
    multiplies E[z X] = x0. Regular means both positive; DegenerateLowTarget
    has mean = 0; DegenerateRich has both zero.
    """

    mean: float
    budget: float
    case: str


@dataclass(frozen=True, slots=True)
class PolicySolution:
    """Everything needed to evaluate the optimal wealth and policy.

    `delta` and `rho` are the solved thresholds in z: the cap branch is
    {z <= delta} and the benchmark branch ends at delta + rho. For
    DegenerateRich, `delta` is the cap-branch threshold of the canonical
    solution and `rho` is None. `multiple_solutions` flags the rich case
    where the optimum is not unique.
    """

    problem: LpmProblem
    model: MarketModel
    context: PartialMomentContext
    multipliers: Multipliers
    delta: float
    rho: Optional[float]
    objective_value: float
    hit_prob: float
    d_lower: float
    d_upper: float
    multiple_solutions: bool = False


@dataclass(frozen=True, slots=True)
class FeedbackCurve:
    """Rows of (z, x, pi, weights) sorted by wealth x.

    `monotone_warning` is True when x*(t, .) failed to be strictly monotone
    on the supplied grid, in which case the x-sorted rows interleave grid
    points and the curve is not a function of x.
    """

    z: np.ndarray
    x: np.ndarray
    pi: np.ndarray
    weights: np.ndarray
    monotone_warning: bool


def _h(ctx: PartialMomentContext, p: float, y: float) -> float:
    """Partial moment H_p(y) extended by H_p(y) = 0 for y <= 0."""
    if y <= 0.0:
        return 0.0
    return truncated_exp_moment(p, ctx.m0, ctx.nu0, math.log(y))


def _check_horizon(problem, model):
    if abs(problem.horizon - model.horizon) > 1e-12:
        raise ValueError(
            f"problem horizon {problem.horizon} != market horizon {model.horizon}"
        )


def d_bounds(problem: LpmProblem, model: MarketModel):
    """Feasible range (d_lower, d_upper) of the expected-wealth target.

    d_upper is the largest achievable mean given the budget and the cap.
    d_lower is the mean the budget-only optimum delivers; targets at or
    below it leave the mean constraint slack. The lower branch depends on
    whether the budget funds the benchmark outright (x0 >= gamma E[z]).

    Raises InfeasibleBudget when x0 >= cap * E[z(T)].
    """
    _check_horizon(problem, model)
    return _bounds(deflator_context(model), problem)


def _bounds(ctx: PartialMomentContext, problem: LpmProblem):
    """d_bounds on a prebuilt deflator context."""
    x0, gamma, cap, q = problem.x0, problem.gamma, problem.cap, problem.q
    ez = ctx.mean
    if x0 >= cap * ez:
        raise InfeasibleBudget(
            f"x0 = {x0} cannot stay under the cap: cap * E[z] = {cap * ez}"
        )
    delta_bar = kernels.invert_H1(ctx, x0 / cap)
    d_upper = cap * _h(ctx, 0.0, delta_bar)

    if x0 < gamma * ez:
        if q == 2.0:
            p = 1.0 / (q - 1.0)
            rho_hat = kernels.invert_K(ctx, p, x0 / gamma)
            d_lower = gamma * kernels.partial_moment_J(ctx, p, rho_hat)
        else:
            rho_hat = kernels.invert_H1(ctx, x0 / gamma)
            d_lower = gamma * _h(ctx, 0.0, rho_hat)
    elif x0 == gamma * ez:
        d_lower = gamma
    else:
        delta_low = kernels.invert_H1(ctx, (x0 - gamma * ez) / (cap - gamma))
        d_lower = (cap - gamma) * _h(ctx, 0.0, delta_low) + gamma
    return d_lower, d_upper


def classify(problem: LpmProblem, model: MarketModel) -> str:
    """Case tag for the instance; raises TargetTooHigh when d >= d_upper."""
    _check_horizon(problem, model)
    ctx = deflator_context(model)
    return _classify(ctx, problem, _bounds(ctx, problem))


def _classify(ctx: PartialMomentContext, problem: LpmProblem, bounds) -> str:
    d_lower, d_upper = bounds
    if problem.d >= d_upper:
        raise TargetTooHigh(
            f"target d = {problem.d} is not below d_upper = {d_upper}"
        )
    if problem.d > d_lower:
        return REGULAR
    if problem.x0 < problem.gamma * ctx.mean:
        return DEGENERATE_LOW_TARGET
    return DEGENERATE_RICH


def _regular_residuals(ctx, problem):
    """Constraint residuals as a function of (delta, rho), scaled."""
    x0, d, gamma, cap, q = (
        problem.x0,
        problem.d,
        problem.gamma,
        problem.cap,
        problem.q,
    )
    sd = max(1.0, abs(d))
    sx = max(1.0, x0)

    if q == 2.0:

        def residuals(delta, rho):
            hi = delta + rho
            dh0 = _h(ctx, 0.0, hi) - _h(ctx, 0.0, delta)
            dh1 = _h(ctx, 1.0, hi) - _h(ctx, 1.0, delta)
            dh2 = _h(ctx, 2.0, hi) - _h(ctx, 2.0, delta)
            mid = gamma * (1.0 + delta / rho)
            mean_res = cap * _h(ctx, 0.0, delta) + mid * dh0 - (gamma / rho) * dh1 - d
            bud_res = cap * _h(ctx, 1.0, delta) + mid * dh1 - (gamma / rho) * dh2 - x0
            return mean_res / sd, bud_res / sx

    else:

        def residuals(delta, rho):
            hi = delta + rho
            mean_res = (
                (cap - gamma) * _h(ctx, 0.0, delta) + gamma * _h(ctx, 0.0, hi) - d
            )
            bud_res = (
                (cap - gamma) * _h(ctx, 1.0, delta) + gamma * _h(ctx, 1.0, hi) - x0
            )
            return mean_res / sd, bud_res / sx

    return residuals


def _thresholds_to_multipliers(problem, delta, rho):
    gamma, q = problem.gamma, problem.q
    width = 2.0 * gamma if q == 2.0 else gamma ** (q - 1.0)
    budget_mult = width / rho
    return budget_mult * delta, budget_mult


def _solve_regular_newton(ctx, problem):
    residuals = _regular_residuals(ctx, problem)

    def system(u):
        # clamp so wild trial steps of the damped Newton stay finite; the
        # clamp is far outside any meaningful deflator quantile
        return residuals(
            math.exp(min(max(u[0], -600.0), 600.0)),
            math.exp(min(max(u[1], -600.0), 600.0)),
        )

    delta0 = kernels.invert_H1(ctx, problem.x0 / problem.cap)
    report = solve_2d(system, [math.log(delta0), 0.0], tol=1e-11)
    delta, rho = math.exp(report.root[0]), math.exp(report.root[1])
    return delta, rho


def _solve_regular_nested_q_le1(ctx, problem):
    """Exact 1-D reduction for q <= 1.

    The budget equation pins the upper threshold given delta:

        H_1(delta + rho) = (x0 - (cap - gamma) H_1(delta)) / gamma

    so the mean equation becomes a monotone scalar residual in delta with a
    sign change guaranteed on (delta_floor, delta_bar).
    """
    x0, d, gamma, cap = problem.x0, problem.d, problem.gamma, problem.cap
    ez = ctx.mean
    delta_bar = kernels.invert_H1(ctx, x0 / cap)

    def upper(delta):
        target = (x0 - (cap - gamma) * _h(ctx, 1.0, delta)) / gamma
        target = min(max(target, 1e-300), ez * (1.0 - 1e-15))
        return kernels.invert_H1(ctx, target)

    def mean_gap(delta):
        return (
            (cap - gamma) * _h(ctx, 0.0, delta)
            + gamma * _h(ctx, 0.0, upper(delta))
            - d
        )

    if x0 > gamma * ez:
        # the rich threshold itself, as d_bounds computes it: there the upper
        # threshold diverges and the mean gap is d_lower - d < 0, however
        # close d sits to d_lower
        lo = kernels.invert_H1(ctx, (x0 - gamma * ez) / (cap - gamma))
    else:
        lo = delta_bar * 1e-13
    hi = delta_bar * (1.0 - 1e-11)
    report = find_root_1d(mean_gap, lo, hi, tol=1e-13)
    delta = report.root
    return delta, upper(delta) - delta


def _solve_regular_nested_q2(ctx, problem):
    """Nested 1-D fallback for q = 2.

    Inner: for fixed rho, the mean equation is monotone increasing in delta
    (mass moves to the cap), solved on (0, delta_bar]. Outer: the budget
    residual at delta(rho) changes sign in rho; located by geometric scan
    then Brent.
    """
    x0, d, cap = problem.x0, problem.d, problem.cap
    delta_bar = kernels.invert_H1(ctx, x0 / cap)
    residuals = _regular_residuals(ctx, problem)

    def delta_of_rho(rho):
        def gap(delta):
            return residuals(delta, rho)[0]

        lo, hi = delta_bar * 1e-14, delta_bar * 8.0
        if gap(lo) > 0.0 or gap(hi) < 0.0:
            return None
        return find_root_1d(gap, lo, hi, tol=1e-13).root

    def budget_gap(rho):
        delta = delta_of_rho(rho)
        if delta is None:
            return None
        return residuals(delta, rho)[1]

    grid = [math.exp(k) for k in np.linspace(-12.0, 12.0, 49)]
    prev_rho = prev_gap = None
    bracket = None
    for rho in grid:
        gap = budget_gap(rho)
        if gap is None:
            prev_rho = prev_gap = None
            continue
        if prev_gap is not None and (gap > 0.0) != (prev_gap > 0.0):
            bracket = (prev_rho, rho)
            break
        prev_rho, prev_gap = rho, gap
    if bracket is None:
        raise NoSignChange("no budget sign change over the rho scan")
    rho = find_root_1d(lambda r: budget_gap(r), *bracket, tol=1e-13).root
    return delta_of_rho(rho), rho


def solve_multipliers(problem: LpmProblem, model: MarketModel) -> Multipliers:
    """Solve for the Lagrange pair of the classified instance.

    Regular instances with q <= 1 are solved by the exact monotone 1-D
    reduction: the budget equation pins the upper threshold given delta, and
    the mean equation is bracketed in delta. For q = 2 a damped Newton runs
    on the threshold coordinates (delta, rho), in logs so both stay
    positive, from delta = H_1^{-1}(x0 / cap), rho = 1; a nested 1-D solve
    is its fallback. Degenerate instances have one-line closed forms.

    Raises SolverDiverged when the Regular solve fails.
    """
    _check_horizon(problem, model)
    ctx = deflator_context(model)
    mult, _, _ = _solve_case(problem, ctx, _bounds(ctx, problem))
    return mult


def _solve_regular_q2(ctx, problem):
    """Damped Newton for q = 2, falling back to the nested 1-D solve."""
    try:
        delta, rho = _solve_regular_newton(ctx, problem)
        if _residuals_ok(ctx, problem, delta, rho):
            return delta, rho
    except (MaxIterations, SingularJacobian, TargetOutOfRange, NoSignChange):
        pass
    return _solve_regular_nested_q2(ctx, problem)


def _solve_case(problem, ctx, bounds):
    """(multipliers, delta, rho) for any case; rho None for DegenerateRich."""
    case = _classify(ctx, problem, bounds)
    gamma, q, x0 = problem.gamma, problem.q, problem.x0

    if case == DEGENERATE_RICH:
        ez = ctx.mean
        if x0 == gamma * ez:
            delta_low = 0.0
        else:
            delta_low = kernels.invert_H1(
                ctx, (x0 - gamma * ez) / (problem.cap - gamma)
            )
        return Multipliers(0.0, 0.0, case), delta_low, None

    if case == DEGENERATE_LOW_TARGET:
        if q == 2.0:
            rho = kernels.invert_K(ctx, 1.0 / (q - 1.0), x0 / gamma)
        else:
            rho = kernels.invert_H1(ctx, x0 / gamma)
        _, budget_mult = _thresholds_to_multipliers(problem, 0.0, rho)
        return Multipliers(0.0, budget_mult, case), 0.0, rho

    try:
        if q == 2.0:
            delta, rho = _solve_regular_q2(ctx, problem)
        else:
            delta, rho = _solve_regular_nested_q_le1(ctx, problem)
    except (MaxIterations, TargetOutOfRange, NoSignChange) as exc:
        raise SolverDiverged(
            f"multiplier solve failed for {problem}: {exc}",
            report=getattr(exc, "report", None),
        ) from exc
    if not _residuals_ok(ctx, problem, delta, rho):
        raise SolverDiverged(f"residuals too large for {problem}")
    mean_mult, budget_mult = _thresholds_to_multipliers(problem, delta, rho)
    return Multipliers(mean_mult, budget_mult, case), delta, rho


def _residuals_ok(ctx, problem, delta, rho, tol=1e-8):
    if not (delta > 0.0 and rho > 0.0 and math.isfinite(delta + rho)):
        return False
    r1, r2 = _regular_residuals(ctx, problem)(delta, rho)
    return abs(r1) <= tol and abs(r2) <= tol


def solve_lpm(problem: LpmProblem, model: MarketModel) -> PolicySolution:
    """Full solve: bounds, classification, multipliers, objective, hit
    probability, assembled into an immutable PolicySolution."""
    _check_horizon(problem, model)
    ctx = deflator_context(model)
    bounds = _bounds(ctx, problem)
    mult, delta, rho = _solve_case(problem, ctx, bounds)
    gamma, q = problem.gamma, problem.q

    if mult.case == DEGENERATE_RICH:
        objective = 0.0
        hit = _h(ctx, 0.0, delta)
        multiple = problem.x0 > gamma * ctx.mean
    else:
        hi = delta + rho
        tail = 1.0 - _h(ctx, 0.0, hi)
        if q == 2.0:
            eta = mult.budget
            dh0 = _h(ctx, 0.0, hi) - _h(ctx, 0.0, delta)
            dh1 = _h(ctx, 1.0, hi) - _h(ctx, 1.0, delta)
            dh2 = _h(ctx, 2.0, hi) - _h(ctx, 2.0, delta)
            objective = (eta * eta / 4.0) * (
                dh2 - 2.0 * delta * dh1 + delta * delta * dh0
            ) + gamma * gamma * tail
        else:
            objective = gamma**q * tail
        hit = _h(ctx, 0.0, delta) if mult.mean > 0.0 else 0.0
        multiple = False

    return PolicySolution(
        problem=problem,
        model=model,
        context=ctx,
        multipliers=mult,
        delta=delta,
        rho=rho,
        objective_value=objective,
        hit_prob=hit,
        d_lower=bounds[0],
        d_upper=bounds[1],
        multiple_solutions=multiple,
    )


def terminal_wealth(solution: PolicySolution, z) -> np.ndarray:
    """Optimal terminal wealth X*(z), an array of the shape of z."""
    z = np.asarray(z, dtype=float)
    prob = solution.problem
    delta = solution.delta
    if solution.multipliers.case == DEGENERATE_RICH:
        return np.where(z <= delta, prob.cap, prob.gamma)
    hi = delta + solution.rho
    if prob.q == 2.0:
        eta = solution.multipliers.budget
        mid = prob.gamma - 0.5 * eta * (z - delta)
        return np.select(
            [z <= delta, z <= hi], [np.full_like(z, prob.cap), mid], default=0.0
        )
    return np.select(
        [z <= delta, z <= hi],
        [np.full_like(z, prob.cap), np.full_like(z, prob.gamma)],
        default=0.0,
    )


def expected_terminal_wealth(solution: PolicySolution) -> float:
    """E[X*] in closed form (the left side of the mean equation)."""
    ctx = solution.context
    prob = solution.problem
    delta = solution.delta
    if solution.multipliers.case == DEGENERATE_RICH:
        return (prob.cap - prob.gamma) * _h(ctx, 0.0, delta) + prob.gamma
    hi = delta + solution.rho
    if prob.q == 2.0:
        rho = solution.rho
        dh0 = _h(ctx, 0.0, hi) - _h(ctx, 0.0, delta)
        dh1 = _h(ctx, 1.0, hi) - _h(ctx, 1.0, delta)
        mid = prob.gamma * (1.0 + delta / rho)
        return prob.cap * _h(ctx, 0.0, delta) + mid * dh0 - (prob.gamma / rho) * dh1
    return (prob.cap - prob.gamma) * _h(ctx, 0.0, delta) + prob.gamma * _h(
        ctx, 0.0, hi
    )


def _remaining_moments(solution, t):
    mom = deflator_moments(solution.model, t)
    return mom.m, mom.nu


def _tilted_mass(a, m, nu, z, level):
    """E[e^{aY} 1_{z e^Y <= level}] for Y ~ N(m, nu^2); broadcasts over z."""
    if level <= 0.0:
        return np.zeros_like(np.asarray(z, dtype=float))
    with np.errstate(divide="ignore"):
        cut = math.log(level) - np.log(np.asarray(z, dtype=float))
    return truncated_exp_moment_array(a, m, nu, cut)


def wealth(solution: PolicySolution, t, z) -> np.ndarray:
    """Optimal wealth x*(t, z) for 0 <= t <= T, an array of the shape of z.

    Within TERMINAL_NU of the horizon the formula degenerates to the
    terminal payoff and that limit is returned.
    """
    z = np.asarray(z, dtype=float)
    m, nu = _remaining_moments(solution, t)
    if nu < TERMINAL_NU:
        return terminal_wealth(solution, z)
    prob = solution.problem
    delta = solution.delta

    if solution.multipliers.case == DEGENERATE_RICH:
        disc = expected_deflator(solution.model, t, solution.model.horizon)
        return (prob.cap - prob.gamma) * _tilted_mass(
            1.0, m, nu, z, delta
        ) + prob.gamma * disc

    hi = delta + solution.rho
    if prob.q == 2.0:
        eta = solution.multipliers.budget
        g1_lo = _tilted_mass(1.0, m, nu, z, delta)
        g1_hi = _tilted_mass(1.0, m, nu, z, hi)
        g2_lo = _tilted_mass(2.0, m, nu, z, delta)
        g2_hi = _tilted_mass(2.0, m, nu, z, hi)
        mid = prob.gamma + 0.5 * eta * delta
        return (
            prob.cap * g1_lo
            + mid * (g1_hi - g1_lo)
            - 0.5 * eta * z * (g2_hi - g2_lo)
        )
    return (prob.cap - prob.gamma) * _tilted_mass(
        1.0, m, nu, z, delta
    ) + prob.gamma * _tilted_mass(1.0, m, nu, z, hi)


def _standardized_levels(m, nu, z, level):
    """(ln(level / z) - m) / nu; -inf when level <= 0."""
    z = np.asarray(z, dtype=float)
    if level <= 0.0:
        return np.full_like(z, -math.inf)
    with np.errstate(divide="ignore"):
        return (math.log(level) - np.log(z) - m) / nu


def policy(solution: PolicySolution, t, z):
    """Dollar allocation pi*(t, z) to the risky assets, shape z.shape + (n,).

    Equals -z dx*/dz (sigma sigma')^{-1}(mu - r 1); here the scalar factor
    is in closed form. Raises PolicyUndefinedAtTerminal once the remaining
    volatility is below TERMINAL_NU.
    """
    z = np.asarray(z, dtype=float)
    m, nu = _remaining_moments(solution, t)
    if nu < TERMINAL_NU:
        raise PolicyUndefinedAtTerminal(
            f"policy has no limit at t = {t} (remaining nu = {nu:.2e})"
        )
    prob = solution.problem
    delta = solution.delta
    c1 = math.exp(m + 0.5 * nu * nu)

    if solution.multipliers.case == DEGENERATE_RICH:
        u_lo = _standardized_levels(m, nu, z, delta)
        scale = (c1 / nu) * (prob.cap - prob.gamma) * std_normal_pdf_array(u_lo - nu)
    elif prob.q == 2.0:
        eta = solution.multipliers.budget
        hi = delta + solution.rho
        c2 = math.exp(2.0 * m + 2.0 * nu * nu)
        u_lo = _standardized_levels(m, nu, z, delta)
        g2_gap = _tilted_mass(2.0, m, nu, z, hi) - _tilted_mass(2.0, m, nu, z, delta)
        # the upper-threshold phi terms of the cap and middle branches cancel
        # exactly, leaving the lower-threshold terms plus the integral term
        scale = (
            (c1 / nu)
            * (prob.cap - prob.gamma - 0.5 * eta * delta)
            * std_normal_pdf_array(u_lo - nu)
            + 0.5 * eta * z * (c2 / nu) * std_normal_pdf_array(u_lo - 2.0 * nu)
            + 0.5 * eta * z * g2_gap
        )
    else:
        hi = delta + solution.rho
        u_lo = _standardized_levels(m, nu, z, delta)
        u_hi = _standardized_levels(m, nu, z, hi)
        scale = (c1 / nu) * (
            (prob.cap - prob.gamma) * std_normal_pdf_array(u_lo - nu)
            + prob.gamma * std_normal_pdf_array(u_hi - nu)
        )
    direction = gram_inverse_excess(solution.model, t)
    return np.multiply.outer(scale, direction)


def feedback_curve(solution: PolicySolution, t, z_grid) -> FeedbackCurve:
    """Wealth/policy/weight rows over a z grid, sorted by wealth.

    Weights are pi / x per asset (NaN where x is zero). A monotonicity
    warning is flagged when x*(t, .) is not strictly decreasing in z on the
    grid, since only then is the policy a function of wealth.
    """
    z = np.asarray(z_grid, dtype=float).ravel()
    if z.size and np.any(np.diff(z) <= 0.0):
        raise ValueError("z_grid must be strictly ascending")
    x = np.atleast_1d(wealth(solution, t, z))
    pi = np.atleast_2d(policy(solution, t, z))
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.where(x[:, None] != 0.0, pi / x[:, None], np.nan)
    monotone_warning = bool(z.size > 1 and np.any(np.diff(x) >= 0.0))
    order = np.argsort(x, kind="stable")
    return FeedbackCurve(
        z=z[order],
        x=x[order],
        pi=pi[order],
        weights=weights[order],
        monotone_warning=monotone_warning,
    )


def hit_probability(solution: PolicySolution) -> float:
    """P(X* = cap) of the solved terminal wealth.

    For Regular cases this is the CDF of z at the threshold delta = lam/eta;
    zero when the mean multiplier vanishes (DegenerateLowTarget); for the
    rich case it is the cap mass of the canonical solution.
    """
    return solution.hit_prob


def wealth_envelope(problem: LpmProblem, model: MarketModel, t):
    """Bounds (0, cap * e^{-int_t^T r}) that x*(t, .) cannot leave."""
    disc = expected_deflator(model, t, model.horizon)
    return 0.0, problem.cap * disc
