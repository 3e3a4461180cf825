"""Mean-LPM portfolio problem with capped terminal wealth.

Solves

    min  E[((gamma - X)_+)^q]
    s.t. E[X] >= d,  E[z(T) X] = x0,  0 <= X <= B

for q in {0} union (0, 1] union {2} over terminal wealth X. Everything here
runs on floats: a solve needs a few partial moments of the lognormal
deflator and no arrays.

The optimal X takes at most three values/branches in the deflator z:

    q <= 1:  X* = B on {eta z <= lam}, gamma on {lam < eta z <= lam + gamma^(q-1)},
             0 beyond
    q = 2:   X* = B on {eta z <= lam}, gamma - (eta z - lam)/2 on
             {lam < eta z <= lam + 2 gamma}, 0 beyond

where (lam, eta) are the multipliers of the mean and budget constraints.
Internally the solve runs in the thresholds delta = lam/eta and
rho = (upper threshold) - delta. Given delta, the budget equation fixes rho,
the width of a flat (q <= 1) or sloped (q = 2) branch (`branch_width`, which
`cvar` shares): this is the budget curve, and the mean of its payoff rises
with delta from its low end, the rich threshold (or delta = 0), to
delta_bar = H_1^{-1}(x0/cap). Both bounds of the target are read off the
curve: d_lower is the mean at the low end and d_upper the mean at delta_bar,
where rho = 0. So every Regular instance is one bracketed root in ln delta
with a guaranteed sign change, and the DegenerateLowTarget solution is the
low end itself; for q = 2 a damped Newton on (ln delta, ln rho) runs first.
`solve_lpm` is the one solve: it places the target against the curve's
bounds once and returns the case, multipliers, thresholds and objective.

`payoff` turns a solution into a piecewise-linear Payoff of end values, free
of the multipliers. The wealth x*(t, z) and policy pi*(t, z) that replicate
any Payoff (Cox & Huang 1989), the mean-variance one of `meanvar.mv_payoff`
included, are evaluated over arrays of deflator levels by `surface`.

Case tags: Regular (both multipliers positive), DegenerateLowTarget (mean
constraint slack, lam = 0), DegenerateRich (budget alone already funds
X >= gamma; objective 0, solution not unique).
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Optional

from . import kernels
from .errors import (
    DomainError,
    InfeasibleBudget,
    NoSignChange,
    SolverDiverged,
    TargetOutOfRange,
    TargetTooHigh,
)
from .kernels import (
    GAUSS_LEGENDRE_8,
    PartialMomentContext,
    partial_moment_H,
    std_normal_pdf,
    truncated_exp_moment,
)
from .market import MarketModel, deflator_context, expected_deflator, require_numbers
from .solvers import find_root_1d, solve_2d

__all__ = [
    "REGULAR",
    "DEGENERATE_LOW_TARGET",
    "DEGENERATE_RICH",
    "LpmProblem",
    "Multipliers",
    "PolicySolution",
    "Payoff",
    "d_bounds",
    "solve_lpm",
    "payoff",
    "branch_width",
    "expected_terminal_wealth",
    "wealth_envelope",
]

REGULAR = "Regular"
DEGENERATE_LOW_TARGET = "DegenerateLowTarget"
DEGENERATE_RICH = "DegenerateRich"

RESIDUAL_TOL = 1e-8  # largest scaled mean and budget residual a multiplier solve accepts


@dataclass(frozen=True, slots=True)
class LpmProblem:
    """One mean-LPM instance.

    Attributes
    ----------
    x0 : float
        Initial capital, > 0, with x0 / cap above 0 in floats.
    d : float
        Minimum expected terminal wealth, below cap.
    gamma : float
        Benchmark level of the shortfall (gamma - X)_+, in (0, cap]; the
        CVaR layer's problems take gamma = cap at alpha = xbar - cap.
    cap : float
        Upper bound B on terminal wealth, > 0.
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
        require_numbers(self)
        if not self.cap > 0.0:
            raise DomainError(f"cap must be positive, got {self.cap}")
        if not self.x0 / self.cap > 0.0:  # x0 > 0, and x0 / cap within the float range
            raise DomainError(f"x0 must be positive, and x0 / cap above 0, got {self.x0}")
        if not 0.0 < self.gamma <= self.cap:
            raise DomainError(f"gamma must lie in (0, cap {self.cap}], got {self.gamma}")
        if not self.cap > self.d:
            raise DomainError(f"cap {self.cap} must exceed the target {self.d}")
        if not self.horizon > 0.0:
            raise DomainError(f"horizon must be positive, got {self.horizon}")
        ok_q = self.q == 0.0 or 0.0 < self.q <= 1.0 or self.q == 2.0
        if not ok_q:
            raise DomainError(
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
    """A solved instance; `payoff(solution)` is its optimal terminal wealth.

    `delta` and `rho` are the solved thresholds in z: the cap branch is
    {z <= delta} and the benchmark branch ends at delta + rho. For
    DegenerateRich, `delta` is the cap-branch threshold of the canonical
    solution and `rho` is None. `hit_prob` is P(X* = cap): P(z <= delta)
    when Regular, 0 when the mean multiplier vanishes (DegenerateLowTarget)
    and the cap mass of the canonical solution when rich, where
    `multiple_solutions` flags that the optimum is not unique.
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
class Payoff:
    """Piecewise-linear terminal wealth in the terminal deflator z.

    On branch k, (levels[k-1], levels[k]] with the first from 0, X runs
    linearly from starts[k] just above the lower level to ends[k] at the
    upper one; a branch to +inf is flat, and X(z) = 0 beyond the last
    level. Levels ascend; an empty branch repeats its lower level and falls
    there from its start. End values keep the size of X where a line's
    constant and slope grow like one over a short branch's width. The
    wealth surface, policy and feedback curve of every solved problem are
    read off this one type (`payoff`, `meanvar.mv_payoff`) by `surface`.
    """

    model: MarketModel
    levels: tuple
    starts: tuple
    ends: tuple


@dataclass(frozen=True, slots=True)
class _Curve:
    """Ends of the budget curve of one instance: the mean of its payoff is
    d_lower at the low end, the start `low` at delta_low with width rho_low,
    and d_upper at delta_bar, where rho = 0."""

    low: _Start
    rho_low: float
    delta_bar: float
    d_lower: float
    d_upper: float


def d_bounds(problem: LpmProblem, model: MarketModel):
    """Feasible range (d_lower, d_upper) of the expected-wealth target.

    Both are ends of the budget curve. d_upper is the largest achievable
    mean given the budget and the cap, the mean at delta_bar where the cap
    branch spends the whole budget. d_lower is the mean the budget-only
    optimum delivers, at the low end of the curve; targets at or below it
    leave the mean constraint slack.

    Raises DomainError, InfeasibleBudget and SolverDiverged as solve_lpm does.
    """
    curve = _budget_curve(deflator_context(model, problem.horizon), problem)
    return curve.d_lower, curve.d_upper


def _budget_curve(ctx: PartialMomentContext, problem: LpmProblem) -> _Curve:
    """The ends of the budget curve on a prebuilt deflator context.

    The low end is the rich threshold (0 when x0 <= gamma E[z]) with the
    width the budget leaves there, unbounded for q = 2 when the budget funds
    the benchmark outright.
    """
    x0, cap = problem.x0, problem.cap
    if x0 >= cap * ctx.mean or x0 / cap >= ctx.mean:  # either rounding of x0 >= cap E[z]
        raise InfeasibleBudget(
            f"x0 = {x0} cannot stay under the cap {cap}: E[z] = {ctx.mean}"
        )
    delta_bar = kernels.invert_H(ctx, 1.0, x0 / cap)
    low = _Start(ctx, _rich_threshold(ctx, problem))
    rho_low = _branch_width(problem, low)
    return _Curve(
        low=low,
        rho_low=rho_low,
        delta_bar=delta_bar,
        d_lower=_payoff_moments(problem, low, rho_low, (0.0,))[0],
        d_upper=cap * partial_moment_H(ctx, 0.0, delta_bar),
    )


def _rich_threshold(ctx: PartialMomentContext, problem: LpmProblem) -> float:
    """delta <= delta_bar with (cap - gamma) H_1(delta) + gamma E[z] = x0, the
    cap branch of the payoff that is gamma elsewhere; 0 when x0 <= gamma E[z]."""
    x0, cap, gamma, ez = problem.x0, problem.cap, problem.gamma, ctx.mean
    if x0 <= gamma * ez:
        return 0.0
    return kernels.invert_H(ctx, 1.0, min((x0 - gamma * ez) / (cap - gamma), x0 / cap))


class _Start:
    """H_a(delta) at most once per order a, and F(delta) at the first `short`, for all who
    hold the start (a nested trial's width and mean, the gate); `width` is `branch_width`."""

    def __init__(self, ctx, delta, h=None):
        self.ctx, self.delta, self.h, self.scale = ctx, delta, h or {}, None

    def H(self, a):
        if a not in self.h:
            self.h[a] = partial_moment_H(self.ctx, a, self.delta)
        return self.h[a]

    def short(self, rho):
        """Whether (delta, delta + rho] is short on the scale of the deflator
        law: rho (1 + (1 + |F(delta)|) / nu0) <= delta.  There the log of the
        density of z(T) has a slope below 2 in the branch fraction s, which
        eight Gauss-Legendre nodes integrate to rounding; outside it the closed
        forms amplify rounding by less than 2 + (1 + |F(delta)|) / nu0, squared
        for `_branch_square`.
        """
        if self.scale is None and self.delta > 0.0:
            self.scale = 1.0 + (1.0 + abs(self.ctx.standardize(self.delta))) / self.ctx.nu0
        return self.delta > 0.0 and rho * self.scale <= self.delta

    def ramps(self, ps, rho, end=None):
        """The ramp E[z^p (delta + rho - z) 1{delta < z <= delta + rho}] / rho
        for each p of ps, ascending consecutive orders in {0, 1}: gamma times it
        is the q = 2 middle branch's share of E[z^p X*], and `cvar` pins rho by
        it. rho = inf gives E[z^p 1{z > delta}], and rho <= 0 gives 0. The
        closed form ((delta + rho) dH_p - dH_{p+1}) / rho loses about
        eps (delta + rho) / rho to cancellation, so a short branch is integrated
        by Gauss-Legendre; a long one reads H_a(delta + rho) from end, the
        caller's start there, or evaluates it, once per order a.
        """
        ctx, delta = self.ctx, self.delta
        if rho <= 0.0:
            return [0.0] * len(ps)
        if rho == math.inf:  # E[z^p 1{z > delta}], without cancellation
            cut = -math.log(delta) if delta > 0.0 else math.inf
            return [truncated_exp_moment(-p, -ctx.m0, ctx.nu0, cut) for p in ps]
        if self.short(rho):
            return [_branch_rule(ctx, p, delta, rho, lambda s: 1.0 - s) for p in ps]
        hi = delta + rho
        out, dh = [], (end.H(ps[0]) if end else partial_moment_H(ctx, ps[0], hi)) - self.H(ps[0])
        for p in ps:  # dH_{p+1} of one order is dH_p of the next
            top = end.H(p + 1.0) if end else partial_moment_H(ctx, p + 1.0, hi)
            dh_next = top - self.H(p + 1.0)
            out.append((hi * dh - dh_next) / rho)
            dh = dh_next
        return out

    def width(self, p, need, sloped):
        if need <= 0.0:
            return 0.0
        ctx, delta, h = self.ctx, self.delta, self.H(p)
        room = (ctx.mean if p == 1.0 else 1.0) * (1.0 - 1e-15) - h
        if need >= room:
            if sloped:
                return math.inf
            need = room
        flat = kernels.invert_H(ctx, p, h + need) - delta
        if not sloped or flat <= 0.0:
            return max(flat, 0.0)
        # s puts need / (1 - s) = (room + need) / 2 midway to room; the quotient
        # is taken in that form, since 1 - s rounds to 0 when need < eps room / 2
        s = (room - need) / (room + need)
        most = (kernels.invert_H(ctx, p, h + 0.5 * (room + need)) - delta) / s

        def gap(x):
            return self.ramps((p,), math.exp(x))[0] / need - 1.0

        try:
            x = find_root_1d(gap, math.log(flat), math.log(most), tol=1e-13).root
        except NoSignChange as exc:
            # within ulps of the end of the curve the ramp prices a branch a few
            # ulps wide at more than need even at the flat width: the branch is
            # below resolution, and the flat width is the width
            if not gap(math.log(flat)) < 0.0:
                return flat
            raise SolverDiverged(f"sloped branch width for need {need}: {exc}") from exc
        return math.exp(x)


def _branch_square(start: _Start, end: _Start, rho: float) -> float:
    """E[(z - delta)^2 1{delta < z <= delta + rho}], the q = 2 middle branch's
    share of the objective up to (eta / 2)^2, from the starts at both ends.

    The closed form dH_2 - 2 delta dH_1 + delta^2 dH_0 loses about
    eps (delta / rho)^2 to cancellation, so a short branch is integrated by
    Gauss-Legendre instead.
    """
    delta = start.delta
    if start.short(rho):
        return rho * rho * _branch_rule(start.ctx, 0.0, delta, rho, lambda s: s * s)
    dh0, dh1, dh2 = (end.H(p) - start.H(p) for p in (0.0, 1.0, 2.0))
    return dh2 - 2.0 * delta * dh1 + delta * delta * dh0


def _branch_rule(ctx, p, delta, rho, weight):
    """E[z^p weight(s) 1{delta < z <= delta + rho}] with s = (z - delta) / rho,
    by eight-point Gauss-Legendre in s on the positive integrand."""
    total = 0.0
    for s, w in GAUSS_LEGENDRE_8:
        z = delta + rho * s
        # z^(p-1) phi(F(z)) / nu0 is z^p times the density of z(T) at z
        total += w * weight(s) * z ** (p - 1.0) * std_normal_pdf(ctx.standardize(z))
    return rho * total / ctx.nu0


def _payoff_moments(problem, start, rho, ps, end=None):
    """E[z^p X] for each p of ps, ascending consecutive orders in {0, 1}: the
    mean (p = 0) and the price (p = 1) of the Regular payoff with cap branch
    {z <= delta} and middle branch {delta < z <= delta + rho}, from the starts
    at delta and, if given, delta + rho. For q = 2 every order comes from one
    `_Start.ramps`, so on a long branch H_0, H_1 and H_2 are read once at each end."""
    # loops, not comprehensions, whose own frames add a third to a q <= 1
    # call (Python 3.11)
    cap, gamma = problem.cap, problem.gamma
    moments = []
    if problem.q == 2.0:
        for p, ramp in zip(ps, start.ramps(ps, rho, end)):
            moments.append(cap * start.H(p) + gamma * ramp)
        return moments
    for p in ps:
        top = end.H(p) if end else partial_moment_H(start.ctx, p, start.delta + rho)
        moments.append((cap - gamma) * start.H(p) + gamma * top)
    return moments


def _regular_residuals(problem, start, rho, end=None):
    """Mean and budget residuals of (delta, rho), relative: no unit of money."""
    mean, price = _payoff_moments(problem, start, rho, (0.0, 1.0), end)
    return (mean - problem.d) / abs(problem.d), (price - problem.x0) / problem.x0


def _solve_regular_newton(ctx, problem, delta0):
    def system(u):
        # clamp so wild trial steps of the damped Newton stay finite; the
        # clamp is far outside any meaningful deflator quantile
        x, y = min(max(u[0], -600.0), 600.0), min(max(u[1], -600.0), 600.0)
        return _regular_residuals(problem, _Start(ctx, math.exp(x)), math.exp(y))

    root = solve_2d(system, [math.log(delta0), 0.0], tol=1e-11).root
    return _Start(ctx, math.exp(root[0])), math.exp(root[1])


def branch_width(
    ctx: PartialMomentContext, p: float, delta: float, h: dict, need: float, sloped: bool
) -> float:
    """Width w of a branch (delta, delta + w] that funds need, for p in {0, 1}
    and h = {a: H_a(delta)}, the moments known at delta; 0 when need <= 0.

    A flat branch funds H_p(delta + w) - H_p(delta), inverted in closed form
    by kernels.invert_H and stopped 1e-15 of the supremum of H_p short of it,
    where the inverse is still defined after rounding. A sloped branch funds
    its ramp (`_Start.ramps`), unbounded once need reaches that room. Its
    weight lies in [1 - s, 1] on the first s of the branch, so the flat width
    and w / s, where the flat width w funds need / (1 - s), bracket its root
    in ln w; both ends come from the same closed-form inverse. Its trials share
    one start, whose H_p, H_{p+1} (from h or evaluated once) and F are those at
    delta, so a trial on a long branch evaluates H_p and H_{p+1} at its upper end only."""
    return _Start(ctx, delta, dict(h)).width(p, need, sloped)


def _branch_width(problem, start):
    """rho such that the middle branch spends the budget the cap branch
    {z <= delta} leaves, E[z X] = x0: flat for q <= 1, a ramp for q = 2."""
    left = (problem.x0 - problem.cap * start.H(1.0)) / problem.gamma
    return start.width(1.0, left, problem.q == 2.0)


def _solve_regular_nested(ctx, problem, curve):
    """Exact 1-D reduction of the Regular system, for every q.

    _branch_width pins rho given delta through the budget equation, and the
    mean gap E[X] - d is bracketed in x = ln delta, which spans decades at
    large nu0, on [low, ln delta_bar]. The gap is d_upper - d > 0 at
    delta_bar (rho = 0) and is taken as d_lower - d < 0, the value the
    classification compared, at low: ln delta_low, or when delta_low = 0 a
    level where H_0 and H_1 vanish (z-score -40) and, for the q = 2 ramp
    whose shape is that of delta / rho, delta < eps rho_low. lam = delta eta
    rises along the curve, so the root is unique."""
    if curve.low.delta > 0.0:
        low = math.log(curve.low.delta)
    else:
        low = min(math.log(curve.rho_low) - 37.0, ctx.m0 - 40.0 * ctx.nu0)
    trials = {low: (_Start(ctx, math.exp(low)), curve.rho_low)}  # kept for the gate

    def mean_gap(x):
        if x == low:
            return curve.d_lower - problem.d
        start = _Start(ctx, math.exp(x))  # the width and the mean share it
        trials[x] = start, _branch_width(problem, start)
        return _payoff_moments(problem, *trials[x], (0.0,))[0] - problem.d

    return trials[find_root_1d(mean_gap, low, math.log(curve.delta_bar), tol=0.0).root]


def _solve_regular(ctx, problem, curve):
    """(start, end, rho) of a Regular instance, as the residual gate hands them on.

    Raises TargetTooHigh at the top of the curve (delta_bar, rho = 0), where
    d is within RESIDUAL_TOL of d_upper and eta = 1/rho is unbounded, and
    SolverDiverged when the reduction fails or misses the gate.
    """
    if problem.q == 2.0:  # the Newton first; SolverDiverged from it falls back to the reduction
        with contextlib.suppress(SolverDiverged):
            return _residuals_ok(problem, *_solve_regular_newton(ctx, problem, curve.delta_bar))
    try:
        start, rho = _solve_regular_nested(ctx, problem, curve)
    except (TargetOutOfRange, NoSignChange) as exc:
        raise SolverDiverged(f"multiplier solve failed for {problem}: {exc}") from exc
    if start.delta == curve.delta_bar and rho == 0.0 and (
        abs(problem.d - curve.d_upper) <= RESIDUAL_TOL * abs(problem.d)
    ):  # farther from d_upper, the gate rejects rho = 0
        raise TargetTooHigh(
            f"target d = {problem.d} is within rounding of d_upper = {curve.d_upper}"
        )
    return _residuals_ok(problem, start, rho)


def _residuals_ok(problem, start, rho):
    """(start, end, rho), the gate's reads at delta and delta + rho; SolverDiverged on a miss."""
    delta, end = start.delta, _Start(start.ctx, start.delta + rho)
    if delta > 0.0 and rho > 0.0 and math.isfinite(delta + rho):
        r1, r2 = _regular_residuals(problem, start, rho, end)
        if abs(r1) <= RESIDUAL_TOL and abs(r2) <= RESIDUAL_TOL:
            return start, end, rho
    raise SolverDiverged(f"residuals too large for {problem}")


def solve_lpm(problem: LpmProblem, model: MarketModel) -> PolicySolution:
    """Solve one instance: its case, Lagrange pair, thresholds, objective
    and hit probability, assembled into an immutable PolicySolution.

    A target above d_lower is Regular and is solved by one exact monotone
    1-D reduction for every q: the budget equation pins the width rho of the
    middle branch given the cap threshold delta (`branch_width`), and the
    mean equation is bracketed in ln delta between the thresholds of d_lower
    and d_upper. For q = 2 a damped Newton on (ln delta, ln rho) from
    delta = H_1^{-1}(x0 / cap), rho = 1 runs first and the reduction is its
    fallback. Both degenerate cases sit at the low end of the budget curve:
    delta = 0 with the width rho_low for DegenerateLowTarget, and the rich
    threshold for DegenerateRich.

    Raises exactly DomainError (horizons differ, or nu0 = 0), InfeasibleBudget
    when x0 >= cap E[z(T)] in either rounding, TargetTooHigh when d >= d_upper
    or lies within RESIDUAL_TOL of it, and SolverDiverged when a root fails
    or the budget curve misses the budget: an answer or verdict is read off
    the curve only where its payoff prices at x0 within RESIDUAL_TOL x0 (the
    degenerate payoff, which must also mean at least d, and the payoff at
    delta_bar behind d_upper). Near a point-mass z(T), nu0 below about 1e-8,
    H_1 is a step that its inverse cannot hit, and the curve misses.
    """
    ctx = deflator_context(model, problem.horizon)
    curve = _budget_curve(ctx, problem)
    gamma, q = problem.gamma, problem.q
    if problem.d >= curve.d_upper:
        price = problem.cap * partial_moment_H(ctx, 1.0, curve.delta_bar)
        if abs(price - problem.x0) > RESIDUAL_TOL * problem.x0:  # d_upper is no bound then
            raise SolverDiverged(f"the top of the budget curve prices at {price} for {problem}")
        raise TargetTooHigh(
            f"target d = {problem.d} is not below d_upper = {curve.d_upper}"
        )
    if problem.d > curve.d_lower:
        case, (start, end, rho) = REGULAR, _solve_regular(ctx, problem, curve)
    elif problem.x0 < gamma * ctx.mean:
        case, start, rho = DEGENERATE_LOW_TARGET, curve.low, curve.rho_low
        end = _Start(ctx, start.delta + rho)
    else:
        case, start, end, rho = DEGENERATE_RICH, curve.low, None, None
    if case != REGULAR:  # the gate checks a Regular payoff; a degenerate one is checked here
        width = math.inf if rho is None else rho
        mean, price = _payoff_moments(problem, start, width, (0.0, 1.0), end)
        if not (abs(price - problem.x0) <= RESIDUAL_TOL * problem.x0 and mean >= problem.d):
            raise SolverDiverged(f"{case} payoff prices at {price}, mean {mean}, for {problem}")
    delta = start.delta

    if rho is None:
        mult, objective = Multipliers(0.0, 0.0, case), 0.0
    else:
        # delta = 0 gives a zero mean multiplier and hit probability
        eta = (2.0 * gamma if q == 2.0 else gamma ** (q - 1.0)) / rho
        mult = Multipliers(eta * delta, eta, case)
        tail = 1.0 - end.H(0.0)
        if q == 2.0:
            half_eta = 0.5 * mult.budget
            branch = half_eta * half_eta * _branch_square(start, end, rho)
            objective = branch + gamma * gamma * tail
        else:
            objective = gamma**q * tail

    return PolicySolution(
        problem=problem,
        model=model,
        context=ctx,
        multipliers=mult,
        delta=delta,
        rho=rho,
        objective_value=objective,
        hit_prob=start.H(0.0),
        d_lower=curve.d_lower,
        d_upper=curve.d_upper,
        multiple_solutions=rho is None and problem.x0 > gamma * ctx.mean,
    )


def payoff(solution: PolicySolution) -> Payoff:
    """The solved terminal wealth X*(z) as a Payoff with two branches.

    Both branches start at the cap threshold delta: the cap branch
    {z <= delta} pays the cap, and the benchmark branch pays gamma up to
    delta + rho for q <= 1, or falls from gamma at delta to 0 at
    delta + rho for q = 2. The rich case pays gamma on every z > delta, and
    delta = 0 (DegenerateLowTarget) leaves the cap branch empty.
    """
    prob, delta = solution.problem, solution.delta
    rich = solution.multipliers.case == DEGENERATE_RICH
    return Payoff(
        model=solution.model,
        levels=(delta, math.inf if rich else delta + solution.rho),
        starts=(prob.cap, prob.gamma),
        ends=(prob.cap, 0.0 if prob.q == 2.0 and not rich else prob.gamma),
    )


def expected_terminal_wealth(solution: PolicySolution) -> float:
    """E[X*] in closed form (the left side of the mean equation)."""
    prob, start = solution.problem, _Start(solution.context, solution.delta)
    if solution.multipliers.case == DEGENERATE_RICH:
        return (prob.cap - prob.gamma) * start.H(0.0) + prob.gamma
    return _payoff_moments(prob, start, solution.rho, (0.0,))[0]


def wealth_envelope(problem: LpmProblem, model: MarketModel, t):
    """Bounds (0, cap * e^{-int_t^T r}) that x*(t, .) cannot leave."""
    disc = expected_deflator(model, t, model.horizon)
    return 0.0, problem.cap * disc
