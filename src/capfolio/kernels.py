"""Special functions underlying every closed form in the suite.

The terminal deflator z(T) is lognormal, ln z(T) ~ N(m0, nu0^2). Everything
the multiplier systems and wealth formulas need reduces to the standard
normal CDF, its inverse, the truncated exponential moment

    E[e^{aY} 1_{Y <= d}] = exp(a mu + a^2 v^2 / 2) Phi((d - mu)/v - a v),
    Y ~ N(mu, v^2),

and the partial moments of z(T) built from it,

    H_p(y) = E[z^p 1_{z <= y}],

with the inverse of H_1 and the eight-point Gauss-Legendre rule that
integrates a partial moment over a branch too short for the difference of
two closed-form values.

Every function here takes and returns floats and runs on `math` and the
standard library's `statistics.NormalDist` (the quantile, Wichura's AS241);
the multiplier solves, the inverses and every other quantity of one
instance call them, and none of them needs numpy. Their elementwise
counterparts over arrays of deflator levels, which only the wealth and
policy surfaces use, live in `surface` on numpy and scipy's erfc.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from .errors import DomainError, MaxIterations, TargetOutOfRange

__all__ = [
    "PartialMomentContext",
    "std_normal_cdf",
    "std_normal_quantile",
    "std_normal_pdf",
    "truncated_exp_moment",
    "partial_moment_H",
    "partial_moment_H_ext",
    "invert_H1",
    "GAUSS_LEGENDRE_8",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_STD_NORMAL = NormalDist()
#: Newton iterations of one inversion before it gives up
_MAX_NEWTON = 100
#: |ln y| beyond which an inversion iterate is not taken; e^700 ~ 1e304
_MAX_LOG_LEVEL = 700.0

#: eight-point Gauss-Legendre (node, weight) pairs on [0, 1]: the nodes and
#: weights of the rule on [-1, 1] mapped by x -> (x + 1) / 2, w -> w / 2
GAUSS_LEGENDRE_8 = (
    (0.019855071751231912, 0.05061426814518853),
    (0.10166676129318664, 0.11119051722668721),
    (0.2372337950418355, 0.15685332293894344),
    (0.4082826787521751, 0.18134189168918083),
    (0.5917173212478248, 0.18134189168918083),
    (0.7627662049581645, 0.15685332293894344),
    (0.8983332387068134, 0.11119051722668721),
    (0.9801449282487681, 0.05061426814518853),
)


def std_normal_cdf(y: float) -> float:
    """Standard normal CDF via the complementary error function.

    Accurate to about 1e-15 relative in the body and deep into both tails,
    because erfc avoids the cancellation Phi(y) = 1 - Phi(-y) would cause.
    """
    return 0.5 * math.erfc(-y / _SQRT2)


def std_normal_pdf(y: float) -> float:
    """Standard normal density."""
    return _INV_SQRT_2PI * math.exp(-0.5 * y * y)


def std_normal_quantile(p) -> float:
    """Inverse of std_normal_cdf on (0, 1).

    Raises DomainError outside the open interval.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile needs p in (0, 1), got {p}")
    return _STD_NORMAL.inv_cdf(p)


def truncated_exp_moment(a: float, mu: float, v: float, dcut: float) -> float:
    """E[e^{aY} 1_{Y <= dcut}] for Y ~ N(mu, v^2).

    Parameters
    ----------
    a : float
        Exponential tilt.
    mu, v : float
        Mean and standard deviation of Y, v >= 0.
    dcut : float
        Truncation point; +inf gives the untruncated moment
        e^{a mu + a^2 v^2/2}, -inf gives 0.

    Notes
    -----
    At v = 0 the law is a point mass, so the value is e^{a mu} if mu <= dcut
    and 0 otherwise. The upper moment E[e^{aY} 1_{Y > dcut}] is
    truncated_exp_moment(-a, -mu, v, -dcut), the lower moment of -Y.
    """
    if v < 0.0:
        raise DomainError(f"standard deviation must be >= 0, got {v}")
    if v == 0.0:
        return math.exp(a * mu) if mu <= dcut else 0.0
    full = math.exp(a * mu + 0.5 * a * a * v * v)
    # (dcut - mu)/v - a*v evaluates fine at +-inf and the CDF saturates
    return full * std_normal_cdf((dcut - mu) / v - a * v)


@dataclass(frozen=True, slots=True)
class PartialMomentContext:
    """Lognormal law of z(T): ln z(T) ~ N(m0, nu0^2), nu0 > 0.

    The degenerate nu0 = 0 market is rejected here; terminal-time limits are
    handled by the policy layer, not by this context.
    """

    m0: float
    nu0: float

    def __post_init__(self):
        if not self.nu0 > 0.0:
            raise DomainError(f"nu0 must be positive, got {self.nu0}")

    def standardize(self, y: float) -> float:
        """F(y) = (ln y - m0) / nu0, the z-score of the deflator level y > 0."""
        return (math.log(y) - self.m0) / self.nu0

    @property
    def mean(self) -> float:
        """E[z(T)] = e^{m0 + nu0^2/2}; also the supremum of H_1."""
        return math.exp(self.m0 + 0.5 * self.nu0 * self.nu0)


def partial_moment_H(ctx: PartialMomentContext, p: float, y: float) -> float:
    """H_p(y) = E[z^p 1_{z <= y}] = truncated_exp_moment(p, m0, nu0, ln y).

    H_0 is the CDF of z(T). Requires y > 0 (DomainError otherwise); y = +inf
    gives the full moment.
    """
    if p < 0.0:
        raise DomainError(f"partial moment order must be >= 0, got {p}")
    if not y > 0.0:
        raise DomainError(f"partial moment level must be positive, got {y}")
    return truncated_exp_moment(p, ctx.m0, ctx.nu0, math.log(y))


def partial_moment_H_ext(ctx: PartialMomentContext, p: float, y: float) -> float:
    """H_p(y) extended by H_p(y) = 0 for y <= 0, the form the payoff moments
    take, whose branches may start at the level 0."""
    if y <= 0.0:
        return 0.0
    return truncated_exp_moment(p, ctx.m0, ctx.nu0, math.log(y))


def _h1_start(ctx: PartialMomentContext, target: float) -> float:
    """ln y with H_1(y) = target in closed form, H_1(y) = E[z] Phi(F(y) - nu0).

    The quantile is taken of the smaller tail mass, so it keeps its accuracy
    near both ends of the range. A tail mass that rounds to 0 has an
    infinite quantile, which the caller clamps to the level range.
    """
    mass = target / ctx.mean
    tail = min(mass, 1.0 - mass)
    w = _STD_NORMAL.inv_cdf(tail) if tail > 0.0 else -math.inf
    return ctx.m0 + ctx.nu0 * (ctx.nu0 + (w if mass <= 0.5 else -w))


def invert_H1(ctx: PartialMomentContext, target: float) -> float:
    """Unique y with H_1(y) = target, for target in (0, E[z(T)]).

    The solve is Newton in x = ln y, on ln H_1 for targets up to half the
    range and on -ln(E[z] - H_1) above, each close to linear or quadratic
    in the tail it serves; both are computed without cancellation, and
    dH_1/dy = phi(F(y)) / nu0. It starts from the closed form, so it mostly
    stops after one evaluation, at the root of H_1 as partial_moment_H
    computes it. Every evaluation narrows a bracket [lo, hi] that starts as
    the whole axis, which is safe because H_1 runs from 0 to E[z]. A Newton
    step that leaves the bracket falls back to bisection in x; while one
    side is still open, steps are capped by a stride that starts at nu0 and
    doubles, the geometric bracket expansion. Stops when the Newton step or
    the bracket is below 1e-12 in x, i.e. 1e-12 relative in y.

    Raises TargetOutOfRange outside (0, E[z]) and MaxIterations when the
    iteration budget runs out.
    """
    m0, nu0, sup = ctx.m0, ctx.nu0, ctx.mean
    if not 0.0 < target < sup:
        raise TargetOutOfRange(
            f"invert_H1 target {target} outside the open range (0, {sup})"
        )
    upper = target > 0.5 * sup
    level = math.log(sup - target) if upper else math.log(target)
    lo, hi = -math.inf, math.inf
    x = min(max(_h1_start(ctx, target), -_MAX_LOG_LEVEL), _MAX_LOG_LEVEL)
    stride = nu0
    for _ in range(_MAX_NEWTON):
        w = (x - m0) / nu0 - nu0
        # y H_1'(y) = y phi(F(y)) / nu0 = E[z] phi(F(y) - nu0) / nu0
        s = sup * _INV_SQRT_2PI * math.exp(-0.5 * w * w) / nu0
        if upper:  # E[z] - H_1(y) = E[z 1{z > y}]
            g = truncated_exp_moment(-1.0, -m0, nu0, -x)
        else:
            g = truncated_exp_moment(1.0, m0, nu0, x)
        if g > 0.0:
            h = level - math.log(g) if upper else math.log(g) - level
            step = -h * g / s if s > 0.0 else math.nan  # dh/dx = s / g
        else:  # g underflowed: far left of the root (far right if upper)
            h = math.inf if upper else -math.inf
            step = math.nan
        if h < 0.0:
            lo = x
        else:
            hi = x
        if abs(step) <= 1e-12:
            return math.exp(x + step)
        if math.isinf(lo) or math.isinf(hi):
            if not abs(step) <= stride:
                step = stride if h < 0.0 else -stride
                stride *= 2.0
            x = min(max(x + step, -_MAX_LOG_LEVEL), _MAX_LOG_LEVEL)
        elif lo < x + step < hi:
            x += step
        else:
            x = 0.5 * (lo + hi)
        if hi - lo <= 1e-12:
            return math.exp(x)
    raise MaxIterations(f"invert_H1: no convergence for target {target}")
