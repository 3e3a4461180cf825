"""Special functions underlying every closed form in the suite.

The terminal deflator z(T) is lognormal, ln z(T) ~ N(m0, nu0^2). Everything
the multiplier systems and wealth formulas need reduces to the standard
normal CDF, its inverse, the truncated exponential moment

    E[e^{aY} 1_{Y <= d}] = exp(a mu + a^2 v^2 / 2) Phi((d - mu)/v - a v),
    Y ~ N(mu, v^2),

and the partial moments of z(T) built from it,

    H_p(y) = E[z^p 1_{z <= y}],   0 for y <= 0 since z(T) > 0,

with their inverse for p in {0, 1}, and the eight-point Gauss-Legendre rule
that integrates a partial moment over a branch too short for the difference
of two closed-form values.

Every function here takes and returns floats and runs on `math`, and
`invert_H` on the standard library's `statistics.NormalDist` (AS241);
the multiplier solves, the inverses and every other quantity of one
instance call them, and none of them needs numpy. Their elementwise
counterparts over arrays of deflator levels, which only the wealth and
policy surfaces use, live in `surface` on numpy and scipy's erfc.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from .errors import DomainError, TargetOutOfRange

__all__ = [
    "PartialMomentContext",
    "std_normal_cdf",
    "std_normal_pdf",
    "truncated_exp_moment",
    "partial_moment_H",
    "invert_H",
    "GAUSS_LEGENDRE_8",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_STD_NORMAL = NormalDist()
#: |ln y| beyond which an inverse is clamped; e^700 ~ 1e304
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


def truncated_exp_moment(a: float, mu: float, v: float, dcut: float) -> float:
    """E[e^{aY} 1_{Y <= dcut}] for Y ~ N(mu, v^2).

    Parameters
    ----------
    a : float
        Exponential tilt.
    mu, v : float
        Mean and standard deviation of Y, v > 0.
    dcut : float
        Truncation point; +inf gives the untruncated moment
        e^{a mu + a^2 v^2/2}, -inf gives 0.

    Notes
    -----
    v <= 0 raises DomainError: every caller passes the nu0 > 0 of a
    `PartialMomentContext`. The upper moment E[e^{aY} 1_{Y > dcut}] is
    truncated_exp_moment(-a, -mu, v, -dcut), the lower moment of -Y.
    """
    if not v > 0.0:
        raise DomainError(f"standard deviation must be positive, got {v}")
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

    H_0 is the CDF of z(T). As z(T) > 0, H_p(y) = 0 for y <= 0, a level at
    which payoff branches may start; y = +inf gives the full moment.
    """
    if y <= 0.0:
        return 0.0
    return truncated_exp_moment(p, ctx.m0, ctx.nu0, math.log(y))


def invert_H(ctx: PartialMomentContext, p: float, target: float) -> float:
    """Unique y with H_p(y) = target, for p in {0, 1} and target in (0, E[z^p]).

    H_p(y) = E[z^p] Phi(F(y) - p nu0), so y = exp(m0 + nu0 (p nu0 + w)) with
    w the standard normal quantile of target / E[z^p]. The quantile is taken
    of the smaller tail mass, (E[z^p] - target) / E[z^p] above the midpoint,
    whose difference is exact, so it keeps its accuracy near both ends of the
    range. A tail mass that rounds to 0 has w = -inf, and ln y is clamped to
    the level range.

    Raises DomainError for other p and TargetOutOfRange outside (0, E[z^p]).
    """
    if p not in (0.0, 1.0):
        raise DomainError(f"invert_H needs p in {{0, 1}}, got {p}")
    sup = ctx.mean if p == 1.0 else 1.0
    if not 0.0 < target < sup:
        raise TargetOutOfRange(
            f"invert_H target {target} outside the open range (0, {sup})"
        )
    upper = target > 0.5 * sup
    tail = (sup - target if upper else target) / sup
    w = _STD_NORMAL.inv_cdf(tail) if tail > 0.0 else -math.inf
    log_y = ctx.m0 + ctx.nu0 * (p * ctx.nu0 + (-w if upper else w))
    return math.exp(min(max(log_y, -_MAX_LOG_LEVEL), _MAX_LOG_LEVEL))
