"""Wealth and policy surfaces of a payoff over arrays of deflator levels.

This is the array path. A solved problem is a piecewise-linear `lpm.Payoff`
in the terminal deflator; the functions here replicate it (Cox & Huang
1989): the terminal wealth X(z), the wealth surface x(t, z), the dollar
policy pi(t, z) and its scalar factor, and the feedback curve, each
evaluated elementwise over an array of deflator levels z on numpy. The
array kernels they rest on are the elementwise counterparts of the scalar
ones in `kernels`, on numpy and scipy's erfc. scipy is imported by
`std_normal_cdf_array` on its first call, not with this module. The
solvers (`lpm`, `cvar`, `meanvar`) and the market run on floats and never
import this module, so a command that evaluates no surface loads neither
numpy nor scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PolicyUndefinedAtTerminal
from .kernels import GAUSS_LEGENDRE_8
from .lpm import TERMINAL_NU, Payoff
from .market import deflator_moments, gram_inverse_excess

__all__ = [
    "FeedbackCurve",
    "std_normal_cdf_array",
    "std_normal_pdf_array",
    "truncated_exp_moment_array",
    "terminal_wealth",
    "wealth",
    "policy_scale",
    "policy",
    "feedback_curve",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
#: a branch (lo, hi] with ln(hi / lo) at most this share of the remaining
#: deflator volatility is integrated by Gauss-Legendre (_short_mass): there
#: the difference of the closed-form moments at its ends cancels, while the
#: log of the normal density changes by less than 2 across it wherever the
#: density does not underflow, which eight nodes integrate to rounding
_SHORT_BRANCH = 0.05


def std_normal_cdf_array(y) -> np.ndarray:
    """std_normal_cdf elementwise over an array."""
    from scipy.special import erfc  # the one kernel that needs scipy

    return 0.5 * erfc(-np.asarray(y, dtype=float) / _SQRT2)


def std_normal_pdf_array(y) -> np.ndarray:
    """std_normal_pdf elementwise over an array."""
    y = np.asarray(y, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * y * y)


def truncated_exp_moment_array(a: float, mu: float, v: float, dcut) -> np.ndarray:
    """truncated_exp_moment elementwise over an array of truncation points."""
    if v < 0.0:
        raise DomainError(f"standard deviation must be >= 0, got {v}")
    dcut = np.asarray(dcut, dtype=float)
    if v == 0.0:
        return np.where(mu <= dcut, math.exp(a * mu), 0.0)
    full = math.exp(a * mu + 0.5 * a * a * v * v)
    return full * std_normal_cdf_array((dcut - mu) / v - a * v)


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


def terminal_wealth(payoff: Payoff, z) -> np.ndarray:
    """Terminal wealth X(z) of the payoff, an array of the shape of z."""
    z = np.asarray(z, dtype=float)
    lows, slopes = _lines(payoff)
    return np.select(
        [z <= level for level in payoff.levels],
        [s + b * (z - lo) for lo, s, b in zip(lows, payoff.starts, slopes)],
        default=0.0,
    )


def _lines(payoff: Payoff):
    """Each branch's lower level, and X's slope on it (0 if empty or to +inf)."""
    lows = (0.0, *payoff.levels[:-1])
    return lows, [
        (end - start) / (hi - lo) if lo < hi < math.inf else 0.0
        for lo, hi, start, end in zip(lows, payoff.levels, payoff.starts, payoff.ends)
    ]


def _branch_sum(payoff: Payoff, a, m, nu, log_z, weights, factor):
    """sum_k weights[k] factor dG_a over the payoff branches.

    G_a(y) = E[e^{aY} 1{z e^Y <= y}] for Y ~ N(m, nu^2), and dG_a is its
    difference between the branch ends y_{k-1} and y_k (y_0 = 0).
    Branches of weight 0 add nothing, so all-zero weights cost nothing.
    A short branch (see _SHORT_BRANCH) is integrated by _short_mass.
    """
    total = below = 0.0
    if not any(weights):
        return total
    lo = 0.0
    for y, w in zip(payoff.levels, weights):
        mass = truncated_exp_moment_array(a, m, nu, math.log(y) - log_z) if y > 0.0 else 0.0
        if w != 0.0:
            if 0.0 < lo and y < math.inf and math.log(y / lo) <= _SHORT_BRANCH * nu:
                total = total + w * factor * _short_mass(a, m, nu, log_z, lo, y)
            else:
                total = total + w * factor * (mass - below)
        below, lo = mass, y
    return total


def _short_mass(a, m, nu, log_z, lo, hi):
    """dG_a between the levels lo <= hi of a short branch: the normal density
    integrated over the z-score interval the branch spans, by eight-point
    Gauss-Legendre."""
    width = math.log1p((hi - lo) / lo) / nu  # log(hi / lo) rounds by eps / 2
    start = (math.log(lo) - log_z - m) / nu - a * nu
    total = 0.0
    for s, w in GAUSS_LEGENDRE_8:
        total = total + w * std_normal_pdf_array(start + width * s)
    return math.exp(a * m + 0.5 * a * a * nu * nu) * width * total


def wealth(payoff: Payoff, t, z) -> np.ndarray:
    """Wealth x(t, z) that replicates the payoff, an array of the shape of z.

    x(t, z) = E[X(z Y) Y] with Y = z(T)/z(t), lognormal with log-moments
    (m, nu) of the remaining horizon, and branch k, where X = a_k + b_k z,
    contributes a_k dG_1 + b_k z dG_2 (see _branch_sum). Within TERMINAL_NU
    of the horizon the formula degenerates to the terminal payoff and that
    limit is returned.
    """
    z = np.asarray(z, dtype=float)
    mom = deflator_moments(payoff.model, t)
    if mom.nu < TERMINAL_NU:
        return terminal_wealth(payoff, z)
    with np.errstate(divide="ignore"):
        log_z = np.log(z)
    lows, slopes = _lines(payoff)
    constants = [s - b * lo for lo, s, b in zip(lows, payoff.starts, slopes)]
    flat = _branch_sum(payoff, 1.0, mom.m, mom.nu, log_z, constants, 1.0)
    return flat + _branch_sum(payoff, 2.0, mom.m, mom.nu, log_z, slopes, z)


def policy_scale(payoff: Payoff, t, z) -> np.ndarray:
    """Scalar factor -z dx/dz of the policy, an array of the shape of z.

    In closed form,

        -z dx/dz = (c1 / nu) sum_k J_k phi(u_k - nu) - z sum_k b_k dG_2

    where J_k is the downward jump of X at the finite level y_k, the end of
    branch k (its start if empty) less the start of the next, b_k its slope,
    c1 = e^{m + nu^2 / 2} and u_k = (ln(y_k / z) - m) / nu. Raises
    PolicyUndefinedAtTerminal once the remaining volatility is below
    TERMINAL_NU.
    """
    z = np.asarray(z, dtype=float)
    mom = deflator_moments(payoff.model, t)
    m, nu = mom.m, mom.nu
    if nu < TERMINAL_NU:
        raise PolicyUndefinedAtTerminal(
            f"policy has no limit at t = {t} (remaining nu = {nu:.2e})"
        )
    with np.errstate(divide="ignore"):
        log_z = np.log(z)
    lows, slopes = _lines(payoff)
    nexts = (*payoff.starts[1:], 0.0)
    jumps = np.zeros_like(z)
    for lo, y, start, end, nxt in zip(lows, payoff.levels, payoff.starts, payoff.ends, nexts):
        if 0.0 < y < math.inf:  # phi vanishes at y = 0
            jump = (end if lo < y else start) - nxt
            u = (math.log(y) - log_z - m) / nu
            jumps = jumps + jump * std_normal_pdf_array(u - nu)
    scale = (math.exp(m + 0.5 * nu * nu) / nu) * jumps
    return scale - _branch_sum(payoff, 2.0, m, nu, log_z, slopes, z)


def policy(payoff: Payoff, t, z):
    """Dollar allocation pi(t, z) to the risky assets, shape z.shape + (n,).

    Every policy of a deterministic market has one shape: the scalar
    `policy_scale` -z dx/dz times the direction (sigma sigma')^{-1}(mu - r 1)
    of the segment holding t. Raises PolicyUndefinedAtTerminal once the
    remaining volatility is below TERMINAL_NU.
    """
    scale = policy_scale(payoff, t, z)
    direction = gram_inverse_excess(payoff.model, t)
    # filled column by column: the same products as an outer product, in a
    # quarter of its time
    out = np.empty(scale.shape + (len(direction),))
    for j, weight in enumerate(direction):
        np.multiply(scale, weight, out=out[..., j])
    return out


def feedback_curve(payoff: Payoff, t, z_grid) -> FeedbackCurve:
    """Wealth/policy/weight rows over a z grid, sorted by wealth.

    Weights are pi / x per asset (NaN where x is zero). A monotonicity
    warning is flagged when x(t, .) is not strictly decreasing in z on the
    grid, since only then is the policy a function of wealth.
    """
    z = np.asarray(z_grid, dtype=float).ravel()
    if z.size and np.any(np.diff(z) <= 0.0):
        raise ValueError("z_grid must be strictly ascending")
    x = np.atleast_1d(wealth(payoff, t, z))
    pi = np.atleast_2d(policy(payoff, t, z))
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
