"""Check-only references that no command runs, kept beside the tests that use them.

`mv_oracle` solves the mean-variance reduction E_w[z] = x0/d to 40 digits
with mpmath, on the same float law (m0, nu0) of ln z(T) the solve reads.

J'(alpha), the slope of the mean-CVaR objective
J(alpha) = alpha + V(xbar - alpha) / (1 - beta), with V(gamma) the optimal
shortfall E[(gamma - X*)_+] of the embedded q=1 instance, follows from the
envelope theorem: J' = 1 - V'(gamma) / (1 - beta), and J' = 1 where that
instance is DegenerateRich or alpha is at or above the safe level.
"""
from __future__ import annotations

from capfolio import cvar, lpm
from capfolio.kernels import PartialMomentContext, partial_moment_H


def shortfall_slope(sol: lpm.PolicySolution) -> float:
    """dV/dgamma of the optimal shortfall V(gamma) = E[(gamma - X*)_+].

    Envelope theorem on the q=1 Lagrangian: the tail {z > h} pays 1 per
    unit of gamma, and the middle branch X* = gamma on {delta < z <= h}
    shifts the mean and budget constraints, priced by lam and eta.
    """
    if sol.multipliers.case == lpm.DEGENERATE_RICH:
        return 0.0
    ctx = sol.context
    lo, hi = sol.delta, sol.delta + sol.rho
    h0_lo, h1_lo, h0_hi, h1_hi = (
        partial_moment_H(ctx, p, y) for y in (lo, hi) for p in (0.0, 1.0)
    )
    lam, eta = sol.multipliers.mean, sol.multipliers.budget
    return 1.0 - h0_hi + eta * (h1_hi - h1_lo) - lam * (h0_hi - h0_lo)


def j_derivative(problem: cvar.CvarProblem, model, alpha) -> float:
    """Exact J'(alpha) from the embedded solution (`shortfall_slope`).

    The embedded instance is the one `cvar.j_value` solves: benchmark
    gamma = xbar - alpha, clamped to the cap.  Raises TargetTooHigh when the
    mean target is unattainable.
    """
    alpha = float(alpha)
    xbar = cvar.safe_level(problem, model)
    if alpha >= xbar:
        return 1.0
    embedded = lpm.LpmProblem(
        x0=problem.x0,
        d=problem.d,
        gamma=min(xbar - alpha, problem.cap),
        cap=problem.cap,
        q=1.0,
        horizon=problem.horizon,
    )
    sol = lpm.solve_lpm(embedded, model)
    return 1.0 - shortfall_slope(sol) * (1.0 / (1.0 - problem.beta))


def mv_oracle(ctx: PartialMomentContext, x0: float, d: float):
    """40-digit (lam, eta, kappa) of the mean-variance multipliers.

    The root in u = ln delta of E_w[z] = (delta H_1 - H_2) / S = x0/d, with
    S = delta H_0 - H_1 = E[(delta - z)+], bracketed as `meanvar.solve_mv`
    brackets it; then eta = 2d / S and lam = delta eta.  kappa is the
    first-order relative condition of (lam, eta) on relative errors of the
    H_p: they reach E_w through the cancellations in its numerator N and in
    S, then delta through the 1-D slope dE_w/du = delta (H_0 H_2 - H_1^2) / S^2,
    and lam and eta through d ln eta / d ln delta = delta H_0 / S, so

        kappa = (delta H_0 / S) (1 + (delta H_1 / N + delta H_0 / S) E_w / (dE_w/du)).
    """
    import mpmath

    with mpmath.workdps(40):
        m0, nu0 = mpmath.mpf(ctx.m0), mpmath.mpf(ctx.nu0)
        ratio = mpmath.mpf(x0) / mpmath.mpf(d)

        def moments(u):  # H_0, H_1, H_2 at delta = e^u
            return [
                mpmath.exp(p * m0 + p * p * nu0 * nu0 / 2) * mpmath.ncdf((u - m0) / nu0 - p * nu0)
                for p in (0, 1, 2)
            ]

        def gap(u):
            h0, h1, h2 = moments(u)
            delta = mpmath.exp(u)
            return (delta * h1 - h2) / (delta * h0 - h1) - ratio

        a_mom, c_mom = mpmath.exp(m0 + nu0 * nu0 / 2), mpmath.exp(2 * m0 + 2 * nu0 * nu0)
        top = 700 - max(0, mpmath.log(a_mom))
        hi = min(mpmath.log(2 * (c_mom - a_mom * ratio) / (a_mom - ratio)), top)
        u = mpmath.findroot(gap, (mpmath.log(ratio), hi), solver="anderson")
        delta, (h0, h1, h2) = mpmath.exp(u), moments(u)
        below, above = delta * h0 - h1, delta * h1 - h2
        eta = 2 * mpmath.mpf(d) / below
        slope = delta * (h0 * h2 - h1 * h1) / below**2
        scale = delta * h0 / below
        kappa = scale * (1 + (delta * h1 / above + scale) * (ratio / slope))
        return delta * eta, eta, float(kappa)
