"""Check-only references that no command runs, kept beside the tests that use them.

J'(alpha), the slope of the mean-CVaR objective
J(alpha) = alpha + V(xbar - alpha) / (1 - beta), with V(gamma) the optimal
shortfall E[(gamma - X*)_+] of the embedded q=1 instance, follows from the
envelope theorem: J' = 1 - V'(gamma) / (1 - beta), and J' = 1 where that
instance is DegenerateRich or alpha is at or above the safe level.
"""
from __future__ import annotations

from capfolio import cvar, lpm
from capfolio.kernels import partial_moment_H


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
