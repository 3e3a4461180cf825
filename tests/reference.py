"""Check-only references that no command runs, kept beside the tests that use them.

`expect` integrates under example 1's law of z(T) by adaptive quadrature.

`mv_oracle` solves the mean-variance reduction E_w[z] = x0/d, and
`cvar_oracle` the mean-CVaR reduction, to 40 digits with mpmath, on the same
float law (m0, nu0) of ln z(T) the solves read.

J'(alpha), the slope of the mean-CVaR objective
J(alpha) = alpha + V(xbar - alpha) / (1 - beta), with V(gamma) the optimal
shortfall E[(gamma - X*)_+] of the embedded q=1 instance, follows from the
envelope theorem: J' = 1 - V'(gamma) / (1 - beta), and J' = 1 where that
instance is DegenerateRich or alpha is at or above the safe level.
"""
from __future__ import annotations

import math

from scipy.integrate import quad

from capfolio import cvar, lpm
from capfolio.kernels import PartialMomentContext, partial_moment_H


#: ln z(T) ~ N(M0, NU0^2) on example 1: m0 = -(r + theta^2 / 2) T, nu0 = theta sqrt(T)
M0, NU0 = -0.14, 0.4


def expect(g, kinks=()):
    """E[g(z)] under ln z ~ N(M0, NU0^2) by adaptive quadrature.

    `kinks` lists z levels where the integrand may lose smoothness; they are
    mapped to the standardized axis and handed to quad as split points.
    """
    pts = sorted(
        (math.log(k) - M0) / NU0 for k in kinks if k > 0.0 and math.isfinite(k)
    )
    val, err = quad(
        lambda u: g(math.exp(M0 + NU0 * u))
        * math.exp(-0.5 * u * u)
        / math.sqrt(2.0 * math.pi),
        -14.0,
        14.0,
        limit=500,
        points=[p for p in pts if -14.0 < p < 14.0] or None,
    )
    assert err < 5e-8
    return val


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


def cvar_oracle(ctx: PartialMomentContext, problem: cvar.CvarProblem, xbar: float):
    """40-digit (alpha, delta, kappa) of the mean-CVaR reduction's root.

    The reduction of `cvar._reduction`, with dH_p = H_p(delta + rho) - H_p(delta).
    At the cap threshold delta the width rho of the sloped branch solves

        R = ((delta + rho) dH_0 - dH_1) / rho - (beta - H_0(delta)) = 0

    in ln rho, bracketed as `lpm.branch_width` brackets it for p = 0: from
    the flat width delta_beta - delta, H_0(delta_beta) = beta, to
    (H_0^{-1}((1 + beta) / 2) - delta) / s with s = (1 - beta) / (1 + beta - 2 H_0(delta)).
    The mean gap G = B H_0(delta) + (x0 - B H_1(delta)) dH_0 / dH_1 - d is
    solved in delta on [0, min(delta_beta, delta_bar)], H_1(delta_bar) = x0/B,
    and alpha = xbar - gamma with gamma = (x0 - B H_1(delta)) / dH_1.  Only
    an interior root below delta_bar < delta_beta is covered, G(0) < 0 and
    gamma < B, as on every criterion-07 cell; elsewhere ValueError.

    kappa is the first-order relative condition of alpha on relative errors
    e of the four partial moments the reduction reads, a_p = H_p(delta) and
    b_p = H_p(delta + rho), plus 1 for the rounding of xbar - gamma.  With
    x = (ln delta, ln rho) and F = (R, G), dx/de = -(dF/dx)^{-1} dF/de, so

        kappa = 1 + sum_e |dgamma/de| / |alpha|,
        dgamma/de = (dgamma/dx)(dx/de) + (partial dgamma/de at fixed x),

    with every partial derivative taken by `mpmath.diff` at 40 digits.
    """
    import mpmath

    with mpmath.workdps(40):
        mpf = mpmath.mpf
        m0, nu0 = mpf(ctx.m0), mpf(ctx.nu0)
        x0, d, cap, beta = (mpf(v) for v in (problem.x0, problem.d, problem.cap, problem.beta))
        mean = mpmath.exp(m0 + nu0 * nu0 / 2)

        def moments(y):  # (H_0(y), H_1(y))
            if y <= 0:
                return mpf(0), mpf(0)
            x = (mpmath.log(y) - m0) / nu0
            return mpmath.ncdf(x), mean * mpmath.ncdf(x - nu0)

        def level(p, frac):  # y with H_p(y) = frac H_p(inf)
            return mpmath.exp(m0 + nu0 * (mpmath.sqrt(2) * mpmath.erfinv(2 * frac - 1) + p * nu0))

        def equations(delta, rho, a, b):  # (R, G, gamma), a = moments(delta), b at delta + rho
            ramp = ((delta + rho) * (b[0] - a[0]) - (b[1] - a[1])) / rho
            spare = x0 - cap * a[1]
            gamma = spare / (b[1] - a[1])
            return ramp - (beta - a[0]), cap * a[0] + gamma * (b[0] - a[0]) - d, gamma

        delta_beta = level(0, beta)

        def width(delta):
            a = moments(delta)
            s = (1 - beta) / (1 + beta - 2 * a[0])
            ends = (delta_beta - delta, (level(0, (1 + beta) / 2) - delta) / s)

            def ramp_gap(v):
                rho = mpmath.exp(v)
                return equations(delta, rho, a, moments(delta + rho))[0]

            bracket = [mpmath.log(end) for end in ends]
            return mpmath.exp(mpmath.findroot(ramp_gap, bracket, solver="anderson"))

        def point(delta):
            rho = width(delta)
            return rho, equations(delta, rho, moments(delta), moments(delta + rho))

        delta_bar = level(1, x0 / (cap * mean))
        if not (delta_bar < delta_beta and point(mpf(0))[1][1] < 0):
            raise ValueError("the root is not interior to the reduction's bracket")
        delta = mpmath.findroot(lambda y: point(y)[1][1], (mpf(0), delta_bar), solver="anderson")
        rho, (_, _, gamma) = point(delta)
        if not gamma < cap:
            raise ValueError("gamma reaches the cap")

        def perturbed(k, u, v, *e):  # equation k with the moments scaled by 1 + e
            lo, hi = moments(mpmath.exp(u)), moments(mpmath.exp(u) + mpmath.exp(v))
            scaled = [m * (1 + ej) for m, ej in zip((*lo, *hi), e)]
            return equations(mpmath.exp(u), mpmath.exp(v), scaled[:2], scaled[2:])[k]

        at = (mpmath.log(delta), mpmath.log(rho), 0, 0, 0, 0)
        jac = mpmath.matrix([
            [mpmath.diff(lambda *x: perturbed(k, *x), at, tuple(int(j == i) for j in range(6)))
             for i in range(6)]
            for k in range(3)
        ])
        dx = -mpmath.inverse(jac[0:2, 0:2]) * jac[0:2, 2:6]
        dgamma = [jac[2, 0] * dx[0, j] + jac[2, 1] * dx[1, j] + jac[2, 2 + j] for j in range(4)]
        alpha = mpf(xbar) - gamma
        return alpha, delta, float(1 + sum(abs(g) for g in dgamma) / abs(alpha))
