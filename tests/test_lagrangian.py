"""The reported multipliers against the envelope theorem, through objective
values at nearby inputs only.

The mean-LPM problem minimizes V = E[((gamma - X)+)^q] subject to E[X] >= d
and E[z(T) X] <= x0. Where both constraints bind (the Regular case), the
envelope theorem gives the multipliers as the value's sensitivities:
dV/dd = lam (`multipliers.mean`) and dV/dx0 = -eta (`multipliers.budget`).

Mean-CVaR is alpha* + V(xbar - alpha*) / (1 - beta), V the optimal q = 1
shortfall of the embedded problem at benchmark xbar - alpha*. alpha* is a
minimizer and the safe level xbar does not depend on d, so
dCVaR/dd = lam / (1 - beta), lam the embedded solution's mean multiplier.

Mean-variance minimizes E[X^2] subject to E[X] = d and E[z(T) X] = x0 over
X >= 0. The Lagrangian E[X^2] - lam (E[X] - d) + eta (E[z X] - x0) is
minimized pointwise by X* = (lam - eta z)+ / 2, the payoff `meanvar` solves
for, so dE[X*^2]/dd = lam (`mean`) and dE[X*^2]/dx0 = -eta (`budget`).

Central differences at relative step 1e-6 check the identities. No residual
of the solver enters, so a multiplier reported off by a factor 1 + 1e-6
fails here even where every constraint holds.

The constraint sets give the shape checks. A larger cap B only adds
payoffs, so V does not rise and d_upper does not fall with B. A larger d
only removes payoffs, so V rises in d, and as the value of a convex
problem in its constraint level it is convex in d for q >= 1 and for CVaR.
For q < 1 the shortfall is not convex and no convexity is asserted.
"""
import math

import numpy as np
import pytest

from capfolio import cvar, lpm, meanvar

STEP = 1e-6  # relative step of the central differences
LPM_TOL = 1e-8  # worst error measured: 2.6e-10 (q = 2, d = 1.3)
CVAR_TOL = 3e-7  # worst error measured: 3.0e-8 (beta = 0.99, d = 11)
MV_TOL = 1e-8  # worst error measured: 9.8e-10 (dx0, d = 2.5)
GAMMA = math.exp(0.06)


def _central(value, at):
    h = STEP * at
    return (value(at + h) - value(at - h)) / (2.0 * h)


@pytest.mark.parametrize("d", [1.1, 1.3, 1.6])
@pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 2.0])
def test_lpm_multipliers_are_the_value_sensitivities(example1, q, d):
    def solve(x0=1.0, target=d):
        problem = lpm.LpmProblem(x0=x0, d=target, gamma=GAMMA, cap=10.0, q=q, horizon=1.0)
        return lpm.solve_lpm(problem, example1)

    mult = solve().multipliers
    assert mult.case == lpm.REGULAR
    dv_dd = _central(lambda target: solve(target=target).objective_value, d)
    dv_dx0 = _central(lambda x0: solve(x0=x0).objective_value, 1.0)
    assert dv_dd == pytest.approx(mult.mean, rel=LPM_TOL)
    assert -dv_dx0 == pytest.approx(mult.budget, rel=LPM_TOL)


@pytest.mark.parametrize("d", [11.0, 12.0, 13.0])
@pytest.mark.parametrize("beta", [0.9, 0.95, 0.99])
def test_cvar_mean_multiplier_is_the_value_sensitivity(example2, beta, d):
    def solve(target):
        problem = cvar.CvarProblem(x0=10.0, d=target, cap=100.0, beta=beta, horizon=1.0)
        return cvar.solve_cvar(problem, example2)

    mult = solve(d).policy.multipliers
    assert mult.case == lpm.REGULAR
    dcvar_dd = _central(lambda target: solve(target).cvar, d)
    assert dcvar_dd == pytest.approx(mult.mean / (1.0 - beta), rel=CVAR_TOL)


@pytest.mark.parametrize("d", [1.1, 1.3, 1.6, 2.5])
def test_mv_multipliers_are_the_second_moment_sensitivities(example1, d):
    def second_moment(x0=1.0, target=d):
        mult = meanvar.solve_mv(meanvar.MvProblem(x0=x0, d=target, horizon=1.0), example1)
        return meanvar.mv_second_moment(mult, example1)

    mult = meanvar.solve_mv(meanvar.MvProblem(x0=1.0, d=d, horizon=1.0), example1)
    assert _central(lambda target: second_moment(target=target), d) == pytest.approx(
        mult.mean, rel=MV_TOL
    )
    assert -_central(lambda x0: second_moment(x0=x0), 1.0) == pytest.approx(
        mult.budget, rel=MV_TOL
    )


@pytest.mark.parametrize("q", [1.0, 2.0])
def test_lpm_value_falls_and_d_upper_rises_with_the_cap(example1, q):
    values, uppers = [], []
    for k in range(20):
        problem = lpm.LpmProblem(x0=1.0, d=1.3, gamma=GAMMA, cap=2.0 * 1.25**k, q=q, horizon=1.0)
        values.append(lpm.solve_lpm(problem, example1).objective_value)
        uppers.append(lpm.d_bounds(problem, example1)[1])
    assert np.all(np.diff(values) <= 0.0)
    assert np.all(np.diff(uppers) >= 0.0)


def _interior(lo, hi, n):
    """n evenly spaced points strictly inside (lo, hi)."""
    return [lo + (hi - lo) * (i + 1) / (n + 1) for i in range(n)]


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 2.0])
def test_lpm_value_rises_in_d_and_is_convex_for_q_at_least_1(example1, q):
    # smallest differences measured: first 8.9e-5, second 8.8e-5 (q = 2)
    def problem(d):
        return lpm.LpmProblem(x0=1.0, d=d, gamma=GAMMA, cap=10.0, q=q, horizon=1.0)

    grid = _interior(*lpm.d_bounds(problem(1.3), example1), 60)
    values = [lpm.solve_lpm(problem(d), example1).objective_value for d in grid]
    assert np.all(np.diff(values) > 0.0)
    if q >= 1.0:
        assert np.all(np.diff(values, 2) > 0.0)


@pytest.mark.parametrize("beta", [0.9, 0.95, 0.99])
def test_cvar_rises_in_d_and_is_convex(example2, beta):
    # the grid spans (safe level, d_upper); smallest second difference
    # measured: 8.3e-3 (beta = 0.99)
    def problem(d):
        return cvar.CvarProblem(x0=10.0, d=d, cap=100.0, beta=beta, horizon=1.0)

    # d_upper is the mean of the cap branch alone, whatever the benchmark
    embedded = lpm.LpmProblem(x0=10.0, d=11.0, gamma=100.0, cap=100.0, q=1.0, horizon=1.0)
    d_upper = lpm.d_bounds(embedded, example2)[1]
    grid = _interior(cvar.safe_level(problem(11.0), example2), d_upper, 40)
    values = [cvar.solve_cvar(problem(d), example2).cvar for d in grid]
    assert np.all(np.diff(values) > 0.0)
    assert np.all(np.diff(values, 2) > 0.0)
