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

Central differences at relative step 1e-6 check both identities. No residual
of the solver enters, so a multiplier reported off by a factor 1 + 1e-6
fails here even where every constraint holds.
"""
import math

import pytest

from capfolio import cvar, lpm

STEP = 1e-6  # relative step of the central differences
LPM_TOL = 1e-8  # worst error measured: 2.6e-10 (q = 2, d = 1.3)
CVAR_TOL = 3e-7  # worst error measured: 3.0e-8 (beta = 0.99, d = 11)


def _central(value, at):
    h = STEP * at
    return (value(at + h) - value(at - h)) / (2.0 * h)


@pytest.mark.parametrize("d", [1.1, 1.3, 1.6])
@pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 2.0])
def test_lpm_multipliers_are_the_value_sensitivities(example1, q, d):
    def solve(x0=1.0, target=d):
        problem = lpm.LpmProblem(
            x0=x0, d=target, gamma=math.exp(0.06), cap=10.0, q=q, horizon=1.0
        )
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
