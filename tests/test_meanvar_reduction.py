"""Mean-variance multipliers by the 1-D reduction in the truncation point,
on a market steep enough to break a 2-D Newton on (ln lam, ln eta)."""
import numpy as np
import pytest

from capfolio import meanvar, surface
from capfolio.errors import SolverDiverged
from capfolio.kernels import partial_moment_H
from capfolio.market import deflator_context, expected_deflator, market_from_config, validate_market

import markets
from reference import mv_oracle

STRESS = market_from_config(markets.STRESS)  # Sharpe ratio 2.9


def _solve(d, market=STRESS):
    return meanvar.solve_mv(meanvar.MvProblem(x0=1.0, d=d, horizon=1.0), market)


def test_stress_market_grid_solves():
    # a 2-D Newton overflowed math.exp on 24 of these 200 targets, at d near
    # 4.5-7.7 and 16.7-17.9
    ctx = deflator_context(STRESS, STRESS.horizon)
    for d in np.linspace(1.0, 40.0, 200)[1:]:  # d = 1 is below x0 / E[z]
        mult = _solve(float(d))
        cut = mult.mean / mult.budget
        h0, h1 = (partial_moment_H(ctx, p, cut) for p in (0.0, 1.0))
        assert 0.5 * (mult.mean * h0 - mult.budget * h1) == pytest.approx(d, rel=1e-10)
        # the budget through the wealth surface at t = 0, z = 1
        assert float(surface.wealth(meanvar.mv_payoff(mult, STRESS), 0.0, 1.0)) == pytest.approx(1.0, rel=1e-10)


def test_unrepresentable_truncation_point_raises(example1):
    # d = 1e12 puts lam / eta near 1e-12, far below where E[(delta - z)+]
    # underflows on this market; the solve reports it instead of dividing by 0
    assert _solve(1e6, example1).budget > 1e268
    with pytest.raises(SolverDiverged):
        _solve(1e12, example1)


def test_target_just_above_riskfree_growth_solves(example1):
    # the untruncated end (E[z^2] - E[z] x0/d) / (E[z] - x0/d) cancels as d
    # nears x0 e^{rT} = 1.0618365; its gap rounded to -1.1e-16 at d = 1.06201
    ctx = deflator_context(example1, example1.horizon)
    for d in (1.06201, 1.061862, 1.062449):
        mult = _solve(d, example1)
        cut = mult.mean / mult.budget
        h0, h1, h2 = (partial_moment_H(ctx, p, cut) for p in (0.0, 1.0, 2.0))
        assert 0.5 * (mult.mean * h0 - mult.budget * h1) == pytest.approx(d, rel=1e-10)
        assert 0.5 * (mult.mean * h1 - mult.budget * h2) == pytest.approx(1.0, rel=1e-10)


def test_multiplier_overflow_names_its_cause():
    # the root lies where E[(delta - z)+] is subnormal, so eta = 2d / E[...]
    # overflows and lam / eta was NaN
    horizon = 0.294
    low_vol = validate_market(horizon, -0.0034, 0.0105, 0.183)
    with pytest.raises(SolverDiverged, match="multipliers overflow"):
        meanvar.solve_mv(meanvar.MvProblem(x0=1.0, d=4.708, horizon=horizon), low_vol)


#: forward error of lam and eta against the 40-digit root, in units of eps kappa
ORACLE_C = 4.0


def test_forward_error_against_the_oracle(example1, example2):
    # kappa (reference.mv_oracle) grows like 2 / excess toward the risk-free
    # growth, where the root's weighted mean flattens
    pytest.importorskip("mpmath")
    worst = 0.0
    for model in (example1, example2, STRESS):
        ctx = deflator_context(model, model.horizon)
        for excess in (1e-6, 1e-3, 0.1, 0.5):
            d = (1.0 + excess) / expected_deflator(model, 0.0, model.horizon)
            mult = meanvar.solve_mv(meanvar.MvProblem(x0=1.0, d=d, horizon=model.horizon), model)
            lam, eta, kappa = mv_oracle(ctx, 1.0, d)
            error = max(float(abs(mult.mean / lam - 1)), float(abs(mult.budget / eta - 1)))
            worst = max(worst, error / (np.finfo(float).eps * kappa))
    print(f"worst forward error / (eps kappa) = {worst:.3f}, C = {ORACLE_C}")
    assert worst <= ORACLE_C
