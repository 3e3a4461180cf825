"""Mean-variance solver: frozen multipliers, moment identities, policy FD."""
import functools
import math

import numpy as np
import pytest

from capfolio import meanvar, solvers, surface
from capfolio.errors import DomainError, NoSignChange, SolverDiverged
from capfolio.market import deflator_context, validate_market

from reference import expect

# Multiplier pair for x0=1, d=1.3 on the calibrated single-asset market,
# frozen from the independent probe of the 2x2 moment system.
FROZEN_LAM = 5.769441
FROZEN_ETA = 3.424116
FROZEN_EX2 = 2.0380790045121486
FROZEN_VARIANCE = 0.34807900451214846


def _problem(d=1.3, x0=1.0):
    return meanvar.MvProblem(x0=x0, d=d, horizon=1.0)


def test_multipliers_match_frozen_probe(example1):
    mult = meanvar.solve_mv(_problem(), example1)
    assert mult.mean == pytest.approx(FROZEN_LAM, abs=2e-6)
    assert mult.budget == pytest.approx(FROZEN_ETA, abs=2e-6)
    assert mult.case == meanvar.MEAN_VARIANCE


def test_root_takes_three_partial_moments_per_evaluation(example1, monkeypatch):
    # each root evaluation takes H_0, H_1 and H_2 once, and the solve adds
    # E[z^2], E[(delta - z)+] at the root and the three of the residuals
    orders = []
    kernel = meanvar.partial_moment_H

    def counted(ctx, p, y):
        orders.append(p)
        return kernel(ctx, p, y)

    monkeypatch.setattr(meanvar, "partial_moment_H", counted)
    meanvar.solve_mv(_problem(), example1)
    assert [orders.count(p) for p in (0.0, 1.0, 2.0)] == [13, 13, 13]


def test_constraints_hold_by_quadrature(example1):
    mult = meanvar.solve_mv(_problem(), example1)
    pay = meanvar.mv_payoff(mult, example1)
    cut = mult.mean / mult.budget
    mean = expect(lambda z: surface.terminal_wealth(pay, z), (cut,))
    budget = expect(lambda z: z * surface.terminal_wealth(pay, z), (cut,))
    assert mean == pytest.approx(1.3, abs=1e-8)
    assert budget == pytest.approx(1.0, abs=1e-8)


def test_second_moment_and_variance(example1):
    mult = meanvar.solve_mv(_problem(), example1)
    assert meanvar.mv_second_moment(mult, example1) == pytest.approx(
        FROZEN_EX2, rel=1e-8
    )
    assert meanvar.mv_second_moment(mult, example1) - 1.3 * 1.3 == pytest.approx(
        FROZEN_VARIANCE, rel=1e-8
    )
    cut = mult.mean / mult.budget
    pay = meanvar.mv_payoff(mult, example1)
    want = expect(lambda z: surface.terminal_wealth(pay, z) ** 2, (cut,))
    assert meanvar.mv_second_moment(mult, example1) == pytest.approx(want, abs=1e-8)


def test_terminal_payoff_formula(example1):
    mult = meanvar.solve_mv(_problem(), example1)
    lam, eta = mult.mean, mult.budget
    z = np.array([0.2, 1.0, lam / eta, lam / eta + 0.5, 10.0])
    pay = meanvar.mv_payoff(mult, example1)
    x = surface.terminal_wealth(pay, z)
    np.testing.assert_allclose(
        x, np.maximum(0.5 * (lam - eta * z), 0.0), rtol=1e-15
    )
    assert x[-1] == 0.0
    assert surface.terminal_wealth(pay, 0.5) == 0.5 * (lam - eta * 0.5)


def test_wealth_at_start_recovers_budget(example1):
    mult = meanvar.solve_mv(_problem(), example1)
    pay = meanvar.mv_payoff(mult, example1)
    assert surface.wealth(pay, 0.0, 1.0) == pytest.approx(
        1.0, abs=1e-10
    )


def test_wealth_approaches_terminal_payoff(example1):
    mult = meanvar.solve_mv(_problem(), example1)
    z = np.array([0.4, 1.0, 2.5])
    pay = meanvar.mv_payoff(mult, example1)
    near = surface.wealth(pay, 1.0 - 1e-9, z)
    np.testing.assert_allclose(near, surface.terminal_wealth(pay, z), atol=1e-9)


def test_wealth_vanishes_for_large_z(example1):
    mult = meanvar.solve_mv(_problem(), example1)
    pay = meanvar.mv_payoff(mult, example1)
    assert surface.wealth(pay, 0.5, 1e4) <= 1e-8
    assert surface.wealth(pay, 0.5, 1e4) >= 0.0


@pytest.mark.parametrize("t", [0.2, 0.5, 0.8])
def test_policy_matches_finite_difference(example1, t):
    mult = meanvar.solve_mv(_problem(), example1)
    z = np.geomspace(0.1, 4.0, 50)
    h = 1e-6
    pay = meanvar.mv_payoff(mult, example1)
    xm = surface.wealth(pay, t, z * (1.0 - h))
    xp = surface.wealth(pay, t, z * (1.0 + h))
    dxdz = (xp - xm) / (2.0 * h * z)
    want = -z * dxdz * 0.06 / 0.15**2
    got = surface.policy(pay, t, z)[:, 0]
    np.testing.assert_allclose(got, want, rtol=2e-6, atol=2e-8)


def test_policy_shape_for_scalar_and_vector(example1):
    mult = meanvar.solve_mv(_problem(), example1)
    pay = meanvar.mv_payoff(mult, example1)
    assert surface.policy(pay, 0.5, 1.0).shape == (1,)
    assert surface.policy(pay, 0.5, np.ones(7)).shape == (7, 1)


def test_target_must_beat_riskfree_growth(example1):
    # x0 e^{rT} = e^{0.06}: targets at or below that are rejected
    with pytest.raises(DomainError):
        meanvar.solve_mv(_problem(d=1.0), example1)
    with pytest.raises(DomainError):
        meanvar.solve_mv(_problem(d=math.exp(0.06)), example1)
    mult = meanvar.solve_mv(_problem(d=math.exp(0.06) + 1e-4), example1)
    assert mult.budget > 0.0


@pytest.mark.parametrize(
    "theta_sq_t, d", [(700.0, 1.000001), (708.0, 1.001), (709.7, 1.0 + 1e-15)]
)
def test_overflowing_upper_bracket_is_clamped(theta_sq_t, d):
    # theta^2 T near the top of the float range: the closed-form upper end
    # 2 (E[z^2] - E[z] x0/d) / (E[z] - x0/d) overflows, and the gap there
    # is NaN; the root itself lies far below the clamp
    model = validate_market(20.0, 0.0, 0.1 * math.sqrt(theta_sq_t / 20.0), 0.1)
    mult = meanvar.solve_mv(meanvar.MvProblem(x0=1.0, d=d, horizon=20.0), model)
    assert 300.0 < math.log(mult.mean / mult.budget) < 650.0
    ctx = deflator_context(model, model.horizon)
    assert all(abs(r) <= 1e-8 for r in meanvar._residuals(ctx, 1.0, d, mult.mean, mult.budget))


@pytest.mark.parametrize("x0", [1.0, 10.0, 78.52627118638533])
def test_closed_form_end_lost_to_rounding_takes_the_clamp(x0):
    # a Sharpe ratio of 1e-12 leaves E[z^2] within rounding of E[z]^2, so on
    # the first floats above the floor E[z] x0/d can round to E[z^2] or above:
    # the log of the closed-form upper end raised ValueError (outside the
    # raise set) before it took the clamp; a solve or SolverDiverged passes
    model = validate_market(1.0, 0.05, 0.05 + 2e-13, 0.2)
    d = x0 / deflator_context(model, 1.0).mean
    for _ in range(5):
        d = math.nextafter(d, math.inf)
        try:
            meanvar.solve_mv(meanvar.MvProblem(x0=x0, d=d, horizon=1.0), model)
        except SolverDiverged:
            pass


def test_variance_grows_with_target(example1):
    targets = [1.15, 1.3, 1.5, 1.8]
    variances = [
        meanvar.mv_second_moment(meanvar.solve_mv(_problem(d=d), example1), example1) - d * d
        for d in targets
    ]
    assert all(v > 0.0 for v in variances)
    assert all(b > a for a, b in zip(variances, variances[1:]))


@pytest.mark.parametrize(
    "kwargs", [{"x0": 0.0}, {"x0": -1.0}, {"d": 0.0}, {"horizon": 0.0}]
)
def test_problem_validation(kwargs):
    base = dict(x0=1.0, d=1.3, horizon=1.0)
    base.update(kwargs)
    with pytest.raises(DomainError):
        meanvar.MvProblem(**base)


def test_residuals_above_the_gate_are_solver_diverged(example1, monkeypatch):
    # a NaN in either residual fails the gate too: max(0.0, nan) is 0.0
    for residuals in ((1e-7, 0.0), (0.0, math.nan), (math.nan, 0.0)):
        monkeypatch.setattr(meanvar, "_residuals", lambda *args: residuals)
        with pytest.raises(SolverDiverged, match="stalled at residuals"):
            meanvar.solve_mv(meanvar.MvProblem(x0=1.0, d=1.3, horizon=1.0), example1)


def _raises_no_sign_change(*args, **kwargs):
    raise NoSignChange("injected")


@pytest.mark.parametrize(
    "root, message",
    [
        (_raises_no_sign_change, "root failed"),
        (functools.partial(solvers.find_root_1d, max_iter=1), "no root after 1 iterations"),
    ],
    ids=["NoSignChange", "spent"],
)
def test_failed_root_is_solver_diverged(example1, monkeypatch, root, message):
    monkeypatch.setattr(meanvar, "find_root_1d", root)
    with pytest.raises(SolverDiverged, match=message):
        meanvar.solve_mv(meanvar.MvProblem(x0=1.0, d=1.3, horizon=1.0), example1)
