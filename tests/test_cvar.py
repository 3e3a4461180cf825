"""Mean-CVaR reduction: embedded shortfall family, exact J', one root for alpha*, frontier."""
import dataclasses
import functools
import math

import numpy as np
import pytest

from capfolio import cvar, lpm, market, solvers, surface
from capfolio.errors import CapfolioError, DomainError, SolverDiverged, TargetTooHigh

import reference

# Three-asset instance: x0=10, cap B=100, T=1 on the example2 market.
X0, CAP = 10.0, 100.0

# Frozen from the independent probe at (d=12, beta=0.95)
FROZEN_ALPHA = 0.235932
FROZEN_CVAR = 0.242288
FROZEN_EMBEDDED = (0.008962, 0.059872)

FROZEN_XBAR = 10.161287  # x0 e^{rT} at r=0.016
FROZEN_D_UPPER = 31.415302  # frozen independent-probe value

# Frozen frontier columns from the closed-form probe, d = 11.0 .. 13.0 step 0.2
FRONTIER_D = [11.0 + 0.2 * k for k in range(11)]
FRONTIER_90 = [
    0.0652, 0.0922, 0.1213, 0.1523, 0.1851, 0.2196,
    0.2557, 0.2933, 0.3325, 0.3731, 0.4151,
]
FRONTIER_95 = [
    0.0846, 0.1124, 0.1422, 0.1739, 0.2072, 0.2423,
    0.2789, 0.3171, 0.3567, 0.3978, 0.4403,
]


def _problem(d=12.0, beta=0.95, xbar=None):
    return cvar.CvarProblem(
        x0=X0, d=d, cap=CAP, beta=beta, horizon=1.0, xbar=xbar
    )


def test_safe_level(example2):
    assert cvar.safe_level(_problem(), example2) == pytest.approx(
        FROZEN_XBAR, abs=2e-6
    )
    # an explicit xbar overrides the risk-free default
    assert cvar.safe_level(_problem(xbar=11.0), example2) == 11.0


def test_solution_matches_frozen_probe(example2):
    sol = cvar.solve_cvar(_problem(), example2)
    assert sol.alpha_star == pytest.approx(FROZEN_ALPHA, abs=1e-5)
    assert sol.cvar == pytest.approx(FROZEN_CVAR, abs=1e-5)
    assert sol.xbar == pytest.approx(FROZEN_XBAR, abs=2e-6)
    assert sol.policy.multipliers.mean == pytest.approx(FROZEN_EMBEDDED[0], abs=1e-5)
    assert sol.policy.multipliers.budget == pytest.approx(
        FROZEN_EMBEDDED[1], abs=1e-5
    )
    assert sol.policy.multipliers.case == lpm.REGULAR


def test_cvar_decomposes_into_alpha_plus_scaled_shortfall(example2):
    prob = _problem()
    sol = cvar.solve_cvar(prob, example2)
    rebuilt = sol.alpha_star + sol.policy.objective_value / (1.0 - prob.beta)
    assert sol.cvar == pytest.approx(rebuilt, abs=1e-10)
    # the embedded benchmark is the safe level shifted down by alpha
    assert sol.policy.problem.gamma == pytest.approx(
        sol.xbar - sol.alpha_star, abs=1e-12
    )
    assert sol.policy.problem.q == 1.0


def test_budget_identity_of_embedded_policy(example2):
    sol = cvar.solve_cvar(_problem(), example2)
    assert surface.wealth(lpm.payoff(sol.policy), 0.0, 1.0) == pytest.approx(X0, abs=1e-8)
    assert lpm.expected_terminal_wealth(sol.policy) == pytest.approx(12.0, abs=1e-7)


@pytest.mark.parametrize(
    "alpha", [-20.0, -5.0, 0.0, FROZEN_ALPHA - 0.05, FROZEN_ALPHA + 0.05]
)
def test_derivative_matches_central_differences(example2, alpha):
    # covers the DegenerateLowTarget, Regular and DegenerateRich embedded cases
    prob = _problem()
    h = 1e-4
    central = (
        cvar.j_value(prob, example2, alpha + h) - cvar.j_value(prob, example2, alpha - h)
    ) / (2.0 * h)
    assert reference.j_derivative(prob, example2, alpha) == pytest.approx(
        central, rel=1e-6, abs=1e-6
    )


def test_derivative_is_one_where_j_is_linear(example2):
    # DegenerateRich embedded instances, then alpha beyond the safe level
    prob = _problem()
    for alpha in (1.0, 2.0, 5.0, FROZEN_XBAR + 1.0):
        assert reference.j_derivative(prob, example2, alpha) == 1.0


def _assert_alpha_star_minimizes(prob, model):
    sol = cvar.solve_cvar(prob, model)
    lo, hi = sol.xbar - prob.cap, sol.xbar
    assert cvar.j_value(prob, model, sol.alpha_star) == pytest.approx(sol.cvar, abs=1e-12)
    for scale in (1e-6, 1e-4, 1e-2):
        h = scale * sol.xbar
        for probe in (sol.alpha_star - h, sol.alpha_star + h):
            if lo <= probe <= hi:
                assert cvar.j_value(prob, model, probe) >= sol.cvar


@pytest.mark.parametrize("beta", [0.90, 0.95, 0.99])
@pytest.mark.parametrize("d", [11.0, 12.0, 13.0])
def test_alpha_star_minimizes_j(example2, beta, d):
    _assert_alpha_star_minimizes(_problem(d=d, beta=beta), example2)


@pytest.mark.parametrize("beta", [0.90, 0.99])
def test_alpha_star_minimizes_j_single_asset(example1, beta):
    # at beta = 0.99 the optimum sits on the jump of J' where the embedded
    # instance turns rich
    prob = cvar.CvarProblem(x0=1.0, d=1.2, cap=10.0, beta=beta, horizon=1.0)
    _assert_alpha_star_minimizes(prob, example1)


def test_j_value_convex_around_optimum(example2):
    prob = _problem()
    j_star = cvar.j_value(prob, example2, FROZEN_ALPHA)
    for off in (-0.1, -0.03, 0.03, 0.1):
        assert cvar.j_value(prob, example2, FROZEN_ALPHA + off) > j_star


def test_j_value_infinite_when_target_unattainable(example2):
    # the attainable-mean supremum does not move with alpha, so an
    # out-of-range target returns the sentinel at every alpha
    prob = _problem(d=32.0)
    assert cvar.j_value(prob, example2, 0.5) == math.inf
    assert cvar.j_value(prob, example2, 5.0) == math.inf


def test_j_linear_once_the_mean_constraint_goes_slack(example2):
    # larger alpha shrinks the benchmark, the embedded instance turns rich,
    # its shortfall objective hits zero, and J(alpha) = alpha exactly
    prob = _problem()
    for alpha in (1.0, 2.0, 5.0):
        assert cvar.j_value(prob, example2, alpha) == pytest.approx(
            alpha, abs=1e-10
        )


def _underline_d(prob, model, alpha):
    """Smallest binding mean target of the embedded q=1 instance at alpha,
    whose benchmark is xbar - alpha."""
    gamma = cvar.safe_level(prob, model) - alpha
    embedded = lpm.LpmProblem(
        x0=prob.x0, d=prob.d, gamma=gamma, cap=prob.cap, q=1.0, horizon=prob.horizon
    )
    return lpm.d_bounds(embedded, model)[0]


def test_underline_d_increases_toward_the_cap_bound(example2):
    prob = _problem()
    grid = [0.0, 0.5, 1.0, 2.0, 9.0]
    lows = [_underline_d(prob, example2, a) for a in grid]
    assert all(b > a for a, b in zip(lows, lows[1:]))
    # alpha = 0 sits exactly on the rich boundary (x0 = xbar E[z]), where the
    # minimal attainable mean is the safe level itself
    assert lows[0] == pytest.approx(FROZEN_XBAR, abs=2e-6)
    # and the limit alpha -> xbar approaches the attainable-mean supremum
    near = _underline_d(prob, example2, FROZEN_XBAR - 1e-6)
    assert near == pytest.approx(FROZEN_D_UPPER, abs=1e-3)


def test_frontier_matches_frozen_columns(example2):
    for beta, frozen in ((0.90, FRONTIER_90), (0.95, FRONTIER_95)):
        rows = cvar.frontier(_problem(beta=beta), example2, FRONTIER_D)
        assert [r.status for r in rows] == ["ok"] * len(FRONTIER_D)
        got = [r.cvar for r in rows]
        np.testing.assert_allclose(got, frozen, atol=1e-4)
        assert all(b > a for a, b in zip(got, got[1:]))


def test_frontier_beta_override_and_failure_rows(example2):
    problem = dataclasses.replace(_problem(beta=0.95), beta=0.90)
    rows = cvar.frontier(problem, example2, [31.0, 32.0])
    assert rows[0].status == "ok"
    assert rows[1].status == "TargetTooHigh"
    assert math.isnan(rows[1].cvar) and math.isnan(rows[1].alpha_star)


def test_target_too_high_is_alpha_independent(example2):
    with pytest.raises(TargetTooHigh):
        cvar.solve_cvar(_problem(d=32.0), example2)
    # the bound the failure quotes matches the frozen supremum
    try:
        cvar.solve_cvar(_problem(d=32.0), example2)
    except TargetTooHigh as exc:
        assert f"{FROZEN_D_UPPER:.4f}"[:6] in str(exc)


def test_target_within_rounding_of_d_upper_is_too_high(example1):
    # one ulp below d_upper = 1.367049666810857: the root lands at the top of
    # the curve, where gamma <= 0 puts alpha* at the safe level
    prob = cvar.CvarProblem(x0=1.0, d=1.3670496668108567, cap=2.0, beta=0.95, horizon=1.0)
    with pytest.raises(TargetTooHigh, match="within rounding of d_upper"):
        cvar.solve_cvar(prob, example1)
    rows = cvar.frontier(prob, example1, [1.2, prob.d])
    assert [row.status for row in rows] == ["ok", "TargetTooHigh"]


def test_solve_makes_one_embedded_solve(example2, monkeypatch):
    calls = []
    solve_lpm = cvar.lpm.solve_lpm

    def counted(problem, model):
        calls.append(problem.gamma)
        return solve_lpm(problem, model)

    monkeypatch.setattr(cvar.lpm, "solve_lpm", counted)
    sol = cvar.solve_cvar(_problem(), example2)
    assert calls == [sol.policy.problem.gamma]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"x0": 0.0},
        {"beta": 0.0},
        {"beta": 1.0},
        {"horizon": -1.0},
        {"cap": 11.0, "d": 12.0},
        {"cap": 10.5, "xbar": 10.8},
        {"cap": 13.0, "xbar": 13.5},  # cap above d, at or below the safe level
    ],
)
def test_problem_validation(kwargs):
    base = dict(x0=X0, d=12.0, cap=CAP, beta=0.95, horizon=1.0)
    base.update(kwargs)
    with pytest.raises(DomainError):
        cvar.CvarProblem(**base)


def test_single_asset_instance_also_solves(example1):
    # smaller market, benchmark shifted by an explicit xbar
    prob = cvar.CvarProblem(
        x0=1.0, d=1.2, cap=10.0, beta=0.9, horizon=1.0, xbar=None
    )
    sol = cvar.solve_cvar(prob, example1)
    assert sol.cvar > 0.0
    assert sol.policy.problem.cap == 10.0
    assert surface.wealth(lpm.payoff(sol.policy), 0.0, 1.0) == pytest.approx(1.0, abs=1e-8)


def test_cap_probe_that_rounds_above_the_cap_still_solves():
    # xbar - (xbar - cap) rounds above the cap here; the d_high probe and the
    # search's left end both build that benchmark
    r, horizon = 0.0940000182214618, 3.6701099516693647
    model = market.validate_market(horizon, r, r + 0.06, 0.2)
    prob = cvar.CvarProblem(
        x0=1.0, d=1.01 * math.exp(r * horizon), cap=3.9919181092470093,
        beta=0.95, horizon=horizon,
    )
    try:
        sol = cvar.solve_cvar(prob, model)
    except CapfolioError:
        return
    assert sol.policy.problem.gamma <= prob.cap
    h = 1e-4 * max(1.0, abs(sol.xbar))
    for alpha in (sol.alpha_star - h, sol.alpha_star + h):
        assert cvar.j_value(prob, model, alpha) >= sol.cvar - 1e-12 * max(1.0, sol.cvar)


def test_reduction_root_out_of_iterations_is_solver_diverged(example2, monkeypatch):
    monkeypatch.setattr(cvar, "find_root_1d", functools.partial(solvers.find_root_1d, max_iter=1))
    prob = cvar.CvarProblem(x0=X0, d=12.0, cap=CAP, beta=0.95, horizon=1.0)
    with pytest.raises(SolverDiverged, match="no root after 1 iterations"):
        cvar.solve_cvar(prob, example2)


def test_budget_below_the_float_range_of_the_cap_is_a_domain_error():
    # x0 / cap underflows to 0, where delta_bar = H_1^{-1}(x0 / cap) does not
    # exist: the solve raised TargetOutOfRange, outside its raise set; the
    # embedded shortfall problem's rule now rejects it at construction
    with pytest.raises(DomainError, match="x0 / cap"):
        cvar.CvarProblem(x0=1e-300, d=1e-299, cap=1e100, beta=0.95, horizon=1.0)


def test_beta_whose_width_holds_no_budget_is_the_slack_corner():
    # test_cli.TWO_SEGMENT_MARKET with the first segment's r moved: at
    # beta = 5e-324 the sloped width at delta = 0 is so thin that H_1 across
    # it rounds to 0, so curve(0) takes its delta_beta limit there and
    # divided spare / 0 (ZeroDivisionError, outside the raise set); the limit
    # is +inf, the slack corner beta = 1e-300 reaches
    model = market.validate_market(
        1.0,
        [0.05634446190740555, 0.04],
        [[0.12, 0.08], [0.1, 0.09]],
        [[[0.15, 0.0], [0.03, 0.1]], [[0.2, 0.02], [0.0, 0.12]]],
        breakpoints=[0.0, 0.5],
    )
    tiny, small = (
        cvar.solve_cvar(cvar.CvarProblem(x0=1.0, d=1.15, cap=3.0, beta=beta, horizon=1.0), model)
        for beta in (5e-324, 1e-300)
    )
    assert tiny.policy.multipliers.case == lpm.DEGENERATE_LOW_TARGET
    assert (tiny.alpha_star, tiny.cvar) == (small.alpha_star, small.cvar)
    assert tiny.alpha_star == pytest.approx(-1.950648629451035, rel=1e-12)
    assert tiny.cvar == pytest.approx(-0.5451636715624351, rel=1e-12)


#: forward error of alpha* against the 40-digit root, in units of eps kappa,
#: as in the mean-variance test
ORACLE_C = 4.0


def test_forward_error_against_the_oracle(example2):
    # the nine criterion-07 cells; kappa (reference.cvar_oracle) grows like
    # gamma / |alpha*| where the VaR nears 0, at (d, beta) = (11, 0.9)
    pytest.importorskip("mpmath")
    ctx = market.deflator_context(example2, example2.horizon)
    worst = worst_delta = 0.0
    for beta in (0.90, 0.95, 0.99):
        for d in (11.0, 12.0, 13.0):
            problem = _problem(d=d, beta=beta)
            solved = cvar.solve_cvar(problem, example2)
            alpha, delta, kappa = reference.cvar_oracle(ctx, problem, solved.xbar)
            error = float(abs(solved.alpha_star / alpha - 1))
            worst = max(worst, error / (np.finfo(float).eps * kappa))
            worst_delta = max(worst_delta, float(abs(solved.policy.delta / delta - 1)))
    print(f"worst forward error / (eps kappa) = {worst:.3f}, C = {ORACLE_C}; "
          f"worst relative error of delta = {worst_delta:.2e}")
    assert worst <= ORACLE_C
