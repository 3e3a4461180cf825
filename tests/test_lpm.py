"""Shortfall solver: frozen reference values, quadrature cross-checks, cases."""
import functools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erfc

from capfolio import cvar, kernels, lpm, market, solvers, surface
from capfolio.errors import (
    CapfolioError,
    DomainError,
    InfeasibleBudget,
    NoSignChange,
    SolverDiverged,
    TargetOutOfRange,
    TargetTooHigh,
)

import markets
from reference import M0, NU0, expect

# Calibrated single-asset instance: r=0.06, mu=0.12, sigma=0.15, T=1,
# x0=1, benchmark gamma = e^{0.06}, target d=1.3.
GAMMA = math.exp(0.06)

# Multiplier pairs (mean, budget) frozen from an independent
# quadrature probe of the constraint system, run before this package existed.
FROZEN_MULT = {
    (10.0, 1.0): (0.326132, 0.785214),
    (10.0, 2.0): (0.166593, 0.389835),
    (15.0, 1.0): (0.2863, 0.7463),
    (15.0, 2.0): (0.1325, 0.3368),
    (20.0, 1.0): (0.2638, 0.7240),
    (20.0, 2.0): (0.1147, 0.3075),
    (30.0, 1.0): (0.2377, 0.6976),
    (30.0, 2.0): (0.0953, 0.2739),
}

# Cap-hit probabilities P(X* = B) frozen from the same probe.
FROZEN_HIT = {
    (10.0, 1.0): 0.032400,
    (10.0, 2.0): 0.037913,
    (15.0, 1.0): 0.020405,
    (15.0, 2.0): 0.023727,
    (20.0, 1.0): 0.014857,
    (20.0, 2.0): 0.017199,
    (30.0, 1.0): 0.009598,
    (30.0, 2.0): 0.011043,
}

D_UPPER_B10 = 1.9847461521036533  # frozen independent-probe value
Q2_OBJECTIVE = 0.01589222  # frozen probe value of E[((gamma - X*)+)^2] at B=10, d=1.3


def _problem(q, cap=10.0, d=1.3, x0=1.0, gamma=GAMMA):
    return lpm.LpmProblem(x0=x0, d=d, gamma=gamma, cap=cap, q=q, horizon=1.0)


def _phi(u):
    return 0.5 * erfc(-u / math.sqrt(2.0))


def _h_ref(p, y, m=M0, nu=NU0):
    """Reference partial moment built directly on erfc, outside the package."""
    if y <= 0.0:
        return 0.0
    return math.exp(p * m + 0.5 * p * p * nu * nu) * _phi(
        (math.log(y) - m) / nu - p * nu
    )


def _payoff_kinks(sol):
    if sol.rho is None:
        return (sol.delta,)
    return (sol.delta, sol.delta + sol.rho)


@pytest.mark.parametrize("cap,q", sorted(FROZEN_MULT))
def test_multipliers_match_frozen_probe(example1, cap, q):
    mult = lpm.solve_lpm(_problem(q, cap=cap), example1).multipliers
    want_mean, want_budget = FROZEN_MULT[(cap, q)]
    tol = 2e-6 if cap == 10.0 else 1e-4
    assert mult.mean == pytest.approx(want_mean, abs=tol)
    assert mult.budget == pytest.approx(want_budget, abs=tol)
    assert mult.case == lpm.REGULAR


@pytest.mark.parametrize("cap,q", sorted(FROZEN_HIT))
def test_hit_probabilities_match_frozen_probe(example1, cap, q):
    sol = lpm.solve_lpm(_problem(q, cap=cap), example1)
    assert sol.hit_prob == pytest.approx(FROZEN_HIT[(cap, q)], abs=1e-6)


@pytest.mark.parametrize("q", [1.0, 2.0])
def test_hit_probability_strictly_decreasing_in_cap(example1, q):
    probs = [
        lpm.solve_lpm(_problem(q, cap=cap), example1).hit_prob
        for cap in (10.0, 15.0, 20.0, 30.0)
    ]
    assert all(b < a for a, b in zip(probs, probs[1:]))


def test_d_bounds_example1(example1):
    lo, hi = lpm.d_bounds(_problem(1.0), example1)
    # x0 - gamma E[z] = 0 exactly, so the lower bound sits at gamma itself
    assert lo == pytest.approx(GAMMA, abs=1e-12)
    assert hi == pytest.approx(D_UPPER_B10, rel=1e-9)


def test_d_upper_against_independent_inversion(example1):
    # d_upper = B H_0(y) at the y where B H_1(y) spends the whole budget
    cap = 10.0
    y_star = brentq(lambda s: cap * _h_ref(1.0, math.exp(s)) - 1.0, -12.0, 4.0)
    want = cap * _h_ref(0.0, math.exp(y_star))
    _, hi = lpm.d_bounds(_problem(1.0), example1)
    assert hi == pytest.approx(want, rel=1e-9)


def test_poor_instance_bounds_against_independent_inversion(example1):
    # x0 = 0.7 < gamma E[z] = 1: the benchmark is not affordable
    x0 = 0.7
    prob = _problem(1.0, x0=x0, d=1.05)
    rho_hat = math.exp(
        brentq(lambda s: GAMMA * _h_ref(1.0, math.exp(s)) - x0, -12.0, 4.0)
    )
    want_lo = GAMMA * _h_ref(0.0, rho_hat)
    y_star = math.exp(
        brentq(lambda s: 10.0 * _h_ref(1.0, math.exp(s)) - x0, -12.0, 4.0)
    )
    want_hi = 10.0 * _h_ref(0.0, y_star)
    lo, hi = lpm.d_bounds(prob, example1)
    assert lo == pytest.approx(want_lo, rel=1e-9)
    assert hi == pytest.approx(want_hi, rel=1e-9)


def test_poor_instance_bounds_q2_use_smooth_branch(example1):
    x0 = 0.7
    lo_q2, _ = lpm.d_bounds(_problem(2.0, x0=x0, d=1.05), example1)
    # independent route: rho from K_1(rho) = x0/gamma, then d = gamma J_1(rho)
    k1 = lambda y: _h_ref(1.0, y) - _h_ref(2.0, y) / y
    j1 = lambda y: _h_ref(0.0, y) - _h_ref(1.0, y) / y
    rho_hat = math.exp(brentq(lambda s: k1(math.exp(s)) - x0 / GAMMA, -12.0, 6.0))
    assert lo_q2 == pytest.approx(GAMMA * j1(rho_hat), rel=1e-8)
    # the smooth payoff reaches a lower minimal mean than the flat one
    lo_q1, _ = lpm.d_bounds(_problem(1.0, x0=x0, d=1.05), example1)
    assert lo_q2 < lo_q1


def test_q2_objective_value(example1):
    sol = lpm.solve_lpm(_problem(2.0), example1)
    assert sol.objective_value == pytest.approx(Q2_OBJECTIVE, abs=2e-8)


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 2.0])
def test_constraints_hold_by_quadrature(example1, q):
    sol = lpm.solve_lpm(_problem(q), example1)
    pay = lpm.payoff(sol)
    kinks = _payoff_kinks(sol)
    budget = expect(lambda z: z * surface.terminal_wealth(pay, z), kinks)
    mean = expect(lambda z: surface.terminal_wealth(pay, z), kinks)
    assert budget == pytest.approx(1.0, abs=1e-8)
    assert mean == pytest.approx(1.3, abs=1e-8)


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 2.0])
def test_objective_matches_quadrature(example1, q):
    sol = lpm.solve_lpm(_problem(q), example1)
    pay = lpm.payoff(sol)
    kinks = _payoff_kinks(sol)
    if q == 0.0:
        want = expect(
            lambda z: 1.0 if surface.terminal_wealth(pay, z) < GAMMA else 0.0, kinks
        )
    else:
        want = expect(
            lambda z: max(GAMMA - surface.terminal_wealth(pay, z), 0.0) ** q, kinks
        )
    assert sol.objective_value == pytest.approx(want, abs=1e-7)


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_expected_terminal_wealth_closed_form(example1, q):
    sol = lpm.solve_lpm(_problem(q), example1)
    pay = lpm.payoff(sol)
    want = expect(lambda z: surface.terminal_wealth(pay, z), _payoff_kinks(sol))
    assert lpm.expected_terminal_wealth(sol) == pytest.approx(want, abs=1e-9)


def test_multiplier_threshold_identity(example1):
    # the cap threshold delta equals the multiplier ratio mean/budget
    for q in (0.5, 1.0, 2.0):
        sol = lpm.solve_lpm(_problem(q), example1)
        assert sol.multipliers.mean / sol.multipliers.budget == pytest.approx(
            sol.delta, rel=1e-9
        )


def test_terminal_wealth_shape_flat_case(example1):
    sol = lpm.solve_lpm(_problem(1.0), example1)
    pay = lpm.payoff(sol)
    z = np.geomspace(1e-4, 1e3, 400)
    x = surface.terminal_wealth(pay, z)
    assert np.all(np.diff(x) <= 1e-12)
    assert np.all((x >= 0.0) & (x <= 10.0))
    assert surface.terminal_wealth(pay, sol.delta * 0.5) == 10.0
    assert surface.terminal_wealth(pay, sol.delta + 0.5 * sol.rho) == GAMMA
    assert surface.terminal_wealth(pay, (sol.delta + sol.rho) * 4.0) == 0.0


def test_terminal_wealth_shape_smooth_case(example1):
    sol = lpm.solve_lpm(_problem(2.0), example1)
    pay = lpm.payoff(sol)
    hi = sol.delta + sol.rho
    # the middle branch is linear in z and meets gamma at delta
    assert surface.terminal_wealth(pay, sol.delta + 1e-12) == pytest.approx(
        GAMMA, abs=1e-9
    )
    mid = 0.5 * (sol.delta + hi)
    want = GAMMA - 0.5 * sol.multipliers.budget * (mid - sol.delta)
    assert surface.terminal_wealth(pay, mid) == pytest.approx(want, rel=1e-12)
    assert surface.terminal_wealth(pay, hi * 1.0001) == 0.0


def test_wealth_at_start_recovers_budget(example1):
    for q in (0.0, 0.5, 1.0, 2.0):
        sol = lpm.solve_lpm(_problem(q), example1)
        assert surface.wealth(lpm.payoff(sol), 0.0, 1.0) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("width", [1e-6, 1e-9, 1e-13])
def test_wealth_on_a_short_ramp_matches_quadrature(example1, width):
    # X falls from gamma to 0 on (delta, delta + rho], rho = width delta, as
    # a q = 2 payoff does near d_upper: the line's constant and slope are of
    # order gamma / width, so the difference of the closed-form partial
    # moments at the branch ends must not carry their rounding
    delta, rho = 1.0, width
    pay = lpm.Payoff(
        model=example1,
        levels=(delta, delta + rho),
        starts=(10.0, GAMMA),
        ends=(10.0, 0.0),
    )

    def ramp(s):  # z X(z) times the density of z(T), in s = (z - delta) / rho
        z = delta + rho * s
        return GAMMA * (1.0 - s) * math.exp(-0.5 * ((math.log(z) - M0) / NU0) ** 2)

    branch, _ = quad(ramp, 0.0, 1.0)
    want = 10.0 * _h_ref(1.0, delta) + rho * branch / (NU0 * math.sqrt(2.0 * math.pi))
    assert surface.wealth(pay, 0.0, 1.0) == pytest.approx(want, rel=0, abs=1e-13)


def test_empty_sloped_branch_is_a_jump_at_its_level(example1):
    # an empty branch falls at its level from its start, so the cap branch
    # followed by an empty ramp from gamma to 0 is one jump from the cap to 0
    empty = lpm.Payoff(
        model=example1, levels=(1.0, 1.0), starts=(10.0, GAMMA), ends=(10.0, 0.0)
    )
    jump = lpm.Payoff(model=example1, levels=(1.0,), starts=(10.0,), ends=(10.0,))
    z = np.geomspace(0.2, 5.0, 9)
    for t in (0.0, 0.5):
        np.testing.assert_allclose(
            surface.wealth(empty, t, z), surface.wealth(jump, t, z), rtol=1e-15
        )
        np.testing.assert_allclose(
            surface.policy(empty, t, z), surface.policy(jump, t, z), rtol=1e-15
        )


def test_wealth_approaches_terminal_payoff(example1):
    sol = lpm.solve_lpm(_problem(1.0), example1)
    pay = lpm.payoff(sol)
    z = np.array([0.3, 0.8, 1.1])
    near = surface.wealth(pay, 1.0 - 1e-9, z)
    np.testing.assert_allclose(near, surface.terminal_wealth(pay, z), atol=1e-9)


def test_wealth_stays_inside_envelope(example1):
    for q in (1.0, 2.0):
        sol = lpm.solve_lpm(_problem(q), example1)
        for t in (0.0, 0.4, 0.9):
            lo, hi = lpm.wealth_envelope(sol.problem, example1, t)
            x = surface.wealth(lpm.payoff(sol), t, np.geomspace(1e-3, 1e2, 200))
            # the open bounds saturate to machine precision deep in either tail
            assert np.all(x >= lo)
            assert np.all(x <= hi * (1.0 + 1e-12))


def _fd_policy_scalar(pay, t, z, h=1e-6):
    xm = surface.wealth(pay, t, z * (1.0 - h))
    xp = surface.wealth(pay, t, z * (1.0 + h))
    dxdz = (xp - xm) / (2.0 * h * z)
    # single asset: pi = -z dx/dz (mu - r) / sigma^2
    return -z * dxdz * 0.06 / 0.15**2


# id -> (_problem keywords, case); the Regular ids are their q. The rich rows
# pay gamma up to z = inf, the low-target rows have an empty cap branch.
FD_CASES = {
    "0.5": ({"q": 0.5}, lpm.REGULAR),
    "1.0": ({"q": 1.0}, lpm.REGULAR),
    "2.0": ({"q": 2.0}, lpm.REGULAR),
    "rich-1.0": ({"q": 1.0, "x0": 1.2, "gamma": 1.0}, lpm.DEGENERATE_RICH),
    "rich-2.0": ({"q": 2.0, "x0": 1.2, "gamma": 1.0}, lpm.DEGENERATE_RICH),
    "low-1.0": ({"q": 1.0, "gamma": 1.1, "d": 0.5}, lpm.DEGENERATE_LOW_TARGET),
    "low-2.0": ({"q": 2.0, "gamma": 1.1, "d": 0.5}, lpm.DEGENERATE_LOW_TARGET),
}


def _fd_solution(example1, case):
    if case == "cvar":
        prob = cvar.CvarProblem(x0=1.0, d=1.3, cap=10.0, beta=0.95, horizon=1.0)
        return cvar.solve_cvar(prob, example1).policy
    kwargs, tag = FD_CASES[case]
    sol = lpm.solve_lpm(_problem(**kwargs), example1)
    assert sol.multipliers.case == tag
    return sol


@pytest.mark.parametrize("case", [*FD_CASES, "cvar"])
@pytest.mark.parametrize("t", [0.2, 0.5, 0.8])
def test_policy_matches_finite_difference(example1, case, t):
    pay = lpm.payoff(_fd_solution(example1, case))
    z = np.geomspace(0.05, 5.0, 60)
    want = _fd_policy_scalar(pay, t, z)
    got = surface.policy(pay, t, z)[:, 0]
    # atol covers the roundoff floor of the central difference, about
    # eps * wealth / (2 h); the relative part is the real check
    np.testing.assert_allclose(got, want, rtol=2e-6, atol=2e-8)


# Solved q = 2 instances whose middle branch is 2 or 8 ulps of delta wide,
# (r, mu, sigma, T, gamma, cap, d) with x0 = 1. The line of that branch has a
# constant and a slope of order gamma / rho; a jump of X taken from them
# moves the policy by up to 9 % off the slope of the wealth surface.
SHORT_RAMPS = {
    "2-ulps-nu0-0.002": (
        0.03791422568642712, 0.038471819698842176, 0.10498259944534709,
        0.18104710082658118, 0.9782513260200765, 1.0766256821184126,
        1.0071950191694117,
    ),
    "8-ulps-nu0-6.4": (
        -0.005076020483861092, 0.13863157088306577, 0.05051637247316044,
        5.109758545016932, 0.8649717677397273, 0.9897922757704818,
        0.9897922757704809,
    ),
    "8-ulps-nu0-6.9": (
        0.06509815514857069, 1.8517264057844476, 0.8868827134919545,
        11.82046732130346, 1.6033985583489656, 2.2735871715240505,
        2.27358717152405,
    ),
}


@pytest.mark.parametrize("name", SHORT_RAMPS)
def test_policy_on_an_ulps_wide_ramp_matches_finite_difference(name):
    r, mu, sigma, horizon, gamma, cap, d = SHORT_RAMPS[name]
    model = market.validate_market(horizon, r, mu, sigma)
    prob = lpm.LpmProblem(x0=1.0, d=d, gamma=gamma, cap=cap, q=2.0, horizon=horizon)
    pay = lpm.payoff(lpm.solve_lpm(prob, model))
    for t in (0.0, 0.5 * horizon):
        # a central difference in ln z with a step of 1e-4 of the remaining
        # deflator volatility
        h = 1e-4 * market.deflator_moments(model, t).nu
        up, down = (float(surface.wealth(pay, t, math.exp(s))) for s in (h, -h))
        fd = (down - up) / (2.0 * h) * (mu - r) / sigma**2
        assert float(surface.policy(pay, t, 1.0)[0]) == pytest.approx(fd, rel=1e-4, abs=1e-4)


def test_policy_undefined_at_horizon(example1):
    sol = lpm.solve_lpm(_problem(1.0), example1)
    with pytest.raises(DomainError, match="no limit at t = 1.0"):
        surface.policy(lpm.payoff(sol), 1.0, 1.0)


def test_feedback_curve_sorted_and_weighted(example1):
    sol = lpm.solve_lpm(_problem(1.0), example1)
    pay = lpm.payoff(sol)
    grid = np.geomspace(0.05, 5.0, 80)
    curve = surface.feedback_curve(pay, 0.5, grid)
    assert np.all(np.diff(curve.x) > 0.0)
    assert np.all(np.diff(surface.wealth(pay, 0.5, grid)) < 0.0)  # strictly falling in z
    finite = curve.x != 0.0
    np.testing.assert_allclose(
        curve.weights[finite, 0], curve.pi[finite, 0] / curve.x[finite], rtol=1e-12
    )
    with pytest.raises(DomainError):
        surface.feedback_curve(pay, 0.5, [1.0, 0.5])


def test_wealth_after_the_horizon_is_a_domain_error(example1):
    pay = lpm.payoff(lpm.solve_lpm(_problem(1.0), example1))
    with pytest.raises(DomainError):
        surface.wealth(pay, 1.5, np.array([0.5, 1.0]))


def test_degenerate_low_target_case(example1):
    # gamma = 1.2 is unaffordable (x0 < gamma E[z]) and d = 1.05 sits below
    # the minimal-mean bound, so the mean constraint goes slack
    prob = _problem(1.0, gamma=1.2, d=1.05)
    sol = lpm.solve_lpm(prob, example1)
    pay = lpm.payoff(sol)
    assert sol.multipliers.case == lpm.DEGENERATE_LOW_TARGET
    assert sol.multipliers.mean == 0.0
    assert sol.multipliers.budget > 0.0
    assert sol.hit_prob == 0.0
    assert not sol.multiple_solutions
    # the solution ignores d and delivers the minimal-mean optimum d_lower
    kinks = _payoff_kinks(sol)
    mean = expect(lambda z: surface.terminal_wealth(pay, z), kinks)
    assert mean == pytest.approx(sol.d_lower, abs=1e-8)
    assert mean > prob.d
    budget = expect(lambda z: z * surface.terminal_wealth(pay, z), kinks)
    assert budget == pytest.approx(1.0, abs=1e-8)


def test_degenerate_rich_case(example1):
    # gamma = 0.9 makes the benchmark affordable outright: x0 > gamma E[z]
    prob = _problem(1.0, gamma=0.9, d=0.95)
    sol = lpm.solve_lpm(prob, example1)
    pay = lpm.payoff(sol)
    assert sol.multipliers.case == lpm.DEGENERATE_RICH
    assert sol.multipliers.mean == 0.0
    assert sol.multipliers.budget == 0.0
    assert sol.multiple_solutions
    assert sol.objective_value == 0.0
    assert sol.rho is None
    # the canonical representative still prices back to the budget
    budget = expect(lambda z: z * surface.terminal_wealth(pay, z), (sol.delta,))
    assert budget == pytest.approx(1.0, abs=1e-8)
    x = surface.terminal_wealth(pay, np.array([sol.delta * 0.9, sol.delta * 1.1]))
    assert x[0] == 10.0 and x[1] == 0.9
    # wealth stays defined for the rich branch too
    assert surface.wealth(pay, 0.0, 1.0) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("rel", [1e-13, 1e-12, 3e-12, 1e-10])
def test_target_just_above_rich_d_lower_solves(example1, rel):
    # x0 > gamma E[z]: as d falls to d_lower the upper threshold diverges;
    # the mean-CVaR search probes such targets at its case boundary
    low, _ = lpm.d_bounds(_problem(1.0, gamma=1.0), example1)
    prob = _problem(1.0, gamma=1.0, d=low * (1.0 + rel))
    sol = lpm.solve_lpm(prob, example1)
    assert sol.multipliers.case == lpm.REGULAR
    assert lpm.expected_terminal_wealth(sol) == pytest.approx(prob.d, abs=1e-10)
    assert surface.wealth(lpm.payoff(sol), 0.0, 1.0) == pytest.approx(1.0, abs=1e-10)


def test_rich_boundary_has_unique_solution(example1):
    # x0 == gamma E[z] exactly: rich case but no slack to randomize
    prob = _problem(1.0, d=1.0)
    sol = lpm.solve_lpm(prob, example1)
    if sol.multipliers.case == lpm.DEGENERATE_RICH:
        assert not sol.multiple_solutions


def test_target_too_high(example1):
    with pytest.raises(TargetTooHigh):
        lpm.solve_lpm(_problem(1.0, d=1.99), example1)
    # the bound itself is excluded: d must be strictly below d_upper
    _, hi = lpm.d_bounds(_problem(1.0), example1)
    with pytest.raises(TargetTooHigh):
        lpm.solve_lpm(_problem(1.0, d=hi), example1)


def test_infeasible_budget(example1):
    # x0 >= cap E[z] = 10 e^{-0.06}
    with pytest.raises(InfeasibleBudget):
        lpm.d_bounds(_problem(1.0, x0=9.5), example1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"x0": 0.0},
        {"gamma": 0.0},
        {"gamma": -1.0},
        {"cap": 0.5},  # below the benchmark
        {"d": 10.0},  # cap must exceed the target
        {"q": 1.5},
        {"q": -0.5},
        {"q": 3.0},
        {"horizon": 0.0},
        {"x0": 1e-300, "gamma": 1e50, "cap": 1e100},  # x0 / cap underflows to 0
    ],
)
def test_problem_validation(kwargs):
    base = dict(x0=1.0, d=1.3, gamma=GAMMA, cap=10.0, q=1.0, horizon=1.0)
    base.update(kwargs)
    with pytest.raises(DomainError):
        lpm.LpmProblem(**base)


def test_q0_objective_is_shortfall_probability(example1):
    sol = lpm.solve_lpm(_problem(0.0), example1)
    # flat two-level payoff: the objective is the mass beyond both branches
    tail = 1.0 - _h_ref(0.0, sol.delta + sol.rho)
    assert sol.objective_value == pytest.approx(tail, rel=1e-9)


def test_solution_carries_bounds(example1):
    sol = lpm.solve_lpm(_problem(1.0), example1)
    lo, hi = lpm.d_bounds(sol.problem, example1)
    assert sol.d_lower == lo
    assert sol.d_upper == hi


# The three markets of the benchmark sweep: the two calibrated examples and a
# high-Sharpe stress market (nu0 = 2.9) where the q = 2 Newton solve stalls.
GRID_QS = (0.0, 0.3, 1.0, 2.0)
GRID_PAIRS = ((1.0, 1.2), (1.05, 2.0), (1.1, 10.0), (0.95, 3.0))  # (gamma, cap)


@pytest.fixture(scope="module")
def grid_markets(example1, example2):
    stress = market.market_from_config(markets.STRESS)
    return {"example1": example1, "example2": example2, "stress": stress}


def _families(model):
    """(q, gamma, cap, d_lower, d_upper) for every swept family at x0 = 1."""
    out = []
    for q in GRID_QS:
        for gamma, cap in GRID_PAIRS:
            lo, hi = lpm.d_bounds(_problem(q, cap=cap, d=1.0, gamma=gamma), model)
            out.append((q, gamma, cap, lo, hi))
    return out


def _assert_constraints(sol, prob, model, tol=1e-8):
    # the mean from the solver's closed form, the budget from the wealth
    # surface at t = 0, whose formulas the solver does not use
    assert lpm.expected_terminal_wealth(sol) == pytest.approx(prob.d, abs=tol)
    assert surface.wealth(lpm.payoff(sol), 0.0, 1.0) == pytest.approx(prob.x0, abs=tol)


@pytest.mark.parametrize("gamma, q", [(16.35, 1.0), (8.175, 0.0)])
def test_budget_one_ulp_below_the_cap_price_is_infeasible(example1, gamma, q):
    # x0 is one ulp below cap * E[z], but x0 / cap rounds to E[z]: delta_bar
    # = H_1^{-1}(x0 / cap) does not exist in floats, and the solve raised
    # TargetOutOfRange, outside its raise set
    prob = lpm.LpmProblem(
        x0=15.397850124102467, d=14.715, gamma=gamma, cap=16.35, q=q, horizon=1.0
    )
    assert prob.x0 < prob.cap * market.deflator_context(example1, prob.horizon).mean
    with pytest.raises(InfeasibleBudget):
        lpm.solve_lpm(prob, example1)


def test_rich_threshold_past_delta_bar_by_rounding_is_clamped(example1):
    # x0 a few ulps below cap * E[z]: the rich threshold's H_1,
    # (x0 - gamma E[z]) / (cap - gamma), rounds up to E[z], past x0 / cap, the
    # H_1 of delta_bar, and the solve raised TargetOutOfRange
    prob = lpm.LpmProblem(
        x0=0.9700174695917761, d=0.9785, gamma=0.2575, cap=1.03, q=1.0, horizon=1.0
    )
    sol = lpm.solve_lpm(prob, example1)
    assert sol.multipliers.case == lpm.DEGENERATE_RICH
    assert lpm.expected_terminal_wealth(sol) >= prob.d
    assert surface.wealth(lpm.payoff(sol), 0.0, 1.0) == pytest.approx(prob.x0, rel=1e-12)


@pytest.mark.parametrize("name", ["example1", "example2", "stress"])
def test_multiplier_grid_solves_everywhere(grid_markets, name):
    # 16 families x 31 evenly spaced targets on (d_lower, d_upper) per market,
    # 1488 instances over the three, each a Regular solve that must converge
    model = grid_markets[name]
    for q, gamma, cap, lo, hi in _families(model):
        for k in range(1, 32):
            prob = _problem(q, cap=cap, d=lo + (hi - lo) * k / 32, gamma=gamma)
            sol = lpm.solve_lpm(prob, model)
            assert sol.multipliers.case == lpm.REGULAR
            assert sol.multipliers.mean > 0.0 and sol.multipliers.budget > 0.0
            _assert_constraints(sol, prob, model)


def _near_bound_targets(model, rel):
    for q, gamma, cap, lo, hi in _families(model):
        for d in (lo + rel * (hi - lo), hi - rel * (hi - lo)):
            yield _problem(q, cap=cap, d=d, gamma=gamma)


@pytest.mark.parametrize("name", ["example1", "example2", "stress"])
def test_targets_near_either_bound_solve(grid_markets, name):
    # 1e-6 of the feasible range from d_lower or d_upper: the thresholds
    # approach the rich threshold or delta_bar, where rho runs to inf or 0
    model = grid_markets[name]
    for prob in _near_bound_targets(model, 1e-6):
        sol = lpm.solve_lpm(prob, model)
        assert sol.multipliers.case == lpm.REGULAR
        _assert_constraints(sol, prob, model)


@pytest.mark.parametrize(
    "name,rel",
    [(n, r) for n in ("example1", "example2", "stress") for r in (1e-9, 1e-12)]
    + [("low_sharpe", r) for r in (1e-6, 1e-9, 1e-12)],
)
def test_targets_at_rounding_distance_solve_or_raise(grid_markets, name, rel):
    # within rounding of a bound, and on a market whose whole feasible range
    # is 5e-4 wide, a solve converges or raises a documented error
    if name == "low_sharpe":
        model = market.validate_market(1.0, 0.05, 0.0501, 0.2)
    else:
        model = grid_markets[name]
    for prob in _near_bound_targets(model, rel):
        try:
            sol = lpm.solve_lpm(prob, model)
        except (SolverDiverged, TargetTooHigh):
            continue
        _assert_constraints(sol, prob, model)


def _q2_objective_mpmath(sol):
    """(eta/2)^2 E[(z - delta)^2 1{delta < z <= delta + rho}] + gamma^2 P(z > delta + rho)
    at the solved thresholds, in 40-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        m0, nu0 = mpmath.mpf(sol.context.m0), mpmath.mpf(sol.context.nu0)
        delta, rho = mpmath.mpf(sol.delta), mpmath.mpf(sol.rho)
        half_eta, gamma = mpmath.mpf(sol.multipliers.budget) / 2, mpmath.mpf(sol.problem.gamma)
        branch = mpmath.quad(
            lambda u: (mpmath.exp(u) - delta) ** 2 * mpmath.npdf((u - m0) / nu0) / nu0,
            [mpmath.log(delta), mpmath.log(delta + rho)],
        )
        tail = 1 - mpmath.ncdf((mpmath.log(delta + rho) - m0) / nu0)
        return float(half_eta**2 * branch + gamma**2 * tail)


@pytest.mark.parametrize("rel", [1e-6, 1e-9])
def test_q2_objective_matches_mpmath_below_d_upper(example1, rel):
    # the middle branch is short there (rho / delta down to 5e-5), where the
    # closed form dH_2 - 2 delta dH_1 + delta^2 dH_0 cancels
    for gamma, cap in ((1.0, 1.2), (1.05, 2.0), (1.1, 10.0), (0.95, 3.0)):
        probe = lpm.LpmProblem(x0=1.0, d=1.0, gamma=gamma, cap=cap, q=2.0, horizon=1.0)
        lo, hi = lpm.d_bounds(probe, example1)
        problem = lpm.LpmProblem(
            x0=1.0, d=hi - rel * (hi - lo), gamma=gamma, cap=cap, q=2.0, horizon=1.0
        )
        sol = lpm.solve_lpm(problem, example1)
        assert sol.objective_value == pytest.approx(_q2_objective_mpmath(sol), rel=0, abs=1e-14)


def test_q2_budget_left_below_rounding_of_room_solves_or_raises():
    # near d_lower the budget the cap branch leaves is below eps / 2 of the
    # room under H_1's supremum, where 1 - s of the width bracket rounds to 0
    horizon = 0.45308637828404413
    model = market.validate_market(
        horizon, 0.008751960181959447, 0.24613248449194777, 0.08229545252405247
    )
    prob = lpm.LpmProblem(
        x0=1.0, d=2.0185524171926588, gamma=2.13626203554195,
        cap=16.417556549140013, q=2.0, horizon=horizon,
    )
    try:
        sol = lpm.solve_lpm(prob, model)
    except CapfolioError:
        return
    _assert_constraints(sol, prob, model)


def test_q2_branch_below_resolution_takes_the_flat_width():
    # the outer root probes delta within ulps of delta_bar, where the flat
    # width is a branch one ulp wide that the ramp already over-prices, so
    # the width bracket has no sign change
    horizon = 2.593118337087994
    model = market.validate_market(
        horizon, 0.09646121699896933, 0.09686115310387704, 0.8659002891643023
    )
    prob = lpm.LpmProblem(
        x0=1.0, d=1.2848845961309585, gamma=0.9867934462200764,
        cap=2.4735350900983075, q=2.0, horizon=horizon,
    )
    sol = lpm.solve_lpm(prob, model)
    assert sol.multipliers.case == lpm.REGULAR
    _assert_constraints(sol, prob, model, tol=1e-13)


@pytest.mark.parametrize("q", [0.0, 1.0, 2.0])
def test_target_at_high_nu0_solves(q):
    # nu0 = 15.16 puts delta_bar at 9.3e36 and the root at 7.6e-40: a
    # bracket linear in delta ran out of Brent's 200 iterations before it
    # reached the scale of the root
    horizon = 15.38
    model = market.validate_market(horizon, 0.0793, 0.3882, 0.0799)
    prob = lpm.LpmProblem(x0=1.0, d=109.61, gamma=6.978, cap=114.19, q=q, horizon=horizon)
    sol = lpm.solve_lpm(prob, model)
    assert sol.multipliers.case == lpm.REGULAR
    _assert_constraints(sol, prob, model)


def test_embedded_cvar_instance_at_high_nu0_solves():
    # the q = 1 instance a random-market CVaR check embeds at alpha* + h,
    # on a market with nu0 = 14.25
    horizon = 8.854489739267022
    model = market.validate_market(
        horizon, 0.05139994420418603, 1.285238214998207, 0.2576165927902846
    )
    prob = lpm.LpmProblem(
        x0=1.0, d=1.6629376213616962, gamma=1.6627799850657043,
        cap=1.6629376213631335, q=1.0, horizon=horizon,
    )
    sol = lpm.solve_lpm(prob, model)
    assert sol.multipliers.case == lpm.REGULAR
    _assert_constraints(sol, prob, model)


# answers and verdicts read off a budget curve that misses the budget, each
# (r, mu, sigma) of a one-asset market with T = 1, then (gamma, cap, d, q) at
# x0 = 1: on the point mass nu0 = 1e-20 (r 0, mu 2e-21, sigma 0.2) H_1 is a
# step that its inverse cannot hit, and on example 1 with sigma = 1e150
# (nu0 = 6e-152) nearly so
CURVE_MISSES = {
    # DegenerateRich with hit probability 0.5, whose payoff prices at 1.45
    "rich_price": ((0.0, 2e-21, 0.2), 0.9, 2.0, 0.95, 1.0),
    # TargetTooHigh with d_upper read as 0.75, though X = 1 meets d and the budget
    "too_high_below_growth": ((0.0, 2e-21, 0.2), 1.0, 1.5, 0.9, 1.0),
    # TargetTooHigh "within rounding" of d_upper = 1, with d 1 % below it
    "rounding_one_percent_off": ((0.0, 2e-21, 0.2), 1.0, 2.0, 0.99, 1.0),
    # DegenerateRich with hit probability 1 and d_bounds (10, 10), pricing at 9.42
    "rich_sigma_1e150": ((0.06, 0.12, 1e150), 1.0, 10.0, 1.3, 2.0),
}
# (gamma, cap, d) at x0 = 1 of the near-riskless grid: rich, low-target and
# too-high targets on either side of the riskless growth e^{rT}
NEAR_RISKLESS_TARGETS = (
    (0.9, 2.0, 0.95), (1.0, 1.5, 0.9), (1.0, 2.0, 0.99),
    (1.1, 2.0, 1.05), (1.0, 10.0, 1.3), (0.5, 3.0, 1.2),
)


@pytest.mark.parametrize("name", sorted(CURVE_MISSES))
def test_budget_curve_that_misses_the_budget_is_solver_diverged(name):
    (r, mu, sigma), gamma, cap, d, q = CURVE_MISSES[name]
    prob = lpm.LpmProblem(x0=1.0, d=d, gamma=gamma, cap=cap, q=q, horizon=1.0)
    with pytest.raises(SolverDiverged):
        lpm.solve_lpm(prob, market.validate_market(1.0, r, mu, sigma))


def _price_and_mean(sol):
    """E[z X*] and E[X*] of the solved payoff, branch by branch: X* = a + b z
    on (lo, hi] contributes a dH_p + b dH_{p+1}, read by kernels.partial_moment_H."""
    pay, price, mean, lo = lpm.payoff(sol), 0.0, 0.0, 0.0
    for hi, start, end in zip(pay.levels, pay.starts, pay.ends):
        b = 0.0 if hi == math.inf or hi == lo else (end - start) / (hi - lo)
        dh = [
            kernels.partial_moment_H(sol.context, p, hi)
            - kernels.partial_moment_H(sol.context, p, lo)
            for p in (0.0, 1.0, 2.0)
        ]
        price += (start - b * lo) * dh[1] + b * dh[2]
        mean += (start - b * lo) * dh[0] + b * dh[1]
        lo = hi
    return price, mean


def test_near_riskless_answers_spend_the_budget():
    # nu0 from 1e-20, a point mass in floats, to 1e-8: every answer prices at
    # x0 and meets d, and every TargetTooHigh lies above the riskless growth
    # x0 e^{rT}, which X = x0 e^{rT} attains; a curve that misses the budget
    # is SolverDiverged instead
    outcomes = []
    for nu0 in (1e-20, 1e-16, 1e-13, 1e-12, 1e-11, 10.0**-10.5, 1e-8):
        for r in (0.0, 0.06):
            if r + 0.2 * nu0 == r:
                continue
            model = market.validate_market(1.0, r, r + 0.2 * nu0, 0.2)
            for q in (0.0, 1.0, 2.0):
                for gamma, cap, d in NEAR_RISKLESS_TARGETS:
                    prob = lpm.LpmProblem(x0=1.0, d=d, gamma=gamma, cap=cap, q=q, horizon=1.0)
                    try:
                        sol = lpm.solve_lpm(prob, model)
                    except TargetTooHigh:
                        assert d >= math.exp(r) * (1.0 - 1e-6), (nu0, r, prob)
                        outcomes.append("TargetTooHigh")
                    except SolverDiverged:
                        outcomes.append("SolverDiverged")
                    else:
                        price, mean = _price_and_mean(sol)
                        assert abs(price - 1.0) <= lpm.RESIDUAL_TOL, (nu0, r, prob, price)
                        assert mean >= d * (1.0 - lpm.RESIDUAL_TOL), (nu0, r, prob, mean)
                        outcomes.append(sol.multipliers.case)
    assert len(outcomes) == 234
    assert {lpm.DEGENERATE_RICH, lpm.DEGENERATE_LOW_TARGET, "TargetTooHigh"} <= set(outcomes)


@pytest.mark.parametrize("sloped", [False, True])
@pytest.mark.parametrize("p", [0.0, 1.0])
def test_branch_width_funds_the_need(example1, p, sloped):
    ctx = market.deflator_context(example1, example1.horizon)
    sup = ctx.mean if p == 1.0 else 1.0
    for delta in (0.3, 0.8, 1.5):
        h = kernels.partial_moment_H(ctx, p, delta)
        for frac in (1e-9, 1e-3, 0.5, 0.999):
            need = frac * (sup - h)
            width = lpm.branch_width(ctx, p, delta, {p: h}, need, sloped)
            if sloped:
                funded = lpm._Start(ctx, delta).ramps((p,), width)[0]
                assert funded == pytest.approx(need, rel=1e-13)
            else:  # the inverse's own equation, free of the cancellation
                # in H_p(delta + width) - h
                reached = kernels.partial_moment_H(ctx, p, delta + width)
                assert reached == pytest.approx(h + need, rel=1e-13)
        for need in (0.0, -0.1):
            assert lpm.branch_width(ctx, p, delta, {p: h}, need, sloped) == 0.0
        # at or beyond the room under the supremum of H_p a ramp is
        # unbounded, and a flat branch stops short of the supremum
        widest = lpm.branch_width(ctx, p, delta, {p: h}, sup - h, sloped)
        if sloped:
            assert widest == math.inf
        else:
            assert math.isfinite(widest)
            assert lpm.branch_width(ctx, p, delta, {p: h}, 10.0 * sup, sloped) == widest
            assert widest > lpm.branch_width(ctx, p, delta, {p: h}, 0.999 * (sup - h), sloped)


@pytest.mark.parametrize("beta", [0.9, 0.95, 0.99])
def test_branch_width_just_below_delta_beta(example2, beta):
    # the CVaR condition beta = H_0(delta) + ramp_0(delta, rho) where the
    # need beta - H_0(delta) is a few 1e-9: a short sloped branch
    ctx = market.deflator_context(example2, example2.horizon)
    delta = kernels.invert_H(ctx, 0.0, beta) * (1.0 - 1e-8)
    h = kernels.partial_moment_H(ctx, 0.0, delta)
    need = beta - h
    assert 0.0 < need < 1e-8
    width = lpm.branch_width(ctx, 0.0, delta, {0.0: h}, need, True)
    assert 0.0 < width < 1e-6 * delta
    assert lpm._Start(ctx, delta).ramps((0.0,), width)[0] == pytest.approx(need, rel=1e-13)


def test_long_branches_evaluate_each_partial_moment_once(example1, monkeypatch):
    # the q = 2 residuals read H_0, H_1 and H_2 once at each end of a long
    # branch, and each trial width of the sloped root reads H_p and H_{p+1}
    # at its upper end only: the lower end's values are evaluated once
    ctx = market.deflator_context(example1, example1.horizon)
    kernel, root = kernels.truncated_exp_moment, lpm.find_root_1d
    evaluations, trials = [], []

    def counted(*args):
        evaluations.append(args)
        return kernel(*args)

    def traced_root(f, lo, hi, **kw):
        def trial(x):
            trials.append(math.exp(x))
            return f(x)

        return root(trial, lo, hi, **kw)

    monkeypatch.setattr(kernels, "truncated_exp_moment", counted)
    monkeypatch.setattr(lpm, "find_root_1d", traced_root)
    delta, rho = 0.4, 5.0
    start = lpm._Start(ctx, delta)
    assert not start.short(rho)
    problem = lpm.LpmProblem(x0=1.0, d=1.3, gamma=GAMMA, cap=10.0, q=2.0, horizon=1.0)
    lpm._regular_residuals(problem, lpm._Start(ctx, delta), rho)
    assert len(evaluations) == 6
    for p, sup in ((0.0, 1.0), (1.0, ctx.mean)):
        h = kernels.partial_moment_H(ctx, p, delta)
        evaluations.clear()
        trials.clear()
        lpm.branch_width(ctx, p, delta, {p: h}, 0.5 * (sup - h), True)
        assert len(trials) > 3 and not any(start.short(w) for w in trials)
        assert len(evaluations) == 1 + 2 * len(trials)


def test_ramp_rule_matches_gauss_legendre():
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(8)
    rule = np.array(kernels.GAUSS_LEGENDRE_8)
    np.testing.assert_allclose(rule[:, 0], 0.5 * (nodes + 1.0), rtol=0, atol=1e-15)
    np.testing.assert_allclose(rule[:, 1], 0.5 * weights, rtol=0, atol=1e-15)


def _raises(exc):
    def fail(*args, **kwargs):
        raise exc("injected")

    return fail


# the real root finder, out of budget after one iteration
_ONE_ITERATION = functools.partial(solvers.find_root_1d, max_iter=1)


@pytest.mark.parametrize("exc", [NoSignChange, TargetOutOfRange])
def test_failed_reduction_root_is_solver_diverged(example1, monkeypatch, exc):
    monkeypatch.setattr(lpm, "find_root_1d", _raises(exc))
    with pytest.raises(SolverDiverged, match="multiplier solve failed"):
        lpm.solve_lpm(_problem(1.0), example1)


def test_spent_reduction_root_is_solver_diverged(example1, monkeypatch):
    monkeypatch.setattr(lpm, "find_root_1d", _ONE_ITERATION)
    with pytest.raises(SolverDiverged, match="no root after 1 iterations"):
        lpm.solve_lpm(_problem(1.0), example1)


@pytest.mark.parametrize("q", [1.0, 2.0])
def test_residuals_above_the_gate_are_solver_diverged(example1, monkeypatch, q):
    # a mean residual of 1e-7 lies above lpm.RESIDUAL_TOL, so every route's
    # answer (for q = 2 the Newton's, then the reduction's) fails the gate
    monkeypatch.setattr(lpm, "_regular_residuals", lambda *args: (1e-7, 0.0))
    with pytest.raises(SolverDiverged, match="residuals too large"):
        lpm.solve_lpm(_problem(q), example1)


@pytest.mark.parametrize(
    "root, message",
    [(_raises(NoSignChange), "sloped branch width"), (_ONE_ITERATION, "no root after 1 iterations")],
    ids=["NoSignChange", "spent"],
)
def test_failed_sloped_width_root_is_solver_diverged(example1, monkeypatch, root, message):
    # at the flat width a ramp funds less than need, so a root without a sign
    # change is a failure, not a branch below resolution
    ctx = market.deflator_context(example1, example1.horizon)
    h = kernels.partial_moment_H(ctx, 0.0, 0.8)
    monkeypatch.setattr(lpm, "find_root_1d", root)
    with pytest.raises(SolverDiverged, match=message):
        lpm.branch_width(ctx, 0.0, 0.8, {0.0: h}, 0.5 * (1.0 - h), True)


@pytest.mark.parametrize("q", [1.0, 2.0])
def test_wealth_at_the_horizon_is_the_terminal_payoff(example1, q):
    pay = lpm.payoff(lpm.solve_lpm(_problem(q), example1))
    z = np.array([0.1, 0.5, 0.9, 1.0, 2.0, 5.0])
    np.testing.assert_array_equal(
        surface.wealth(pay, example1.horizon, z), surface.terminal_wealth(pay, z)
    )
