"""Scenario sampling and the static CVaR program, checked against a
directly-formulated primal solved by an off-the-shelf LP solver."""
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

from capfolio import baseline
from capfolio.errors import DomainError, SolverDiverged
from capfolio.market import market_from_config, validate_market

import markets


def test_scenario_moments_single_asset(example1):
    scen = baseline.generate_scenarios(example1, 40_000, seed=7)
    assert scen.returns.shape == (40_000, 2)
    assert scen.n_assets == 1
    assert scen.n_scenarios == 40_000
    # bond column is deterministic compounding
    np.testing.assert_allclose(scen.returns[:, 1], math.exp(0.06), rtol=1e-13)
    # log gross return of the asset is N((mu - sigma^2/2) T, sigma^2 T)
    logs = np.log(scen.returns[:, 0])
    n = logs.size
    assert logs.mean() == pytest.approx(0.12 - 0.5 * 0.15**2, abs=5 * 0.15 / math.sqrt(n))
    assert logs.std(ddof=1) == pytest.approx(0.15, rel=0.02)
    assert scen.returns[:, 0].mean() == pytest.approx(math.exp(0.12), rel=5e-3)


def test_scenario_moments_three_assets(example2):
    scen = baseline.generate_scenarios(example2, 60_000, seed=11)
    assert scen.returns.shape == (60_000, 4)
    np.testing.assert_allclose(scen.returns[:, 3], math.exp(0.016), rtol=1e-13)
    mean = scen.returns[:, :3].mean(axis=0)
    expect = np.exp(example2.drift[0])
    np.testing.assert_allclose(mean, expect, rtol=1e-2)


def test_scenario_moments_two_segments():
    # each segment adds its own drift, covariance and short rate over its length
    model = market_from_config(markets.TWO_SEGMENT)
    n = 40_000
    scen = baseline.generate_scenarios(model, n, seed=7)
    lengths = model.segment_lengths_between(0.0, model.horizon)
    covs = [np.asarray(v) @ np.asarray(v).T for v in model.vol]
    cov = sum(t * c for t, c in zip(lengths, covs))
    mean = sum(t * (np.asarray(m) - 0.5 * np.diag(c)) for t, m, c in zip(lengths, model.drift, covs))
    bond = math.exp(sum(t * r for t, r in zip(lengths, model.rate)))
    np.testing.assert_allclose(scen.returns[:, 2], bond, rtol=1e-13)
    logs = np.log(scen.returns[:, :2])
    assert np.all(np.abs(logs.mean(axis=0) - mean) < 5.0 * np.sqrt(np.diag(cov) / n))
    # a Gaussian sample covariance has variance (c_ii c_jj + c_ij^2) / n
    cov_se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
    assert np.all(np.abs(np.cov(logs.T) - cov) < 5.0 * cov_se)


def test_scenarios_reproducible_and_prefix_stable(example1):
    small = baseline.generate_scenarios(example1, 100, seed=3)
    again = baseline.generate_scenarios(example1, 100, seed=3)
    big = baseline.generate_scenarios(example1, 1000, seed=3)
    np.testing.assert_array_equal(small.returns, again.returns)
    np.testing.assert_array_equal(big.returns[:100], small.returns)
    other = baseline.generate_scenarios(example1, 100, seed=4)
    assert not np.array_equal(other.returns, small.returns)


def test_scenario_count_validated(example1):
    with pytest.raises(DomainError):
        baseline.generate_scenarios(example1, 0, seed=1)


def test_build_lp_defaults_and_validation(example1):
    scen = baseline.generate_scenarios(example1, 50, seed=1)
    with pytest.raises(DomainError):
        baseline.solve_static_cvar(scen, beta=1.0, d=1.09, x0=1.0, xbar=1.25)
    with pytest.raises(DomainError):
        baseline.solve_static_cvar(scen, beta=0.9, d=1.09, x0=0.0, xbar=1.25)
    # a non-finite input is named up front, not met later as a singular basis
    cell = dict(beta=0.9, d=1.09, x0=1.0, xbar=1.25)
    for name in ("beta", "d", "x0", "xbar"):
        for bad in (math.nan, math.inf, -math.inf, 10**400, "0.9"):
            with pytest.raises(DomainError, match=f"^{name} must be finite"):
                baseline.solve_static_cvar(scen, **{**cell, name: bad})


def _primal_reference(scen, beta, d, x0, xbar):
    """Solve the scenario CVaR program in its natural primal variables
    (w, alpha, u) with an independent solver."""
    r = scen.returns
    n_scen, n_cols = r.shape
    load = 1.0 / ((1.0 - beta) * n_scen)
    cost = np.concatenate([np.zeros(n_cols), [1.0], np.full(n_scen, load)])
    # tail rows: -R_k'w - alpha - u_k <= -xbar; mean row: -mean(R)'w <= -d
    a_ub = np.zeros((n_scen + 1, n_cols + 1 + n_scen))
    a_ub[:n_scen, :n_cols] = -r
    a_ub[:n_scen, n_cols] = -1.0
    a_ub[:n_scen, n_cols + 1 :] = -np.eye(n_scen)
    a_ub[n_scen, :n_cols] = -r.mean(axis=0)
    b_ub = np.concatenate([np.full(n_scen, -xbar), [-d]])
    a_eq = np.zeros((1, n_cols + 1 + n_scen))
    a_eq[0, :n_cols] = 1.0
    bounds = [(None, None)] * (n_cols + 1) + [(0.0, None)] * n_scen
    res = linprog(
        cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[x0],
        bounds=bounds, method="highs",
    )
    return res


def test_dual_route_matches_primal_small(example1):
    scen = baseline.generate_scenarios(example1, 64, seed=5)
    cell = dict(beta=0.9, d=1.09, x0=1.0, xbar=scen.returns[0, -1])
    sol = baseline.solve_static_cvar(scen, **cell)
    assert sol.status == baseline.OPTIMAL
    ref = _primal_reference(scen, **cell)
    assert ref.status == 0
    assert sol.objective == pytest.approx(ref.fun, abs=1e-7)
    np.testing.assert_allclose(sol.weights, ref.x[:2], atol=1e-6)
    assert sol.alpha == pytest.approx(ref.x[2], abs=1e-6)
    # feasibility of the recovered allocation
    assert sol.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert (scen.returns @ sol.weights).mean() >= 1.09 - 1e-9


def test_dual_route_matches_primal_wide(example2):
    scen = baseline.generate_scenarios(example2, 500, seed=6)
    cell = dict(beta=0.95, d=11.0, x0=10.0, xbar=10.0 * scen.returns[0, -1])
    sol = baseline.solve_static_cvar(scen, **cell)
    assert sol.status == baseline.OPTIMAL
    ref = _primal_reference(scen, **cell)
    assert ref.status == 0
    assert sol.objective == pytest.approx(ref.fun, abs=1e-7)
    assert sol.weights.sum() == pytest.approx(10.0, abs=1e-8)


def test_tail_arbitrage_reported_unbounded():
    # the asset beats the bond in every scenario, so shorting the bond
    # without limit drives the loss, and its CVaR, to minus infinity
    returns = np.array([[1.20, 1.05], [1.30, 1.05], [1.10, 1.05]])
    scen = baseline.ScenarioSet(returns)
    sol = baseline.solve_static_cvar(scen, beta=0.6, d=1.0, x0=1.0, xbar=1.05)
    assert sol.status == baseline.UNBOUNDED
    assert sol.weights is None
    assert sol.objective == -math.inf


def test_unreachable_mean_reported_infeasible():
    # identical columns pin the portfolio mean at x0 * mean(R), so a floor
    # above that level cannot be met by any allocation of the budget
    returns = np.array([[1.00, 1.00], [1.10, 1.10], [0.95, 0.95]])
    scen = baseline.ScenarioSet(returns)
    sol = baseline.solve_static_cvar(scen, beta=0.6, d=5.0, x0=1.0, xbar=1.0)
    assert sol.status == baseline.INFEASIBLE
    assert sol.weights is None
    assert math.isnan(sol.objective)


def test_negative_mean_column_starts_at_the_other_box_multiplier():
    # a column with a negative mean and returns of both signs: the master's
    # first basis cancels it on row w_1 with the multiplier of -w_1 <= box
    rng = np.random.default_rng(4)
    n = 500
    returns = np.column_stack(
        [1.02 + rng.normal(0.05, 0.2, n), rng.normal(-0.05, 1.0, n), np.full(n, 1.02)]
    )
    assert returns[:, 1].mean() < 0.0 < returns[:, 1].max() and returns[:, 1].min() < 0.0
    scen = baseline.ScenarioSet(returns)
    cell = dict(beta=0.9, d=1.05, x0=1.0, xbar=1.02)
    master = baseline._Master(baseline._Lp(returns, **cell))
    np.testing.assert_array_equal(master.program.basis, [2, 6, 4, 9, 8])
    sol = baseline.solve_static_cvar(scen, **cell)
    ref = _primal_reference(scen, **cell)
    assert sol.status == baseline.OPTIMAL and ref.status == 0
    assert sol.objective == pytest.approx(ref.fun, rel=1e-9)
    assert sol.objective == pytest.approx(0.0172579372043, rel=1e-9)


def test_solve_static_end_to_end(example1):
    scen = baseline.generate_scenarios(example1, 2000, seed=12)
    cell = dict(beta=0.9, d=1.09, x0=1.0, xbar=scen.returns[0, -1])
    sol = baseline.solve_static_cvar(scen, **cell)
    assert sol.status == baseline.OPTIMAL
    # the mean floor exceeds the bond return, so tail risk must be taken on
    assert sol.objective > 0.0
    assert sol.weights.sum() == pytest.approx(1.0, abs=1e-8)
    ref = _primal_reference(scen, **cell)
    assert sol.objective == pytest.approx(ref.fun, abs=1e-7)


def test_single_asset_market_promotion():
    model = validate_market(0.5, 0.02, 0.08, 0.25)
    scen = baseline.generate_scenarios(model, 5000, seed=2)
    logs = np.log(scen.returns[:, 0])
    assert logs.mean() == pytest.approx(
        (0.08 - 0.5 * 0.25**2) * 0.5, abs=5 * 0.25 * math.sqrt(0.5) / math.sqrt(5000)
    )
    np.testing.assert_allclose(scen.returns[:, 1], math.exp(0.01), rtol=1e-14)


@pytest.mark.parametrize("beta", [0.90, 0.95, 0.99])
def test_cuts_match_highs_on_criterion_grid(example2, beta):
    scen = baseline.generate_scenarios(example2, 2000, seed=12345)
    for d in (11.0, 12.0, 13.0):
        cell = dict(beta=beta, d=d, x0=10.0, xbar=10.0 * scen.returns[0, -1])
        sol = baseline.solve_static_cvar(scen, **cell)
        ref = _primal_reference(scen, **cell)
        assert sol.status == baseline.OPTIMAL and ref.status == 0
        assert sol.objective == pytest.approx(ref.fun, rel=1e-9)
        np.testing.assert_allclose(sol.weights, ref.x[:4], rtol=0, atol=1e-6)


@pytest.mark.parametrize("beta", [0.90, 0.95, 0.99])
def test_var_tail_cuts_on_criterion_grid(example2, beta, monkeypatch):
    # cutting at each master portfolio's own VaR tail takes the same master
    # solves and simplex iterations in every cell of one beta, pinned here so
    # that a change to the pivot path shows, and the reported alpha is the
    # returned portfolio's VaR exactly
    want = {0.90: (25, 57), 0.95: (21, 46), 0.99: (17, 38)}[beta]
    solves = []
    solve = baseline.simplex.Program.solve

    def counted(program):
        result = solve(program)
        solves.append(result.iterations)
        return result

    monkeypatch.setattr(baseline.simplex.Program, "solve", counted)
    scen = baseline.generate_scenarios(example2, 2000, seed=12345)
    k = math.ceil(beta * scen.n_scenarios) - 1
    xbar = 10.0 * scen.returns[0, -1]
    for d in (11.0, 12.0, 13.0):
        solves.clear()
        sol = baseline.solve_static_cvar(scen, beta=beta, d=d, x0=10.0, xbar=xbar)
        assert sol.status == baseline.OPTIMAL
        assert (len(solves), sum(solves)) == want
        assert sol.alpha == np.sort(xbar - scen.returns @ sol.weights)[k]


def test_cuts_match_highs_on_random_markets(monkeypatch):
    # seeded draws of 1-3 lognormal assets plus a bond, targets from below
    # the bond's mean to above the best asset's; the status and the optimum
    # must agree with HiGHS on the primal program
    refused = []
    add_cut = baseline._Master.add_cut

    def recorded(master, tail):
        added = add_cut(master, tail)
        refused.append(not added)
        return added

    monkeypatch.setattr(baseline._Master, "add_cut", recorded)
    status = {0: baseline.OPTIMAL, 2: baseline.INFEASIBLE, 3: baseline.UNBOUNDED}
    rng = np.random.default_rng(2000)
    for _ in range(40):
        n_risky = int(rng.integers(1, 4))
        n_scen = round(math.exp(rng.uniform(math.log(100), math.log(2000))))
        beta = float(rng.choice([0.5, 0.8, 0.9, 0.95, 0.99]))
        bond = 1.0 + rng.uniform(0.0, 0.05)
        vol = rng.uniform(0.05, 0.3, n_risky)
        factor = rng.standard_normal((n_scen, 1))
        shocks = 0.6 * factor + 0.8 * rng.standard_normal((n_scen, n_risky))
        risky = bond * np.exp(rng.uniform(0.0, 0.12, n_risky) - 0.5 * vol**2 + vol * shocks)
        returns = np.column_stack([risky, np.full(n_scen, bond)])
        means = returns.mean(axis=0)
        d = rng.uniform(bond - 0.05, means.max() + 0.1)
        scen = baseline.ScenarioSet(returns)
        cell = dict(beta=beta, d=d, x0=1.0, xbar=bond)
        sol = baseline.solve_static_cvar(scen, **cell)
        ref = _primal_reference(scen, **cell)
        assert sol.status == status[ref.status]
        if ref.status == 0:
            assert sol.objective == pytest.approx(ref.fun, rel=1e-9)
    assert any(refused)  # some round fell back to the master point's tail


def _hedge_scenarios(n, spread_mean, spread_sd):
    """Bond 1.02, a risky asset, and a near copy that beats it by a small
    noisy spread: the cheapest tail risk is a large long-short position."""
    rng = np.random.default_rng(3)
    risky = 1.02 + rng.normal(0.05, 0.2, n)
    copy = risky + rng.normal(spread_mean, spread_sd, n)
    returns = np.column_stack([risky, copy, np.full(n, 1.02)])
    return baseline.ScenarioSet(returns)


def _record_boxes(monkeypatch):
    boxes = []
    rounds = baseline._cut_rounds

    def recorded(lp, master, box):
        boxes.append(box)
        return rounds(lp, master, box)

    monkeypatch.setattr(baseline, "_cut_rounds", recorded)
    return boxes


def test_box_grows_to_an_optimum_beyond_it(monkeypatch):
    boxes = _record_boxes(monkeypatch)
    scen = _hedge_scenarios(400, 1e-3, 2e-3)
    cell = dict(beta=0.9, d=1.52, x0=1.0, xbar=1.02)
    sol = baseline.solve_static_cvar(scen, **cell)
    assert sol.status == baseline.OPTIMAL
    assert np.max(np.abs(sol.weights)) > 100.0
    assert max(boxes) > 100.0
    ref = _primal_reference(scen, **cell)
    assert ref.status == 0
    assert sol.objective == pytest.approx(ref.fun, rel=1e-9)
    np.testing.assert_allclose(sol.weights, ref.x[:3], rtol=1e-8)


def test_tail_arbitrage_reported_after_the_box_grew(monkeypatch):
    # the copy beats the risky asset in every scenario by at least 3e-4
    scen = _hedge_scenarios(400, 1e-3, 2e-4)
    assert np.min(scen.returns[:, 1] - scen.returns[:, 0]) > 3e-4
    boxes = _record_boxes(monkeypatch)
    cell = dict(beta=0.9, d=1.52, x0=1.0, xbar=1.02)
    sol = baseline.solve_static_cvar(scen, **cell)
    assert sol.status == baseline.UNBOUNDED
    assert sol.weights is None and sol.objective == -math.inf
    assert boxes[0] == 100.0 and max(boxes) > boxes[0]
    assert _primal_reference(scen, **cell).status == 3


def test_duplicate_asset_keeps_the_first_box_optimum(monkeypatch):
    # two identical columns leave the optimum on an unbounded face: the box
    # binds, a wider one gives the same value, and the narrower is kept
    risky = 1.02 + np.random.default_rng(3).normal(0.05, 0.2, 50)
    returns = np.column_stack([risky, risky, np.full(50, 1.02)])
    scen = baseline.ScenarioSet(returns)
    boxes = _record_boxes(monkeypatch)
    cell = dict(beta=0.5, d=1.1, x0=1.0, xbar=1.02)
    sol = baseline.solve_static_cvar(scen, **cell)
    assert sol.status == baseline.OPTIMAL
    assert boxes == [100.0, 10000.0]
    assert np.max(np.abs(sol.weights)) <= 100.0 * (1 + 1e-12)
    assert sol.objective == pytest.approx(_primal_reference(scen, **cell).fun, rel=1e-9)


def test_non_unique_var_level(example1):
    # (1 - beta) N = 100 scenarios exactly: every alpha between the 300th
    # and 301st smallest loss is optimal, so only the value is pinned
    scen = baseline.generate_scenarios(example1, 400, seed=9)
    cell = dict(beta=0.75, d=1.09, x0=1.0, xbar=scen.returns[0, -1])
    assert (1.0 - cell["beta"]) * scen.n_scenarios == 100.0
    sol = baseline.solve_static_cvar(scen, **cell)
    assert sol.status == baseline.OPTIMAL
    ref = _primal_reference(scen, **cell)
    assert ref.status == 0
    assert sol.objective == pytest.approx(ref.fun, rel=1e-9)
    assert sol.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert (scen.returns @ sol.weights).mean() >= 1.09 - 1e-12
    losses = np.sort(cell["xbar"] - scen.returns @ sol.weights)
    assert losses[299] - 1e-9 <= sol.alpha <= losses[300] + 1e-9


def test_cuts_held_without_the_gap_test_give_the_optimum(example1, monkeypatch):
    # a negative gap tolerance never passes, so the rounds run until the master
    # holds both cuts of its point; that return alone leaves a status Optimal
    scen = baseline.generate_scenarios(example1, 200, seed=12)
    cell = dict(beta=0.9, d=1.09, x0=1.0, xbar=scen.returns[0, -1])
    want = baseline.solve_static_cvar(scen, **cell)
    monkeypatch.setattr(baseline, "_GAP", -1.0)
    got = baseline.solve_static_cvar(scen, **cell)
    assert got.status == want.status == baseline.OPTIMAL
    assert got.objective == pytest.approx(want.objective, rel=1e-12)
    np.testing.assert_allclose(got.weights, want.weights, rtol=1e-9)


def test_cut_rounds_out_of_rounds_is_a_breakdown(example1, monkeypatch):
    monkeypatch.setattr(baseline, "_MAX_ROUNDS", 0)
    scen = baseline.generate_scenarios(example1, 200, seed=12)
    with pytest.raises(SolverDiverged, match="cutting planes left a gap"):
        baseline.solve_static_cvar(scen, beta=0.9, d=1.09, x0=1.0, xbar=scen.returns[0, -1])


def test_optimum_failing_its_primal_check_is_a_breakdown(example1, monkeypatch):
    # the recomputed CVaR of the recovered portfolio disagrees by 1
    estimate = baseline.estimate_cvar
    monkeypatch.setattr(
        baseline, "estimate_cvar",
        lambda *args: SimpleNamespace(value=estimate(*args).value + 1.0),
    )
    scen = baseline.generate_scenarios(example1, 200, seed=12)
    with pytest.raises(SolverDiverged, match="fails primal checks"):
        baseline.solve_static_cvar(scen, beta=0.9, d=1.09, x0=1.0, xbar=scen.returns[0, -1])
