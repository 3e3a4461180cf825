"""Path simulation, policy replication, and risk estimators."""
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from capfolio import cvar, lpm, market, meanvar, montecarlo, surface
from capfolio.errors import DomainError, EmptySample

GAMMA = math.exp(0.06)


def _flat_market():
    # mu = r kills the market price of risk, making z deterministic
    return market.validate_market(1.0, 0.04, 0.04, 0.2)


def _flat(model, x0):
    """The payoff that pays x0 / E[z(T)] everywhere: worth x0 at t = 0, with
    policy exactly 0, so its wealth only compounds at the short rate."""
    c = x0 / market.expected_deflator(model, 0.0, model.horizon)
    return lpm.Payoff(model, (math.inf,), (c,), (c,))


def _deflator(model, n_paths, n_steps, seed):
    """Terminal deflator of a bond-only run, which carries z unchanged."""
    return montecarlo.run_policy(model, _flat(model, 1.0), n_paths, n_steps, seed).z_terminal


def test_deflator_deterministic_when_theta_zero():
    # nu = 0 on this market, where every policy raises
    # PolicyUndefinedAtTerminal, so the deflator leg is stepped alone
    model = _flat_market()
    times = np.linspace(0.0, 1.0, 17)
    log_z = np.zeros(50)
    for k in range(16):
        log_z = montecarlo._deflator_leg(
            model, 3, k, times[k], 1.0 / 16, np.asarray(model.theta), log_z
        )[3]
    np.testing.assert_allclose(np.exp(log_z), math.exp(-0.04), rtol=1e-13)


def test_deflator_mean_matches_discount(example1):
    z_t = _deflator(example1, 4000, 8, seed=11)
    est = montecarlo.estimate_mean(z_t)
    assert abs(est.value - math.exp(-0.06)) < 4.0 * est.std_error


def test_deflator_lognormal_moments(example1):
    # exact stepping: ln z(T) is N(-0.14, 0.16) regardless of the step count
    logs = np.log(_deflator(example1, 6000, 3, seed=5))
    assert abs(logs.mean() + 0.14) < 4.0 * logs.std(ddof=1) / math.sqrt(6000)
    assert logs.std(ddof=1) == pytest.approx(0.4, rel=0.05)


def test_paths_reproducible_and_prefix_stable(example1):
    small = _deflator(example1, 100, 12, seed=7)
    again = _deflator(example1, 100, 12, seed=7)
    big = _deflator(example1, 1000, 12, seed=7)
    np.testing.assert_array_equal(small, again)
    # the counter-based stream makes the first rows independent of n_paths
    np.testing.assert_array_equal(big[:100], small)
    other = _deflator(example1, 100, 12, seed=8)
    assert not np.array_equal(other, small)


def test_simulate_validates_sizes(example1):
    with pytest.raises(DomainError):
        _deflator(example1, 0, 8, seed=1)
    with pytest.raises(DomainError):
        _deflator(example1, 8, 0, seed=1)


def test_bond_only_policy_compounds_at_short_rate(example1):
    out = montecarlo.run_policy(example1, _flat(example1, 1.0), 20, 32, seed=2)
    dt = 1.0 / 32
    want = (1.0 + 0.06 * dt) ** 32
    np.testing.assert_allclose(out.x_terminal, want, rtol=1e-13)
    assert want == pytest.approx(math.exp(0.06), rel=2e-4)


def test_shortfall_policy_replicates_target_mean(example1):
    prob = lpm.LpmProblem(x0=1.0, d=1.3, gamma=GAMMA, cap=10.0, q=1.0, horizon=1.0)
    payoff = lpm.payoff(lpm.solve_lpm(prob, example1))
    assert surface.wealth(payoff, 0.0, 1.0) == pytest.approx(1.0, rel=1e-7)
    out = montecarlo.run_policy(example1, payoff, 3000, 64, seed=9)
    assert out.x_terminal.shape == out.z_terminal.shape == (3000,)
    est = montecarlo.estimate_mean(out.x_terminal)
    assert abs(est.value - 1.3) < 5.0 * est.std_error


def test_meanvar_policy_starts_at_budget(example1):
    mult = meanvar.solve_mv(meanvar.MvProblem(x0=1.0, d=1.3, horizon=1.0), example1)
    payoff = meanvar.mv_payoff(mult, example1)
    assert surface.wealth(payoff, 0.0, 1.0) == pytest.approx(1.0, rel=0.0, abs=1e-10)
    out = montecarlo.run_policy(example1, payoff, 500, 32, seed=13)
    est = montecarlo.estimate_mean(out.x_terminal)
    assert abs(est.value - 1.3) < 6.0 * est.std_error


def test_estimate_mean_hand_values():
    est = montecarlo.estimate_mean([1.0, 2.0, 3.0, 4.0])
    assert est.value == 2.5
    assert est.std_error == pytest.approx(
        np.std([1, 2, 3, 4], ddof=1) / 2.0, rel=1e-12
    )
    assert est.n == 4
    assert est.measure == montecarlo.MEASURE_MEAN


def test_estimate_lpm_hand_values():
    samples = [0.5, 1.5, 0.8, 2.0]
    est1 = montecarlo.estimate_lpm(samples, gamma=1.0, q=1.0)
    assert est1.value == pytest.approx((0.5 + 0.0 + 0.2 + 0.0) / 4.0, rel=1e-14)
    est0 = montecarlo.estimate_lpm(samples, gamma=1.0, q=0.0)
    assert est0.value == 0.5  # two of four fall short
    est2 = montecarlo.estimate_lpm(samples, gamma=1.0, q=2.0)
    assert est2.value == pytest.approx((0.25 + 0.04) / 4.0, rel=1e-14)


def test_lpm_std_error_is_the_se_of_the_sample_mean():
    rng = np.random.default_rng(0)
    samples = rng.uniform(0.0, 2.0, size=200)
    est = montecarlo.estimate_lpm(samples, gamma=1.0, q=1.0)
    powered = np.maximum(1.0 - samples, 0.0)
    classic = powered.std(ddof=1) / math.sqrt(200)
    assert est.std_error == pytest.approx(classic, rel=1e-10)


def test_estimate_cvar_hand_case():
    # losses 1..10 at beta=0.7: VaR is the 7th smallest, tail mean is 9
    samples = [-float(k) for k in range(1, 11)]
    est = montecarlo.estimate_cvar(samples, beta=0.7, xbar=0.0)
    assert est.value == pytest.approx(9.0, rel=1e-14)
    assert est.n == 10


def test_estimate_cvar_point_mass():
    est = montecarlo.estimate_cvar([3.0] * 50, beta=0.9, xbar=5.0)
    assert est.value == 2.0
    assert est.std_error == 0.0


def test_estimate_cvar_equals_ru_minimum():
    rng = np.random.default_rng(21)
    samples = rng.normal(1.0, 0.5, size=400)
    beta, xbar = 0.9, 2.0
    est = montecarlo.estimate_cvar(samples, beta=beta, xbar=xbar)
    losses = xbar - samples
    ru = min(
        a + np.maximum(losses - a, 0.0).mean() / (1.0 - beta) for a in losses
    )
    assert est.value == pytest.approx(ru, rel=1e-12)


def test_estimate_cvar_validates_beta():
    with pytest.raises(DomainError):
        montecarlo.estimate_cvar([1.0, 2.0], beta=1.0, xbar=0.0)


def test_estimators_reject_degenerate_samples():
    with pytest.raises(EmptySample):
        montecarlo.estimate_mean([])
    with pytest.raises(EmptySample):
        montecarlo.estimate_mean([1.0])
    with pytest.raises(EmptySample):
        montecarlo.estimate_cvar([], beta=0.9, xbar=0.0)


def test_ensemble_summary_fields(example1):
    out = montecarlo.run_policy(example1, _flat(example1, 2.0), 50, 8, seed=4)
    summary = montecarlo.ensemble_summary(out)
    assert summary["n_paths"] == 50
    assert summary["n_steps"] == 8
    assert summary["seed"] == 4
    assert summary["x_terminal_mean"] == pytest.approx(
        2.0 * (1.0 + 0.06 / 8) ** 8, rel=1e-12
    )
    assert summary["z_terminal_mean"] == pytest.approx(
        float(out.z_terminal.mean()), rel=1e-15
    )


def _reference_deflator(model, n_paths, n_steps, seed):
    """z on the step grid, path-major, from a loop that draws every block."""
    times = np.linspace(0.0, model.horizon, n_steps + 1)
    dt = model.horizon / n_steps
    log_z = np.zeros((n_paths, n_steps + 1))
    for k in range(n_steps):
        theta = np.asarray(market.market_price_of_risk(model, times[k]))
        rate = model.rate[model.segment_index(times[k])]
        dw = montecarlo._step_increments(model, seed, k, n_paths, dt)
        drift = -(rate + 0.5 * float(theta @ theta)) * dt
        log_z[:, k + 1] = log_z[:, k] + drift - dw @ theta
    return times, dt, np.exp(log_z)


def _two_pass_reference(model, payoff, n_paths, n_steps, seed):
    """Deflator loop first, then a wealth loop that draws every block again
    and forms theta' dW and the policy scale itself; returns (z, x),
    path-major."""
    times, dt, z = _reference_deflator(model, n_paths, n_steps, seed)
    x = np.full(n_paths, float(surface.wealth(payoff, 0.0, 1.0)))
    x_paths = np.empty((n_paths, n_steps + 1))
    x_paths[:, 0] = x
    for k in range(n_steps):
        s = model.segment_index(times[k])
        rate = model.rate[s]
        scale = surface.policy_scale(payoff, min(times[k], model.horizon - dt), z[:, k])
        dw = montecarlo._step_increments(model, seed, k, n_paths, dt)
        shock = dw @ np.asarray(model.theta[s])
        x = x + (rate * x + scale * model.theta_sq[s]) * dt + scale * shock
        x_paths[:, k + 1] = x
    return z, x_paths


def _full_policy_reference(model, payoff, n_paths, n_steps, seed):
    """The Euler step on the dollar policy itself: pi from `surface.policy`,
    dx = (r x + pi'(mu - r 1)) dt + pi' sigma dW with pi' sigma dW by einsum;
    returns (z(T), x(T))."""
    times, dt, z = _reference_deflator(model, n_paths, n_steps, seed)
    x = np.full(n_paths, float(surface.wealth(payoff, 0.0, 1.0)))
    drifts, vols = np.asarray(model.drift), np.asarray(model.vol)
    for k in range(n_steps):
        s = model.segment_index(times[k])
        rate = model.rate[s]
        pi = surface.policy(payoff, min(times[k], model.horizon - dt), z[:, k])
        dw = montecarlo._step_increments(model, seed, k, n_paths, dt)
        noise = np.einsum("ij,jk,ik->i", pi, vols[s], dw)
        x = x + (rate * x + pi @ (drifts[s] - rate)) * dt + noise
    return z[:, -1], x


def _three_segments():
    """One asset; breaks at 0.3, between the step times k / 16, and at
    0.5 = 8 / 16, exactly on one; rate and theta change at each."""
    model = market.validate_market(
        1.0, [0.03, 0.06, 0.045], [0.09, 0.10, 0.12], [0.2, 0.15, 0.25],
        breakpoints=[0.0, 0.3, 0.5],
    )
    prob = lpm.LpmProblem(x0=1.0, d=1.2, gamma=GAMMA, cap=10.0, q=2.0, horizon=1.0)
    return model, lpm.payoff(lpm.solve_lpm(prob, model))


def _two_assets_three_segments():
    """Two assets with an asymmetric sigma that changes with r and mu at
    0.25 and 0.6."""
    model = market.validate_market(
        1.0,
        [0.02, 0.05, 0.035],
        [[0.08, 0.06], [0.09, 0.11], [0.07, 0.05]],
        [
            [[0.20, 0.05], [-0.03, 0.15]],
            [[0.25, 0.00], [0.10, 0.18]],
            [[0.18, -0.06], [0.02, 0.12]],
        ],
        breakpoints=[0.0, 0.25, 0.6],
    )
    prob = lpm.LpmProblem(x0=1.0, d=1.15, gamma=GAMMA, cap=10.0, q=1.0, horizon=1.0)
    return model, lpm.payoff(lpm.solve_lpm(prob, model))


def _example_payoffs(example1, example2):
    lpm1 = lpm.LpmProblem(x0=1.0, d=1.3, gamma=GAMMA, cap=10.0, q=2.0, horizon=1.0)
    cvar2 = cvar.CvarProblem(x0=10.0, d=12.0, cap=100.0, beta=0.95, horizon=1.0)
    return [
        (example1, lpm.payoff(lpm.solve_lpm(lpm1, example1))),
        (example2, lpm.payoff(cvar.solve_cvar(cvar2, example2).policy)),
    ]


def test_run_policy_draws_each_step_once(example1, example2, monkeypatch):
    calls = []
    draw = montecarlo._step_increments

    def counted(*args):
        calls.append(args[2])
        return draw(*args)

    monkeypatch.setattr(montecarlo, "_step_increments", counted)
    for model, payoff in _example_payoffs(example1, example2):
        calls.clear()
        montecarlo.run_policy(model, payoff, 40, 12, seed=3)
        assert calls == list(range(12))


def test_run_policy_matches_two_pass_reference_bit_for_bit(example1, example2):
    for model, payoff in _example_payoffs(example1, example2):
        out = montecarlo.run_policy(model, payoff, 257, 24, seed=19)
        z_ref, x_ref = _two_pass_reference(model, payoff, 257, 24, 19)
        np.testing.assert_array_equal(out.z_terminal, z_ref[:, -1])
        np.testing.assert_array_equal(out.x_terminal, x_ref[:, -1])


def test_run_policy_matches_two_pass_reference_across_segments():
    model, payoff = _three_segments()
    assert 0.5 in np.linspace(0.0, 1.0, 17) and 0.3 not in np.linspace(0.0, 1.0, 17)
    out = montecarlo.run_policy(model, payoff, 257, 16, seed=23)
    z_ref, x_ref = _two_pass_reference(model, payoff, 257, 16, 23)
    np.testing.assert_array_equal(out.z_terminal, z_ref[:, -1])
    np.testing.assert_array_equal(out.x_terminal, x_ref[:, -1])


def test_run_policy_matches_the_dollar_policy_step(example1, example2):
    # the scalar step on theta' dW is the Euler step on pi = surface.policy
    # up to rounding, and the deflator is the same bits
    cases = [
        *((model, payoff, 24) for model, payoff in _example_payoffs(example1, example2)),
        (*_three_segments(), 16),
        (*_two_assets_three_segments(), 20),
    ]
    for model, payoff, n_steps in cases:
        out = montecarlo.run_policy(model, payoff, 257, n_steps, seed=19)
        z_ref, x_ref = _full_policy_reference(model, payoff, 257, n_steps, 19)
        np.testing.assert_array_equal(out.z_terminal, z_ref)
        np.testing.assert_allclose(
            out.x_terminal, x_ref, rtol=0.0, atol=1e-13 * np.abs(x_ref).max()
        )


def _record_draws(monkeypatch, delay=0.0):
    """Log the step of every block draw, sleeping delay seconds on odd steps."""
    calls = []
    draw = montecarlo._step_increments

    def recorded(*args):
        calls.append(args[2])
        if delay and args[2] % 2:
            time.sleep(delay)
        return draw(*args)

    monkeypatch.setattr(montecarlo, "_step_increments", recorded)
    return calls


def test_run_policy_results_do_not_depend_on_timing(example1, example2, monkeypatch):
    # the deflator leg runs ahead on a worker: slowing its draws on alternate
    # steps changes which leg waits, never the bits or the draw order
    runs = [(m, p, montecarlo.run_policy(m, p, 64, 12, seed=29))
            for m, p in _example_payoffs(example1, example2)]
    calls = _record_draws(monkeypatch, delay=0.003)
    for model, payoff, want in runs:
        calls.clear()
        out = montecarlo.run_policy(model, payoff, 64, 12, seed=29)
        np.testing.assert_array_equal(out.z_terminal, want.z_terminal)
        np.testing.assert_array_equal(out.x_terminal, want.x_terminal)
        assert calls == list(range(12))


def test_concurrent_runs_match_sequential_ones(example1, example2):
    # four callers with a worker each, eight threads on a 10 us switch
    # interval: no run reads or moves another's state
    jobs = _example_payoffs(example1, example2) * 2
    wants = [montecarlo.run_policy(m, p, 64, 12, seed=31) for m, p in jobs]
    results = [None] * len(jobs)

    def run(i, model, payoff):
        results[i] = montecarlo.run_policy(model, payoff, 64, 12, seed=31)

    threads = [threading.Thread(target=run, args=(i, *job)) for i, job in enumerate(jobs)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for got, want in zip(results, wants):
        np.testing.assert_array_equal(got.z_terminal, want.z_terminal)
        np.testing.assert_array_equal(got.x_terminal, want.x_terminal)


def test_run_policy_leaves_no_worker_behind(example1, monkeypatch):
    calls = _record_draws(monkeypatch)
    threads = threading.active_count()
    payoff = _flat(example1, 1.0)
    montecarlo.run_policy(example1, payoff, 16, 8, seed=2)
    assert threading.active_count() == threads
    scale = surface.policy_scale

    def bad_at_step_3(payoff, t, z):
        bad_at_step_3.calls += 1
        if bad_at_step_3.calls > 3:
            raise ArithmeticError("wealth step 3")
        return scale(payoff, t, z)

    bad_at_step_3.calls = 0
    monkeypatch.setattr(montecarlo.surface, "policy_scale", bad_at_step_3)
    calls.clear()
    with pytest.raises(ArithmeticError, match="wealth step 3"):
        montecarlo.run_policy(example1, payoff, 16, 8, seed=2)
    assert threading.active_count() == threads
    # step 4's block was drawn ahead of the failing wealth step 3, no later one
    assert calls == list(range(5))


def test_run_policy_memory_does_not_grow_with_steps(example1, example2):
    # running state only: the peak stays a few floats per path at 512 steps,
    # where storing the paths would take (n_steps + 1) floats per path each;
    # one bound for one asset and three, as the wealth leg forms no per-asset block
    n_paths = 2000
    for model, payoff in _example_payoffs(example1, example2):
        # a short run first, so that the imports and caches of the first
        # policy evaluation are not counted as the run's memory
        montecarlo.run_policy(model, payoff, 10, 2, seed=1)
        tracemalloc.start()
        try:
            montecarlo.run_policy(model, payoff, n_paths, 512, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * n_paths * 8, (model.n_assets, peak / (n_paths * 8))
