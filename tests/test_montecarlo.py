"""Path simulation, policy replication, and risk estimators."""
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from capfolio import baseline, cvar, lpm, market, meanvar, montecarlo, surface
from capfolio.errors import DomainError

import markets

GAMMA = math.exp(0.06)
# the calibrated markets of the law tests, each with an LPM problem's
# (x0, d, gamma, cap); two_segment breaks at 0.7 of T = 2, on the grid of
# any multiple of 20 steps
LAW_MARKETS = {
    "example1": (markets.EXAMPLE1, (1.0, 1.3, GAMMA, 10.0)),
    "example2": (markets.EXAMPLE2, (10.0, 12.0, 10.5, 100.0)),
    "two_segment": (markets.TWO_SEGMENT, (1.0, 1.3, 1.05, 5.0)),
}


def _law_cases(*steps):
    """Parametrize over LAW_MARKETS by name, with each market's step count."""
    return pytest.mark.parametrize("name, n_steps", zip(LAW_MARKETS, steps), ids=list(LAW_MARKETS))


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


def test_deflator_deterministic_when_theta_zero(monkeypatch):
    # nu = 0 on this market, where every policy raises DomainError (no
    # limit), so the run steps the deflator under a policy scale held at 0
    model = _flat_market()
    monkeypatch.setattr(surface, "policy_scale", lambda payoff, t, z: np.zeros_like(z))
    z_t = montecarlo.run_policy(model, _flat(model, 1.0), 50, 16, seed=3).z_terminal
    np.testing.assert_allclose(z_t, math.exp(-0.04), rtol=1e-13)


@_law_cases(8, 8, 20)
def test_deflator_mean_matches_discount(name, n_steps):
    # E[z(T)] = exp(m0 + nu0^2 / 2) = exp(-int r), with nu0 0.4, 0.788, 0.497
    model = market.market_from_config(LAW_MARKETS[name][0])
    moments = market.deflator_moments(model, 0.0)
    est = montecarlo.estimate_mean(_deflator(model, 4000, n_steps, seed=11))
    assert abs(est.value - math.exp(moments.m + 0.5 * moments.nu**2)) < 4.0 * est.std_error


@_law_cases(3, 3, 20)
def test_deflator_lognormal_moments(name, n_steps):
    # exact stepping: ln z(T) is N(m0, nu0^2) regardless of the step count,
    # so the one normal per step carries the variance ||theta||^2 dt
    model = market.market_from_config(LAW_MARKETS[name][0])
    moments = market.deflator_moments(model, 0.0)
    logs = np.log(_deflator(model, 6000, n_steps, seed=5))
    assert abs(logs.mean() - moments.m) < 4.0 * logs.std(ddof=1) / math.sqrt(6000)
    assert logs.std(ddof=1) == pytest.approx(moments.nu, rel=0.05)


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


@_law_cases(64, 64, 80)
def test_shortfall_policy_replicates_target_mean(name, n_steps):
    block, (x0, d, gamma, cap) = LAW_MARKETS[name]
    model = market.market_from_config(block)
    prob = lpm.LpmProblem(x0=x0, d=d, gamma=gamma, cap=cap, q=1.0, horizon=model.horizon)
    payoff = lpm.payoff(lpm.solve_lpm(prob, model))
    assert surface.wealth(payoff, 0.0, 1.0) == pytest.approx(x0, rel=1e-7)
    out = montecarlo.run_policy(model, payoff, 3000, n_steps, seed=9)
    assert out.x_terminal.shape == out.z_terminal.shape == (3000,)
    est = montecarlo.estimate_mean(out.x_terminal)
    assert abs(est.value - d) < 5.0 * est.std_error


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
    # std([0] * 7 + [1, 2, 3], ddof=1) / ((1 - beta) sqrt(n)); sqrt(n - 1) gives 1.1944...
    assert est.std_error == pytest.approx(1.1331154474650633, rel=1e-12)


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
    with pytest.raises(DomainError, match="at least 2 samples"):
        montecarlo.estimate_mean([])
    with pytest.raises(DomainError, match="at least 2 samples"):
        montecarlo.estimate_mean([1.0])
    with pytest.raises(DomainError, match="at least 2 samples"):
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


def _scalar_shock(model, s, seed, k, n_paths, dt):
    """theta_s' dW over step k as `run_policy` draws it: one normal per path
    from the stream keyed (seed, k), times sqrt(dt) ||theta_s||."""
    g = montecarlo.stream(seed, k).standard_normal(n_paths)
    return (g * math.sqrt(dt)) * math.sqrt(model.theta_sq[s])


def _contracted_shock(model, s, seed, k, n_paths, dt):
    """theta_s' dW over step k from the per-asset block of `increments`."""
    return montecarlo.increments(model, seed, k, n_paths, dt) @ np.asarray(model.theta[s])


def _reference_deflator(model, n_paths, n_steps, seed, shock=_scalar_shock):
    """z on the step grid, path-major, from a loop that draws every step."""
    times = np.linspace(0.0, model.horizon, n_steps + 1)
    dt = model.horizon / n_steps
    log_z = np.zeros((n_paths, n_steps + 1))
    for k in range(n_steps):
        s = model.segment_index(times[k])
        drift = -(model.rate[s] + 0.5 * model.theta_sq[s]) * dt
        log_z[:, k + 1] = log_z[:, k] + drift - shock(model, s, seed, k, n_paths, dt)
    return times, dt, np.exp(log_z)


def _two_pass_reference(model, payoff, n_paths, n_steps, seed, shock=_scalar_shock):
    """Deflator loop first, then a wealth loop that draws every step again
    and forms theta' dW and the policy scale itself; returns (z, x),
    path-major."""
    times, dt, z = _reference_deflator(model, n_paths, n_steps, seed, shock)
    x = np.full(n_paths, float(surface.wealth(payoff, 0.0, 1.0)))
    x_paths = np.empty((n_paths, n_steps + 1))
    x_paths[:, 0] = x
    for k in range(n_steps):
        s = model.segment_index(times[k])
        rate = model.rate[s]
        scale = surface.policy_scale(payoff, min(times[k], model.horizon - dt), z[:, k])
        noise = scale * shock(model, s, seed, k, n_paths, dt)
        x = x + (rate * x + scale * model.theta_sq[s]) * dt + noise
        x_paths[:, k + 1] = x
    return z, x_paths


def _full_policy_reference(model, payoff, n_paths, n_steps, seed):
    """The Euler step on the dollar policy itself: pi from `surface.policy`,
    dx = (r x + pi'(mu - r 1)) dt + pi' sigma dW with pi' sigma dW by einsum,
    on the rank-one dW = (theta / ||theta||) g sqrt(dt) of the one normal g
    per path that `run_policy` draws; returns (z(T), x(T))."""
    times, dt, z = _reference_deflator(model, n_paths, n_steps, seed)
    x = np.full(n_paths, float(surface.wealth(payoff, 0.0, 1.0)))
    drifts, vols = np.asarray(model.drift), np.asarray(model.vol)
    for k in range(n_steps):
        s = model.segment_index(times[k])
        rate = model.rate[s]
        pi = surface.policy(payoff, min(times[k], model.horizon - dt), z[:, k])
        g = montecarlo.stream(seed, k).standard_normal(n_paths) * math.sqrt(dt)
        dw = np.outer(g, np.asarray(model.theta[s]) / math.sqrt(model.theta_sq[s]))
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


def test_policy_scale_skips_the_zero_jump_of_a_q2_payoff(example1, monkeypatch):
    # the q = 2 payoff jumps from cap to gamma at its first level and falls
    # to 0 continuously at its second: one pdf term, not two
    prob = lpm.LpmProblem(x0=1.0, d=1.3, gamma=GAMMA, cap=10.0, q=2.0, horizon=1.0)
    payoff = lpm.payoff(lpm.solve_lpm(prob, example1))
    calls = []
    pdf = surface.std_normal_pdf_array

    def counted(y):
        calls.append(np.shape(y))
        return pdf(y)

    monkeypatch.setattr(surface, "std_normal_pdf_array", counted)
    for t in (0.0, 0.5):
        surface.policy_scale(payoff, t, np.geomspace(0.2, 5.0, 64))
    assert calls == [(64,), (64,)]


def _record_draws(monkeypatch):
    """Log the step index of every stream `run_policy` draws from."""
    calls = []
    draw = montecarlo.stream

    def recorded(seed, index):
        calls.append(index)
        return draw(seed, index)

    monkeypatch.setattr(montecarlo, "stream", recorded)
    return calls


def test_run_policy_draws_each_step_once(example1, example2, monkeypatch):
    calls = _record_draws(monkeypatch)
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


def test_one_asset_run_keeps_the_bits_of_the_per_asset_draw(example1, example2):
    # sqrt(fl(theta^2)) = theta for theta > 0, so on one asset the one normal
    # per path times sqrt(dt) ||theta|| is the per-asset block times theta,
    # bit for bit, also where sqrt(dt) = sqrt(1/24) is not a power of two
    thetas = np.random.default_rng(0).uniform(1e-3, 10.0, 100_000)
    np.testing.assert_array_equal(np.sqrt(thetas * thetas), thetas)
    for model, payoff in (_example_payoffs(example1, example2)[0], _three_segments()):
        assert model.n_assets == 1 and all(theta > 0.0 for (theta,) in model.theta)
        out = montecarlo.run_policy(model, payoff, 257, 24, seed=19)
        z_ref, x_ref = _two_pass_reference(model, payoff, 257, 24, 19, _contracted_shock)
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


def test_concurrent_runs_match_sequential_ones(example1, example2):
    # four callers on their own threads with a 10 us switch interval: no
    # run reads or moves another's state
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


def test_run_policy_stops_drawing_at_a_failing_step(example1, monkeypatch):
    calls = _record_draws(monkeypatch)
    payoff = _flat(example1, 1.0)
    scale = surface.policy_scale

    def bad_at_step_3(payoff, t, z):
        bad_at_step_3.calls += 1
        if bad_at_step_3.calls > 3:
            raise ArithmeticError("wealth step 3")
        return scale(payoff, t, z)

    bad_at_step_3.calls = 0
    monkeypatch.setattr(montecarlo.surface, "policy_scale", bad_at_step_3)
    with pytest.raises(ArithmeticError, match="wealth step 3"):
        montecarlo.run_policy(example1, payoff, 16, 8, seed=2)
    # each step draws its normals just before its wealth step, so the failing
    # step 3 is the last to draw
    assert calls == list(range(4))


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


def _draw(model, fn, seed, n_paths=4, n_steps=2, n=4):
    """One call of a seeded generator: run_policy or generate_scenarios."""
    if fn == "run_policy":
        return montecarlo.run_policy(model, _flat(model, 1.0), n_paths, n_steps, seed).z_terminal
    return baseline.generate_scenarios(model, n, seed).returns


@pytest.mark.parametrize(
    "seed", [-1, 2**64, 1.5, True, "3", None, np.float64(3.0)],
    ids=["negative", "2_64", "float", "bool", "str", "none", "np_float"],
)
@pytest.mark.parametrize("fn", ["run_policy", "generate_scenarios"])
def test_seed_must_be_a_philox_key_word(example1, fn, seed):
    # a seed keys a Philox stream of uint64 words: an integer in [0, 2**64)
    with pytest.raises(DomainError, match="seed"):
        _draw(example1, fn, seed)


@pytest.mark.parametrize(
    "size", [0, 2.5, True, "4", np.float64(4.0)], ids=["zero", "float", "bool", "str", "np_float"]
)
@pytest.mark.parametrize(
    "fn, name", [("run_policy", "n_paths"), ("run_policy", "n_steps"), ("generate_scenarios", "n")]
)
def test_sizes_must_be_positive_integers(example1, fn, name, size):
    with pytest.raises(DomainError, match=name):
        _draw(example1, fn, 3, **{name: size})


@pytest.mark.parametrize("fn", ["run_policy", "generate_scenarios"])
def test_valid_seeds_draw_the_stream_keyed_by_their_value(example1, fn):
    # numpy integers draw the Python int's stream, and the top key word works
    want = _draw(example1, fn, 7)
    for seed in (np.int64(7), np.uint64(7)):
        np.testing.assert_array_equal(_draw(example1, fn, seed), want)
    top = np.random.Generator(np.random.Philox(key=np.array([2**64 - 1, 0], dtype=np.uint64)))
    np.testing.assert_array_equal(
        montecarlo.stream(2**64 - 1, 0).standard_normal(8), top.standard_normal(8)
    )
    assert np.all(np.isfinite(_draw(example1, fn, 2**64 - 1)))
