"""No result depends on the unit of money.

Every problem here is positively homogeneous in its money amounts (x0, d,
gamma, cap, xbar): measured in a unit k times smaller, the optimal payoff,
its wealth and the static weights scale by k, an objective of order q by
k^q (CVaR and the static CVaR by k), the LPM multipliers by k^(q - 1) and
the mean-variance ones by k, while the deflator thresholds delta and rho,
the case and the hit probability do not move. A power of two k = 2^e scales
every float exactly, so each relation is a bit equality (Chen et al. 2018,
"Metamorphic testing", ACM CSUR 51(1)): the solves gate their residuals
relative to d and x0, and the static LP works in units of 2^round(log2 x0).
Where e q is not an integer (q = 0.5 at odd e) k^q is not a float: there the
objective and the multipliers agree with the unit-scale value times k^q to
2 ulps (1.38 at worst against the exact product, measured over this grid).
"""
import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from capfolio import baseline, cli, cvar, lpm, meanvar, montecarlo, surface
from capfolio.errors import SolverDiverged
from capfolio.market import expected_deflator, market_from_config

import markets

EXPONENTS = (-60, -40, -20, -1, 1, 20, 40, 60)
MARKETS = {
    "example1": markets.EXAMPLE1,
    "example2": markets.EXAMPLE2,
    "two_segment": markets.TWO_SEGMENT,
}
QS = (0.0, 0.5, 1.0, 2.0)
CASES = (lpm.REGULAR, lpm.DEGENERATE_LOW_TARGET, lpm.DEGENERATE_RICH)


@functools.cache
def _model(name):
    return market_from_config(MARKETS[name])


def _scale(problem, k, money=("x0", "d", "gamma", "cap")):
    """The problem with its money amounts times k."""
    return dataclasses.replace(problem, **{f: getattr(problem, f) * k for f in money})


def _assert_scaled(got, unit_value, e, power=1.0):
    want = unit_value * 2.0 ** (e * power)
    if float(e * power).is_integer():
        assert got == want, (got, want)
    else:
        assert abs(got - want) <= 2.0 * math.ulp(want), (got, want)


@functools.cache
def _lpm_unit(name):
    """Solutions at x0 = 1 per q: five Regular targets and one target in each
    degenerate case, with gamma above x0 / E[z] (Regular, DegenerateLowTarget)
    and below it (DegenerateRich)."""
    model = _model(name)
    ez = expected_deflator(model, 0.0, model.horizon)
    out = []
    for q in QS:
        for gamma, fractions in ((1.2 / ez, (0.1, 0.3, 0.5, 0.7, 0.9, None)), (0.8 / ez, (None,))):
            probe = lpm.LpmProblem(x0=1.0, d=1.0, gamma=gamma, cap=10.0, q=q, horizon=model.horizon)
            lo, hi = lpm.d_bounds(probe, model)
            for f in fractions:
                d = 0.5 * lo if f is None else lo + f * (hi - lo)
                out.append(lpm.solve_lpm(dataclasses.replace(probe, d=d), model))
    return out


def _assert_lpm_scaled(got, unit, e):
    q = unit.problem.q
    assert got.multipliers.case == unit.multipliers.case
    assert (got.delta, got.rho, got.hit_prob) == (unit.delta, unit.rho, unit.hit_prob)
    assert got.multiple_solutions == unit.multiple_solutions
    _assert_scaled(got.objective_value, unit.objective_value, e, q)
    _assert_scaled(got.multipliers.mean, unit.multipliers.mean, e, q - 1.0)
    _assert_scaled(got.multipliers.budget, unit.multipliers.budget, e, q - 1.0)
    _assert_scaled(got.d_lower, unit.d_lower, e)
    _assert_scaled(got.d_upper, unit.d_upper, e)


def test_lpm_instances_cover_every_case_and_order():
    for name in MARKETS:
        seen = {(s.problem.q, s.multipliers.case) for s in _lpm_unit(name)}
        assert seen == {(q, case) for q in QS for case in CASES}


@pytest.mark.parametrize("name", MARKETS)
def test_lpm_solve_scales_bit_for_bit(name):
    for e in EXPONENTS:
        for unit in _lpm_unit(name):
            _assert_lpm_scaled(lpm.solve_lpm(_scale(unit.problem, 2.0**e), _model(name)), unit, e)


@functools.cache
def _cvar_problems(name):
    model = _model(name)
    ez = expected_deflator(model, 0.0, model.horizon)
    return [
        cvar.CvarProblem(x0=10.0, d=10.0 * f / ez, cap=100.0, beta=beta, horizon=model.horizon)
        for beta in (0.9, 0.95)
        for f in (1.05, 1.2)
    ]


@pytest.mark.parametrize("name", MARKETS)
def test_cvar_solve_scales_bit_for_bit(name):
    model = _model(name)
    for problem in _cvar_problems(name):
        unit = cvar.solve_cvar(problem, model)
        for e in EXPONENTS:
            k = 2.0**e
            got = cvar.solve_cvar(_scale(problem, k, ("x0", "d", "cap")), model)
            assert (got.xbar, got.alpha_star, got.cvar) == (
                unit.xbar * k, unit.alpha_star * k, unit.cvar * k
            )
            _assert_lpm_scaled(got.policy, unit.policy, e)


@pytest.mark.parametrize("name", MARKETS)
def test_mean_variance_solve_scales_bit_for_bit(name):
    model = _model(name)
    ez = expected_deflator(model, 0.0, model.horizon)
    for f in (1.02, 1.2, 2.0):
        problem = meanvar.MvProblem(x0=1.0, d=f / ez, horizon=model.horizon)
        unit = meanvar.solve_mv(problem, model)
        for k in (2.0**e for e in EXPONENTS):
            got = meanvar.solve_mv(_scale(problem, k, ("x0", "d")), model)
            assert (got.mean, got.budget, got.case) == (unit.mean * k, unit.budget * k, unit.case)


def test_a_mean_variance_rejection_does_not_depend_on_the_unit():
    # a nearly riskless market (nu0 = 1e-12) where H_0, H_1 and H_2 are steps
    # near E[z]: one float above the floor the solve stalls at a relative mean
    # residual of -1.5e-6, at every scale, not only where d and x0 exceed 1
    segment = {"t_start": 0.0, "r": 0.05, "mu": [0.05 + 2e-13], "sigma": [[0.2]]}
    model = market_from_config({"horizon": 1.0, "segments": [segment]})
    problem = meanvar.MvProblem(x0=1.0, d=1.0512710963760243, horizon=1.0)
    for k in (1.0, *(2.0**e for e in EXPONENTS)):
        with pytest.raises(SolverDiverged, match="stalled at residuals"):
            meanvar.solve_mv(_scale(problem, k, ("x0", "d")), model)


@pytest.mark.parametrize("name", MARKETS)
def test_static_lp_scales_bit_for_bit(name):
    # x0 = 3 is not a power of two: the LP runs in units of 4 at every scale
    scen = baseline.generate_scenarios(_model(name), 400, seed=7)
    cell = dict(beta=0.9, d=3.3, x0=3.0, xbar=3.0 * float(scen.returns[0, -1]))
    unit = baseline.solve_static_cvar(scen, **cell)
    assert unit.status == baseline.OPTIMAL
    for k in (2.0**e for e in EXPONENTS):
        scaled = {key: v if key == "beta" else v * k for key, v in cell.items()}
        got = baseline.solve_static_cvar(scen, **scaled)
        assert got.status == baseline.OPTIMAL
        assert (got.alpha, got.objective) == (unit.alpha * k, unit.objective * k)
        np.testing.assert_array_equal(got.weights, unit.weights * k)


def _payoffs(name, k):
    """One (unit, scaled) pair of payoffs per kind: LPM q = 2, CVaR and
    mean-variance."""
    model = _model(name)
    regular = [s for s in _lpm_unit(name) if s.problem.q == 2.0 and s.multipliers.case == CASES[0]]
    problem = _cvar_problems(name)[1]
    mv = meanvar.MvProblem(x0=1.0, d=1.2, horizon=model.horizon)
    return [
        (lpm.payoff(regular[2]), lpm.payoff(lpm.solve_lpm(_scale(regular[2].problem, k), model))),
        (
            lpm.payoff(cvar.solve_cvar(problem, model).policy),
            lpm.payoff(cvar.solve_cvar(_scale(problem, k, ("x0", "d", "cap")), model).policy),
        ),
        (
            meanvar.mv_payoff(meanvar.solve_mv(mv, model), model),
            meanvar.mv_payoff(meanvar.solve_mv(_scale(mv, k, ("x0", "d")), model), model),
        ),
    ]


@pytest.mark.parametrize("name", MARKETS)
def test_wealth_policy_and_simulation_scale_bit_for_bit(name):
    model = _model(name)
    z = np.geomspace(0.05, 20.0, 64)
    for k in (2.0**e for e in EXPONENTS):
        for unit, got in _payoffs(name, k):
            assert got.levels == unit.levels
            assert got.starts == tuple(v * k for v in unit.starts)
            assert got.ends == tuple(v * k for v in unit.ends)
            for t in (0.0, 0.4 * model.horizon):
                np.testing.assert_array_equal(
                    surface.wealth(got, t, z), surface.wealth(unit, t, z) * k
                )
                np.testing.assert_array_equal(
                    surface.policy_scale(got, t, z), surface.policy_scale(unit, t, z) * k
                )
            run_unit = montecarlo.run_policy(model, unit, 200, 8, seed=3)
            run_got = montecarlo.run_policy(model, got, 200, 8, seed=3)
            np.testing.assert_array_equal(run_got.z_terminal, run_unit.z_terminal)
            np.testing.assert_array_equal(run_got.x_terminal, run_unit.x_terminal * k)


#: per kind: the CLI problem block, its money fields, and the power of k by
#: which each number of solution.json scales (the others do not move)
_CLI = {
    "lpm": (
        {"kind": "lpm", "x0": 1.0, "d": 1.3, "gamma": 1.1, "cap": 10.0, "q": 2.0},
        ("x0", "d", "gamma", "cap"),
        {"objective": 2.0, "mean": 1.0, "budget": 1.0, "lower": 1.0, "upper": 1.0},
    ),
    "cvar": (
        {"kind": "cvar", "x0": 10.0, "d": 12.0, "cap": 100.0, "beta": 0.95},
        ("x0", "d", "cap"),
        {"objective": 1.0, "cvar": 1.0, "alpha_star": 1.0, "xbar": 1.0, "lower": 1.0, "upper": 1.0},
    ),
    "mv": (
        {"kind": "mv", "x0": 1.0, "d": 1.3},
        ("x0", "d"),
        {"objective": 2.0, "second_moment": 2.0, "mean": 1.0, "budget": 1.0, "lower": 1.0},
    ),
}


def _cli_solution(tmp_path, name, problem):
    path = tmp_path / "config.json"
    run = {"out": str(tmp_path / "out")}
    path.write_text(json.dumps({"market": MARKETS[name], "problem": problem, "run": run}))
    assert cli.main(["--config", str(path), "--cmd", "solve"]) == 0
    return json.loads((tmp_path / "out" / "solution.json").read_text())["solution"]


def _numbers(record):
    """(key, number) leaves of a solution record but its problem echo, nested
    keys by their last name."""
    for key, value in record.items():
        if isinstance(value, dict) and key != "problem":
            yield from _numbers(value)
        elif isinstance(value, float):
            yield key, value


@pytest.mark.parametrize("kind", _CLI)
def test_cli_solution_scales_bit_for_bit(tmp_path, kind):
    problem, money, powers = _CLI[kind]
    for name in MARKETS:
        unit = _cli_solution(tmp_path, name, problem)
        for e in (-40, -1, 1, 40):
            k = 2.0**e
            got = _cli_solution(tmp_path, name, {**problem, **{f: problem[f] * k for f in money}})
            assert got["case"] == unit["case"]
            if kind != "mv":  # the LPM instance solved; for cvar, gamma = xbar - alpha*
                echo = unit["problem"]
                scaled = {f: v * k for f, v in echo.items() if f in ("x0", "d", "gamma", "cap")}
                assert got["problem"] == {**echo, **scaled}
            pairs = list(zip(_numbers(got), _numbers(unit)))
            assert len(pairs) >= len(powers)
            for (key, value), (key_unit, value_unit) in pairs:
                assert key == key_unit
                assert value == value_unit * 2.0 ** (e * powers.get(key, 0.0)), (name, e, key)
