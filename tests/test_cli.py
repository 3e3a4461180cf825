"""End-to-end command-line runs in temp directories: artifact contents
against reference values, determinism, and exit codes."""
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from capfolio import baseline, cli, cvar, lpm, market, meanvar, montecarlo, surface
from capfolio.errors import SolverDiverged

from markets import EXAMPLE1 as EX1_MARKET, EXAMPLE2 as EX2_MARKET, STRESS as STRESS_MARKET

LPM1 = {"kind": "lpm", "x0": 1.0, "d": 1.3, "gamma": math.exp(0.06), "cap": 10.0, "q": 2.0}
CVAR2 = {"kind": "cvar", "x0": 10.0, "d": 12.0, "cap": 100.0, "beta": 0.95}
MV1 = {"kind": "mv", "x0": 1.0, "d": 1.3}
# mu = r throughout: no market price of risk, so no deflator volatility at all
RISKLESS_MARKET = {
    "horizon": 1.0,
    "segments": [{"t_start": 0.0, "r": 0.06, "mu": [0.06], "sigma": [[0.15]]}],
}
# mu = r from 0.4 on: no deflator volatility is left after t = 0.4
RISKLESS_TAIL_MARKET = {
    "horizon": 1.0,
    "segments": [
        EX1_MARKET["segments"][0],
        {"t_start": 0.4, "r": 0.06, "mu": [0.06], "sigma": [[0.15]]},
    ],
}



def _ex1_with(horizon=1.0, **segment):
    return {"horizon": horizon, "segments": [{**EX1_MARKET["segments"][0], **segment}]}


# market blocks the loader rejects: malformed segments, coefficients of the
# wrong kind or nesting, and deflator laws that floats cannot represent
BAD_MARKETS = {
    "segments_empty_list": {"horizon": 1.0, "segments": []},
    "segments_object": {"horizon": 1.0, "segments": {}},
    "segments_string": {"horizon": 1.0, "segments": ""},
    "segment_not_object": {"horizon": 1.0, "segments": [1]},
    "horizon_string": _ex1_with(horizon="1.0"),
    "r_list": _ex1_with(r=[0.06]),
    "r_matrix": _ex1_with(r=[[0.06]]),
    "r_string": _ex1_with(r="x"),
    "r_null": _ex1_with(r=None),
    "mu_nested": _ex1_with(mu=[[0.12]]),
    "mu_nested_twice": _ex1_with(mu=[[[0.12]]]),
    "mu_empty": _ex1_with(mu=[]),
    "sigma_nested": _ex1_with(sigma=[[[0.15]]]),
    "sigma_not_square": _ex1_with(sigma=[[0.15, 0.0]]),
    "sigma_flat": _ex1_with(sigma=[0.15]),
    # E[z(T)] = e^{-rT} underflows to 0, or overflows
    "r_huge": _ex1_with(r=1e6),
    "r_2_63": _ex1_with(r=2**63),
    "r_negative_huge": _ex1_with(r=-1e6),
    "horizon_huge": _ex1_with(horizon=1e300),
    # ||theta||^2 overflows, so m0 and nu0 are not finite
    "mu_1e200": _ex1_with(mu=[1e200]),
}


def _cfg(tmp_path, market, problem, run=None, name="config.json"):
    path = tmp_path / name
    body = {"market": market, "problem": problem}
    if run is not None:
        body["run"] = run
    path.write_text(json.dumps(body))
    return str(path)


def _read_csv(path):
    lines = path.read_text().strip("\n").split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_solve_reference_instance(tmp_path):
    cfg = _cfg(tmp_path, EX1_MARKET, LPM1, run={"out": str(tmp_path)})
    assert cli.main(["--config", cfg, "--cmd", "solve"]) == 0
    data = json.loads((tmp_path / "solution.json").read_text())
    sol = data["solution"]
    assert sol["kind"] == "lpm"
    assert sol["case"] == "Regular"
    # reference values for this instance, derived by independent quadrature
    assert sol["multipliers"]["mean"] == pytest.approx(0.166593, abs=2e-6)
    assert sol["multipliers"]["budget"] == pytest.approx(0.389835, abs=2e-6)
    assert sol["objective"] == pytest.approx(0.01589222, abs=2e-7)
    assert sol["hit_probability"] == pytest.approx(0.037913, abs=1e-5)
    assert sol["d_bounds"]["lower"] == pytest.approx(1.0618365465, abs=1e-9)
    assert sol["d_bounds"]["upper"] == pytest.approx(1.9847461521, abs=1e-9)
    assert sol["problem"]["q"] == 2.0
    assert data["config"]["market"] == EX1_MARKET


def test_solve_q_override(tmp_path):
    cfg = _cfg(tmp_path, EX1_MARKET, LPM1, run={"out": str(tmp_path)})
    assert cli.main(["--config", cfg, "--cmd", "solve", "--q", "1"]) == 0
    sol = json.loads((tmp_path / "solution.json").read_text())["solution"]
    assert sol["problem"]["q"] == 1.0
    assert sol["multipliers"]["mean"] == pytest.approx(0.326132, abs=2e-6)
    assert sol["multipliers"]["budget"] == pytest.approx(0.785214, abs=2e-6)
    assert sol["hit_probability"] == pytest.approx(0.032400, abs=1e-5)


def test_solution_round_trip_without_resolving(tmp_path):
    cfg = _cfg(tmp_path, EX1_MARKET, LPM1, run={"out": str(tmp_path)})
    assert cli.main(["--config", cfg, "--cmd", "solve"]) == 0
    model, evaluate = cli.load_solution(tmp_path / "solution.json")
    assert model.horizon == 1.0
    assert float(evaluate(0.0, 1.0)) == pytest.approx(1.0, abs=1e-8)


def test_solve_mean_variance(tmp_path):
    cfg = _cfg(tmp_path, EX1_MARKET, MV1, run={"out": str(tmp_path)})
    assert cli.main(["--config", cfg, "--cmd", "solve"]) == 0
    sol = json.loads((tmp_path / "solution.json").read_text())["solution"]
    assert sol["kind"] == "mv"
    assert sol["multipliers"]["mean"] == pytest.approx(5.769441, abs=2e-6)
    assert sol["multipliers"]["budget"] == pytest.approx(3.424116, abs=2e-6)
    assert sol["objective"] == pytest.approx(0.348079, abs=1e-6)
    model, evaluate = cli.load_solution(tmp_path / "solution.json")
    assert float(evaluate(0.0, 1.0)) == pytest.approx(1.0, abs=1e-8)


def test_solve_mean_variance_on_stress_market(tmp_path, capsys):
    # d = 5 lies where a Newton step on (ln lam, ln eta) overflowed math.exp;
    # d = 1.0202013400267556 clears x0 / E[z] as the solve computes E[z], but
    # lies one ulp below the float x0 / e^{-rT}, so the floor written must be
    # the former
    for d in (5.0, 1.0202013400267556):
        problem = {"kind": "mv", "x0": 1.0, "d": d}
        cfg = _cfg(tmp_path, STRESS_MARKET, problem, run={"out": str(tmp_path)})
        assert cli.main(["--config", cfg, "--cmd", "solve"]) == 0
        assert "Traceback" not in capsys.readouterr().err
        sol = json.loads((tmp_path / "solution.json").read_text())["solution"]
        assert sol["d_bounds"]["lower"] < d
        model, evaluate = cli.load_solution(tmp_path / "solution.json")
        assert float(evaluate(0.0, 1.0)) == pytest.approx(1.0, abs=1e-8)


def test_solve_mean_variance_one_float_above_the_floor(tmp_path, capsys):
    # d one float above the floor x0 / E[z] the command writes. On the first
    # market x0 / d rounds to E[z]: the bracket's upper end divided by
    # E[z] - x0 / d = 0 (ZeroDivisionError, a traceback and exit 1) before it
    # took the clamp. On the second the weighted-mean gap at the upper end
    # rounds to -2.2e-16: no sign change raised "root failed" before the
    # residual gate judged that end, where both residuals are 0
    cases = [
        ((7.131508894011119, 0.08991933764282617, 0.1374619979546788, 0.5120501691054772),
         78.52627118638533, 149.11141672110378),
        ((1.0680649838265273, -0.019717092233677534, 0.39182588162149895, 0.340590287272886),
         1.0, 0.9791610593870488),
    ]
    for (horizon, r, mu, sigma), x0, d in cases:
        model = market.validate_market(horizon, r, mu, sigma)
        mult = meanvar.solve_mv(meanvar.MvProblem(x0=x0, d=d, horizon=horizon), model)
        ctx = market.deflator_context(model, horizon)
        residuals = meanvar._residuals(ctx, x0, d, mult.mean, mult.budget)
        assert all(abs(res) <= lpm.RESIDUAL_TOL for res in residuals)
        mkt = {
            "horizon": horizon,
            "segments": [{"t_start": 0.0, "r": r, "mu": [mu], "sigma": [[sigma]]}],
        }
        problem = {"kind": "mv", "x0": x0, "d": d}
        cfg = _cfg(tmp_path, mkt, problem, run={"out": str(tmp_path)})
        assert cli.main(["--config", cfg, "--cmd", "solve"]) == 0
        assert "Traceback" not in capsys.readouterr().err
        sol = json.loads((tmp_path / "solution.json").read_text())["solution"]
        assert math.nextafter(sol["d_bounds"]["lower"], math.inf) == d


def test_solve_cvar_cell(tmp_path):
    cfg = _cfg(tmp_path, EX2_MARKET, CVAR2, run={"out": str(tmp_path)})
    assert cli.main(["--config", cfg, "--cmd", "solve"]) == 0
    sol = json.loads((tmp_path / "solution.json").read_text())["solution"]
    assert sol["kind"] == "cvar"
    assert sol["cvar"] == pytest.approx(0.242288, abs=1e-5)
    assert sol["alpha_star"] == pytest.approx(0.235932, abs=1e-5)
    assert sol["xbar"] == pytest.approx(10.0 * math.exp(0.016), rel=1e-10)
    assert sol["case"] == "Regular"
    model, evaluate = cli.load_solution(tmp_path / "solution.json")
    assert float(evaluate(0.0, 1.0)) == pytest.approx(10.0, abs=1e-6)


def test_policy_table_matches_library_curve(tmp_path, example1):
    points = [0.5, 0.8, 1.0, 1.2, 1.5]
    cfg = _cfg(
        tmp_path, EX1_MARKET, LPM1,
        run={"out": str(tmp_path), "t": 0.5, "z_grid": {"points": points}},
    )
    assert cli.main(["--config", cfg, "--cmd", "policy_table"]) == 0
    header, rows = _read_csv(tmp_path / "policy_table.csv")
    assert header == ["z", "x", "pi_1", "w_1"]
    assert len(rows) == len(points)
    got = np.array([[float(cell) for cell in row] for row in rows])
    sol = lpm.solve_lpm(lpm.LpmProblem(**{k: LPM1[k] for k in ("x0", "d", "gamma", "cap", "q")}, horizon=1.0), example1)
    curve = surface.feedback_curve(lpm.payoff(sol), 0.5, np.asarray(points))
    np.testing.assert_allclose(got[:, 0], curve.z, rtol=1e-10)
    np.testing.assert_allclose(got[:, 1], curve.x, rtol=1e-10)
    np.testing.assert_allclose(got[:, 2], curve.pi[:, 0], rtol=1e-10)
    np.testing.assert_allclose(got[:, 3], curve.weights[:, 0], rtol=1e-10)
    assert np.all(np.diff(got[:, 1]) >= 0.0)  # table is sorted by wealth


def test_policy_table_single_point(tmp_path):
    cfg = _cfg(
        tmp_path, EX1_MARKET, LPM1,
        run={"out": str(tmp_path), "t": 0.25, "z_grid": {"points": [1.0]}},
    )
    assert cli.main(["--config", cfg, "--cmd", "policy_table"]) == 0
    _, rows = _read_csv(tmp_path / "policy_table.csv")
    assert len(rows) == 1


def test_policy_table_mean_variance(tmp_path):
    cfg = _cfg(
        tmp_path, EX1_MARKET, MV1,
        run={"out": str(tmp_path), "t": 0.5, "z_grid": {"count": 9}},
    )
    assert cli.main(["--config", cfg, "--cmd", "policy_table"]) == 0
    header, rows = _read_csv(tmp_path / "policy_table.csv")
    assert header == ["z", "x", "pi_1", "w_1"]
    assert len(rows) == 9
    x = np.array([float(row[1]) for row in rows])
    assert np.all(np.diff(x) >= 0.0)


def test_frontier_reference_values(tmp_path):
    cfg = _cfg(
        tmp_path, EX2_MARKET, CVAR2,
        run={"out": str(tmp_path), "d_grid": [11.0, 12.0]},
    )
    assert cli.main(["--config", cfg, "--cmd", "frontier"]) == 0
    header, rows = _read_csv(tmp_path / "frontier.csv")
    assert header == ["d", "beta", "alpha_star", "cvar", "status"]
    assert [row[4] for row in rows] == ["ok", "ok"]
    assert float(rows[0][1]) == 0.95
    assert float(rows[0][3]) == pytest.approx(0.0846, abs=1e-4)
    assert float(rows[1][3]) == pytest.approx(0.2423, abs=1e-4)


def test_frontier_beta_override(tmp_path):
    cfg = _cfg(
        tmp_path, EX2_MARKET, CVAR2, run={"out": str(tmp_path), "d_grid": [11.0]}
    )
    assert cli.main(["--config", cfg, "--cmd", "frontier", "--beta", "0.90"]) == 0
    _, rows = _read_csv(tmp_path / "frontier.csv")
    assert float(rows[0][1]) == 0.90
    assert float(rows[0][3]) == pytest.approx(0.0652, abs=1e-4)


def test_frontier_keeps_failure_rows(tmp_path):
    cfg = _cfg(
        tmp_path, EX2_MARKET, CVAR2,
        run={"out": str(tmp_path), "d_grid": [31.0, 32.0]},
    )
    assert cli.main(["--config", cfg, "--cmd", "frontier"]) == 0
    _, rows = _read_csv(tmp_path / "frontier.csv")
    assert rows[0][4] == "ok"
    assert rows[1][4] == "TargetTooHigh"
    assert math.isnan(float(rows[1][3]))
    assert math.isnan(float(rows[1][2]))


def test_cvar_target_within_rounding_of_d_upper_is_infeasible(tmp_path, capsys):
    # one ulp below d_upper = 1.367049666810857: solve exits 2, and the
    # frontier keeps the row as TargetTooHigh next to the good 1.2 row
    problem = {"kind": "cvar", "x0": 1.0, "cap": 2.0, "beta": 0.95, "d": 1.3670496668108567}
    run = {"out": str(tmp_path), "d_grid": [1.2, problem["d"]]}
    cfg = _cfg(tmp_path, EX1_MARKET, problem, run=run)
    assert cli.main(["--config", cfg, "--cmd", "solve"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("infeasible: target exceeds d_upper") and "Traceback" not in err
    assert cli.main(["--config", cfg, "--cmd", "frontier"]) == 0
    _, rows = _read_csv(tmp_path / "frontier.csv")
    assert [row[4] for row in rows] == ["ok", "TargetTooHigh"]
    assert float(rows[0][3]) > 0.0


def test_frontier_empty_grid(tmp_path):
    cfg = _cfg(tmp_path, EX2_MARKET, CVAR2, run={"out": str(tmp_path), "d_grid": []})
    assert cli.main(["--config", cfg, "--cmd", "frontier"]) == 0
    text = (tmp_path / "frontier.csv").read_text()
    assert text == "d,beta,alpha_star,cvar,status\n"


def test_frontier_needs_cvar_kind(tmp_path, capsys):
    cfg = _cfg(tmp_path, EX1_MARKET, LPM1, run={"out": str(tmp_path)})
    assert cli.main(["--config", cfg, "--cmd", "frontier"]) == 3
    assert "config error" in capsys.readouterr().err


def test_simulate_shortfall_instance(tmp_path):
    cfg = _cfg(tmp_path, EX1_MARKET, LPM1, run={"out": str(tmp_path)})
    argv = ["--config", cfg, "--cmd", "simulate",
            "--paths", "800", "--steps", "32", "--seed", "5"]
    assert cli.main(argv) == 0
    data = json.loads((tmp_path / "simulation.json").read_text())
    assert data["run"] == {"seed": 5, "paths": 800, "steps": 32}
    mean = data["estimates"]["terminal_mean"]
    assert abs(mean["value"] - 1.3) < 6.0 * mean["std_error"]
    assert "lpm" in data["estimates"]
    header, rows = _read_csv(tmp_path / "simulation.csv")
    assert header == ["path", "z_terminal", "x_terminal"]
    assert len(rows) == 800
    assert rows[0][0] == "0" and rows[-1][0] == "799"
    terminal = np.array([float(row[2]) for row in rows])
    assert terminal.mean() == pytest.approx(mean["value"], rel=1e-9)


def test_simulate_mean_variance(tmp_path):
    cfg = _cfg(tmp_path, EX1_MARKET, MV1, run={"out": str(tmp_path)})
    argv = ["--config", cfg, "--cmd", "simulate", "--paths", "300", "--steps", "8"]
    assert cli.main(argv) == 0
    data = json.loads((tmp_path / "simulation.json").read_text())
    assert data["estimates"]["sample_variance"]["n"] == 300
    assert data["estimates"]["sample_variance"]["value"] > 0.0


def test_compare_static_dominance(tmp_path):
    cfg = _cfg(
        tmp_path, EX2_MARKET, CVAR2,
        run={"out": str(tmp_path), "d_grid": [11.0, 12.0], "betas": [0.90],
             "scenarios": 3000, "seed": 20240817},
    )
    assert cli.main(["--config", cfg, "--cmd", "compare_static"]) == 0
    header, rows = _read_csv(tmp_path / "compare_static.csv")
    assert header == ["d", "beta", "static_cvar", "dynamic_cvar", "status"]
    assert len(rows) == 2
    for row in rows:
        assert row[4] == "ok"
        static, dynamic = float(row[2]), float(row[3])
        assert math.isfinite(static) and math.isfinite(dynamic)
        assert dynamic < static  # the dynamic optimum dominates buy-and-hold
    assert float(rows[0][3]) == pytest.approx(0.0652, abs=2e-4)


def test_compare_static_prices_both_columns_at_the_safe_level(tmp_path):
    # the static column takes problem.xbar as the dynamic one does; the CVaR
    # of xbar - X moves one for one with xbar, so each static value is the
    # default-level one shifted by xbar - x0 e^{rT}
    run = {"d_grid": [11.0, 12.0], "betas": [0.90], "scenarios": 3000, "seed": 20240817}
    tables = []
    for name, problem in (("default", CVAR2), ("xbar", {**CVAR2, "xbar": 12.0})):
        out = tmp_path / name
        cfg = _cfg(tmp_path, EX2_MARKET, problem, run={**run, "out": str(out)}, name=f"{name}.json")
        assert cli.main(["--config", cfg, "--cmd", "compare_static"]) == 0
        tables.append(_read_csv(out / "compare_static.csv")[1])
    shift = 12.0 - 10.0 * math.exp(0.016)
    assert len(tables[1]) == 2
    for default, row in zip(*tables):
        assert row[4] == "ok"
        static, dynamic = float(row[2]), float(row[3])
        assert dynamic <= static
        assert static == pytest.approx(float(default[2]) + shift, rel=1e-9)


def test_compare_static_empty_betas_writes_header_only(tmp_path):
    # run.betas takes problem.beta only when absent or null, like run.d_grid
    cfg = _cfg(
        tmp_path, EX2_MARKET, CVAR2,
        run={"out": str(tmp_path), "d_grid": [11.0], "betas": [],
             "scenarios": 100, "seed": 1},
    )
    assert cli.main(["--config", cfg, "--cmd", "compare_static"]) == 0
    text = (tmp_path / "compare_static.csv").read_text()
    assert text == "d,beta,static_cvar,dynamic_cvar,status\n"


def test_compare_static_keeps_an_unattainable_dynamic_row(tmp_path):
    # d = 50 lies below the cap but above the dynamic d_upper on example 2;
    # the static LP still solves there
    cfg = _cfg(
        tmp_path, EX2_MARKET, CVAR2,
        run={"out": str(tmp_path), "d_grid": [11.0, 50.0], "betas": [0.9],
             "scenarios": 3000, "seed": 20240817},
    )
    assert cli.main(["--config", cfg, "--cmd", "compare_static"]) == 0
    _, rows = _read_csv(tmp_path / "compare_static.csv")
    assert [row[4] for row in rows] == ["ok", "dynamic TargetTooHigh"]
    assert math.isnan(float(rows[1][3]))
    assert all(math.isfinite(float(row[2])) for row in rows)
    assert math.isfinite(float(rows[0][3]))


def test_compare_static_notes_a_static_solve_that_raises(tmp_path, monkeypatch):
    def breaks(*args):
        raise SolverDiverged("simplex exceeded 0 iterations")

    monkeypatch.setattr(baseline, "solve_static_cvar", breaks)
    cfg = _cfg(
        tmp_path, EX2_MARKET, CVAR2,
        run={"out": str(tmp_path), "d_grid": [11.0, 50.0], "betas": [0.9], "scenarios": 10},
    )
    assert cli.main(["--config", cfg, "--cmd", "compare_static"]) == 0
    _, rows = _read_csv(tmp_path / "compare_static.csv")
    statuses = ["static SolverDiverged", "static SolverDiverged; dynamic TargetTooHigh"]
    assert [row[4] for row in rows] == statuses
    assert all(math.isnan(float(row[2])) for row in rows)


def test_degenerate_rich_solve_writes_a_null_rho(tmp_path):
    # d = 0.5 lies below d_lower = 1.304: the budget alone funds X >= gamma
    problem = {"kind": "lpm", "x0": 1.0, "d": 0.5, "gamma": 0.9, "cap": 10.0, "q": 2.0}
    cfg = _cfg(tmp_path, EX1_MARKET, problem, run={"out": str(tmp_path)})
    assert cli.main(["--config", cfg, "--cmd", "solve"]) == 0
    sol = json.loads((tmp_path / "solution.json").read_text())["solution"]
    assert sol["case"] == "DegenerateRich"
    assert sol["rho"] is None
    assert sol["multiple_solutions"] is True
    assert sol["d_bounds"]["lower"] == pytest.approx(1.304, abs=1e-3)


def test_policy_table_linear_spacing(tmp_path):
    window = {"lo": 0.5, "hi": 1.5, "count": 7, "spacing": "linear"}
    cfg = _cfg(tmp_path, EX1_MARKET, LPM1, run={"out": str(tmp_path), "z_grid": window})
    assert cli.main(["--config", cfg, "--cmd", "policy_table"]) == 0
    _, rows = _read_csv(tmp_path / "policy_table.csv")
    z = sorted(float(row[0]) for row in rows)  # rows are sorted by wealth
    assert z == [float("%.12g" % v) for v in np.linspace(0.5, 1.5, 7)]


def test_policy_table_at_time_zero_is_one_row(tmp_path):
    # z(0) = 1: the default window ln z(0) +- 4 sd has no width
    cfg = _cfg(tmp_path, EX1_MARKET, LPM1, run={"out": str(tmp_path), "t": 0.0})
    assert cli.main(["--config", cfg, "--cmd", "policy_table"]) == 0
    _, rows = _read_csv(tmp_path / "policy_table.csv")
    assert [row[0] for row in rows] == ["1"]


def test_default_z_window_underflowing_to_zero_is_a_config_error(tmp_path, capsys):
    # ln z(t) +- 4 sd at t = 19.99 is about -856 and -645: the default lo
    # underflows to 0, where np.geomspace raised a ValueError out of main
    market_block = {
        "horizon": 20.0,
        "segments": [{"r": 20.0, "mu": [20.591607978309962], "sigma": [[0.1]]}],
    }
    out = tmp_path / "out"
    cfg = _cfg(
        tmp_path, market_block, {"kind": "mv", "x0": 1.0, "d": 1e200},
        run={"out": str(out), "t": 19.99, "z_grid": {"count": 3}},
    )
    assert cli.main(["--config", cfg, "--cmd", "policy_table"]) == 3
    assert capsys.readouterr().err.startswith("config error: run.z_grid window [0.0, ")
    assert not out.exists()


def test_artifacts_are_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = _cfg(
            tmp_path, EX1_MARKET, LPM1,
            run={"out": str(out), "t": 0.5, "z_grid": {"count": 50}},
            name=f"cfg_{name}.json",
        )
        for cmd in ("solve", "policy_table", "simulate"):
            argv = ["--config", cfg, "--cmd", cmd, "--paths", "200", "--steps", "8"]
            assert cli.main(argv) == 0
        outs.append(out)
    for artifact in ("solution.json", "policy_table.csv", "simulation.json", "simulation.csv"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


def test_exit_code_target_too_high(tmp_path, capsys):
    cfg = _cfg(tmp_path, EX1_MARKET, {**LPM1, "d": 2.5}, run={"out": str(tmp_path)})
    assert cli.main(["--config", cfg, "--cmd", "solve"]) == 2
    assert "infeasible: target exceeds d_upper" in capsys.readouterr().err


def test_exit_code_budget_above_cap(tmp_path, capsys):
    problem = {**LPM1, "x0": 9.5, "d": 9.6}
    cfg = _cfg(tmp_path, EX1_MARKET, problem, run={"out": str(tmp_path)})
    assert cli.main(["--config", cfg, "--cmd", "solve"]) == 2
    assert capsys.readouterr().err.startswith("infeasible")


@pytest.mark.parametrize(
    "breakage",
    [
        "missing_file",
        "bad_json",
        "no_problem",
        "bad_kind",
        "flat_vol",
        "bad_cmd",
        "no_args",
        "problem_list",
        "late_lone_segment",
        "riskless_tail_t",
        "no_risk_premium_solve",
        "no_risk_premium_simulate",
        "no_risk_premium_policy_table",
        "riskless_last_segment_simulate",
        "riskless_last_segment_default_t",
        "x0_beyond_float",
        "huge_nu0_lpm",
        "huge_nu0_cvar",
        "huge_nu0_mv",
        "cvar_x0_subnormal",
        "cvar_cap_negative",
        "z_grid_count_beyond_float",
        "z_grid_count_above_bound",
        "z_grid_window_narrow",
        "mv_target_at_risk_free_growth",
        *(f"market_{name}" for name in BAD_MARKETS),
    ],
)
def test_exit_code_config_errors(tmp_path, capsys, breakage):
    if breakage == "missing_file":
        argv = ["--config", str(tmp_path / "absent.json"), "--cmd", "solve"]
    elif breakage == "bad_json":
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        argv = ["--config", str(path), "--cmd", "solve"]
    elif breakage == "no_problem":
        path = tmp_path / "half.json"
        path.write_text(json.dumps({"market": EX1_MARKET}))
        argv = ["--config", str(path), "--cmd", "solve"]
    elif breakage == "bad_kind":
        cfg = _cfg(tmp_path, EX1_MARKET, {**LPM1, "kind": "exotic"})
        argv = ["--config", cfg, "--cmd", "solve"]
    elif breakage == "flat_vol":
        flat = {
            "horizon": 1.0,
            "segments": [{"t_start": 0.0, "r": 0.06, "mu": [0.12], "sigma": [[0.0]]}],
        }
        cfg = _cfg(tmp_path, flat, LPM1)
        argv = ["--config", cfg, "--cmd", "solve"]
    elif breakage == "bad_cmd":
        cfg = _cfg(tmp_path, EX1_MARKET, LPM1)
        argv = ["--config", cfg, "--cmd", "dance"]
    elif breakage == "problem_list":
        cfg = _cfg(tmp_path, EX1_MARKET, [1, 2])
        argv = ["--config", cfg, "--cmd", "solve"]
    elif breakage == "late_lone_segment":
        # the only segment starts at 0.5, so [0, 0.5) has no coefficients
        late = {"horizon": 1.0, "segments": [{**EX1_MARKET["segments"][0], "t_start": 0.5}]}
        cfg = _cfg(tmp_path, late, LPM1)
        argv = ["--config", cfg, "--cmd", "solve"]
    elif breakage == "riskless_tail_t":
        # mu = r after 0.5 leaves no deflator volatility, hence no policy, at t = 0.75
        tail = {"t_start": 0.5, "r": 0.06, "mu": [0.06], "sigma": [[0.15]]}
        split = {"horizon": 1.0, "segments": [EX1_MARKET["segments"][0], tail]}
        cfg = _cfg(tmp_path, split, LPM1, run={"out": str(tmp_path), "t": 0.75})
        argv = ["--config", cfg, "--cmd", "policy_table"]
    elif breakage.startswith("no_risk_premium_"):
        cfg = _cfg(tmp_path, RISKLESS_MARKET, LPM1, run={"out": str(tmp_path)})
        argv = ["--config", cfg, "--cmd", breakage.removeprefix("no_risk_premium_")]
    elif breakage == "riskless_last_segment_simulate":
        # the Euler loop evaluates the policy up to T - T/steps, inside [0.4, 1]
        cfg = _cfg(tmp_path, RISKLESS_TAIL_MARKET, LPM1, run={"out": str(tmp_path)})
        argv = ["--config", cfg, "--cmd", "simulate", "--paths", "10", "--steps", "8"]
    elif breakage == "riskless_last_segment_default_t":
        # without run.t the table is taken at T/2, inside [0.4, 1]
        cfg = _cfg(tmp_path, RISKLESS_TAIL_MARKET, LPM1, run={"out": str(tmp_path)})
        argv = ["--config", cfg, "--cmd", "policy_table"]
    elif breakage == "x0_beyond_float":
        cfg = _cfg(tmp_path, EX1_MARKET, {**LPM1, "x0": 10**400}, run={"out": str(tmp_path)})
        argv = ["--config", cfg, "--cmd", "solve"]
    elif breakage.startswith("huge_nu0_"):
        # mu = 1e6 gives nu0 = 6.7e6: E[z(T)] and m0 are fine, E[z(T)^2] overflows
        problem = {"lpm": LPM1, "cvar": CVAR2, "mv": MV1}[breakage.removeprefix("huge_nu0_")]
        cfg = _cfg(tmp_path, _ex1_with(mu=[1e6]), problem, run={"out": str(tmp_path)})
        argv = ["--config", cfg, "--cmd", "solve"]
    elif breakage.startswith("cvar_"):
        # CvarProblem states the embedded shortfall problem's rules: x0 / cap
        # underflows to 0, or the cap is not positive (here under an explicit
        # safe level below it); each failed mid-solve before
        problem = {
            "cvar_x0_subnormal": {**CVAR2, "x0": 5e-324},
            "cvar_cap_negative": {**CVAR2, "cap": -1.0, "d": -2.0, "xbar": -5.0},
        }[breakage]
        cfg = _cfg(tmp_path, EX2_MARKET, problem, run={"out": str(tmp_path)})
        argv = ["--config", cfg, "--cmd", "solve"]
    elif breakage.startswith("z_grid_count_"):
        # rejected at load: neither size reaches np.geomspace or allocates
        count = 10**400 if breakage.endswith("beyond_float") else 10**9 + 1
        run = {"out": str(tmp_path), "z_grid": {"count": count}}
        argv = ["--config", _cfg(tmp_path, EX1_MARKET, LPM1, run=run), "--cmd", "policy_table"]
    elif breakage == "z_grid_window_narrow":
        # two floats apart: np.geomspace repeats levels, so no table can be made
        run = {"out": str(tmp_path), "z_grid": {"lo": 1.0, "hi": 1.0000000000000002, "count": 5}}
        argv = ["--config", _cfg(tmp_path, EX1_MARKET, LPM1, run=run), "--cmd", "policy_table"]
    elif breakage == "mv_target_at_risk_free_growth":
        # d = 1 lies below x0 e^{rT} = 1.0618, so no payoff meets the mean
        cfg = _cfg(tmp_path, EX1_MARKET, {**MV1, "d": 1.0}, run={"out": str(tmp_path)})
        argv = ["--config", cfg, "--cmd", "solve"]
    elif breakage.startswith("market_"):
        bad = BAD_MARKETS[breakage.removeprefix("market_")]
        cfg = _cfg(tmp_path, bad, LPM1, run={"out": str(tmp_path)})
        argv = ["--config", cfg, "--cmd", "solve"]
    else:
        argv = []
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_bad_market_error_names_its_segment(tmp_path, capsys):
    cfg = _cfg(tmp_path, BAD_MARKETS["sigma_flat"], LPM1, run={"out": str(tmp_path)})
    assert cli.main(["--config", cfg, "--cmd", "solve"]) == 3
    assert "segment 0: vol must be 1 x 1" in capsys.readouterr().err


# the run block admits array sizes up to 10**9, which need not fit in memory;
# each command's allocating call is made to raise instead of allocating
@pytest.mark.parametrize(
    "cmd, module, name",
    [
        ("simulate", montecarlo, "run_policy"),
        ("compare_static", baseline, "generate_scenarios"),
        ("policy_table", surface, "feedback_curve"),
    ],
    ids=["simulate", "compare_static", "policy_table"],
)
def test_exit_code_out_of_memory(tmp_path, capsys, monkeypatch, cmd, module, name):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(module, name, exhausted)
    run = {"out": str(tmp_path), "d_grid": [12.0], "z_grid": {"count": 5}}
    assert cli.main(["--config", _cfg(tmp_path, EX2_MARKET, CVAR2, run=run), "--cmd", cmd]) == 1
    err = capsys.readouterr().err
    assert err.startswith("out of memory")
    assert err.count("\n") == 1 and "Traceback" not in err


# problem numbers no solve can use: each is rejected before any solve starts
BAD_PROBLEMS = {
    "cvar_d_nan": (EX2_MARKET, {**CVAR2, "d": math.nan}, []),
    "cvar_d_flag_nan": (EX2_MARKET, CVAR2, ["--d", "nan"]),
    "cvar_xbar_nan": (EX2_MARKET, {**CVAR2, "xbar": math.nan}, []),
    "mv_d_inf": (EX1_MARKET, {**MV1, "d": math.inf}, []),
    "lpm_cap_inf": (EX1_MARKET, {**LPM1, "cap": math.inf}, []),
    "cvar_cap_inf": (EX2_MARKET, {**CVAR2, "cap": math.inf}, []),
    "lpm_d_minus_inf": (EX1_MARKET, {**LPM1, "d": -math.inf}, []),
    "lpm_q_string": (EX1_MARKET, {**LPM1, "q": "2"}, []),
    "lpm_x0_bool": (EX1_MARKET, {**LPM1, "x0": True}, []),
    # the default safe level x0 e^{rT} = 1.0618 lies above the cap
    "cvar_cap_below_safe_level": (
        EX1_MARKET, {"kind": "cvar", "x0": 1.0, "d": 1.04, "cap": 1.05, "beta": 0.9}, []
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_PROBLEMS))
def test_exit_code_bad_problem_numbers(tmp_path, capsys, case):
    market, problem, flags = BAD_PROBLEMS[case]
    out = tmp_path / "out"
    run = {"out": str(out), "paths": 16, "steps": 4, "scenarios": 64,
           "z_grid": {"count": 5}, "d_grid": [1.04], "betas": [0.9]}
    cfg = _cfg(tmp_path, market, problem, run=run)
    for cmd in COMMANDS:
        assert cli.main(["--config", cfg, "--cmd", cmd, *flags]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error")
        assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_riskless_last_segment_still_solves(tmp_path):
    # the policy is needed only at t = 0, where deflator volatility is left
    cfg = _cfg(tmp_path, RISKLESS_TAIL_MARKET, LPM1, run={"out": str(tmp_path)})
    assert cli.main(["--config", cfg, "--cmd", "solve"]) == 0
    # one Euler step evaluates the policy at t = 0 only
    argv = ["--config", cfg, "--cmd", "simulate", "--paths", "10", "--steps", "1"]
    assert cli.main(argv) == 0


@pytest.mark.parametrize(
    "flags, run",
    [
        (["--seed", "-1"], {}),
        (["--seed", str(2**64)], {}),
        (["--paths", "0"], {}),
        (["--steps", "0"], {}),
        (["--scenarios", "0"], {}),
        ([], {"seed": 1.5}),
        ([], {"t": -0.1}),
        ([], {"t": 1.5}),
        ([], {"t": "half"}),
        ([], {"z_grid": [0.5, 1.0]}),
        ([], {"z_grid": {"count": "abc"}}),
        ([], {"z_grid": {"lo": "x"}}),
        ([], {"z_grid": {"points": ["a"]}}),
        ([], {"z_grid": {"points": [1.0, 0.5]}}),
        ([], {"z_grid": {"spacing": "cubic"}}),
        ([], {"d_grid": ["x"]}),
        ([], {"d_grid": 12.0}),
        ([], {"betas": [1.5]}),
        ([], {"out": 5}),
        ([], [1, 2]),
        ([], {"t": 1.0}),
        ([], {"t": 10**400}),
        ([], {"d_grid": [10**400]}),
        # beyond any array the simulator or the scenario LP could hold; numpy
        # rejects both sizes before allocating anything
        (["--steps", str(10**400)], {}),
        (["--paths", str(10**400)], {}),
        (["--paths", str(2**63)], {}),
        (["--scenarios", str(10**400)], {}),
        (["--scenarios", str(2**63)], {}),
        ([], {"z_grid": {"lo": 2.0, "hi": 1.0}}),
        ([], {"z_grid": {"lo": 1e6}}),  # above the default hi
        # a target at or above the cap, as problem.d there would be
        ([], {"d_grid": [150.0]}),
        ([], {"d_grid": [100.0]}),
        # only an absent key or null takes the default
        ([], {"betas": 0}),
        ([], {"betas": False}),
        ([], {"betas": ""}),
        ([], {"betas": {}}),
        ([], {"z_grid": 0}),
        ([], {"z_grid": False}),
        ([], {"z_grid": ""}),
        ([], {"z_grid": []}),
        # a standard error needs two samples, so no command can use one path
        (["--paths", "1"], {}),
        ([], {"out": "a\0b"}),  # no path the OS can make
    ],
)
def test_exit_code_bad_run_block(tmp_path, capsys, monkeypatch, flags, run):
    monkeypatch.chdir(tmp_path)  # where a run block without "out" would write
    block = {"out": str(tmp_path), **run} if isinstance(run, dict) else run
    cfg = _cfg(tmp_path, EX2_MARKET, CVAR2, run=block)
    for cmd in ("simulate", "policy_table", "frontier", "compare_static"):
        assert cli.main(["--config", cfg, "--cmd", cmd, *flags]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: run")
        assert err.count("\n") == 1 and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_inverted_z_window_is_rejected_before_the_solve(tmp_path, capsys):
    # d = 50 lies above d_upper, so a solve would end in exit 2
    out = tmp_path / "out"
    run = {"out": str(out), "z_grid": {"lo": 2.0, "hi": 1.0}}
    cfg = _cfg(tmp_path, EX2_MARKET, {**CVAR2, "d": 50.0}, run=run)
    assert cli.main(["--config", cfg, "--cmd", "policy_table"]) == 3
    assert capsys.readouterr().err.startswith("config error: run.z_grid window")
    assert not out.exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below_a_file"])
def test_out_through_a_file_is_rejected_before_the_solve(tmp_path, capsys, below):
    # d = 50 lies above d_upper, so a solve would end in exit 2
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    run = {"out": str(blocker / below), "d_grid": [11.0], "paths": 16, "steps": 4, "scenarios": 64}
    cfg = _cfg(tmp_path, EX2_MARKET, {**CVAR2, "d": 50.0}, run=run)
    for cmd in ("solve", "policy_table", "frontier", "simulate", "compare_static"):
        assert cli.main(["--config", cfg, "--cmd", cmd]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: run.out") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "config.json"]
    assert blocker.read_text() == "kept"


def test_load_config_resolves_every_run_default(tmp_path):
    # a mean-CVaR run block with no t, d_grid, betas or z_grid: the window is
    # ln z(T/2) +- 4 sd, filled in only where a command may build the table
    cfg = _cfg(tmp_path, EX2_MARKET, CVAR2, run={"out": str(tmp_path)})
    configs = {cmd: cli.load_config(cfg, {"cmd": cmd}) for cmd in (None, "policy_table", "solve")}
    resolved = {cmd: config.run for cmd, config in configs.items()}
    model = configs[None].model
    full, rest = market.deflator_moments(model, 0.0), market.deflator_moments(model, 0.5)
    mean, sd = full.m - rest.m, math.sqrt(full.nu**2 - rest.nu**2)
    window = {"count": 400, "spacing": "log", "lo": math.exp(mean - 4 * sd), "hi": math.exp(mean + 4 * sd)}
    for run in resolved.values():
        assert (run["t"], run["d_grid"], run["betas"]) == (0.5, [], [0.95])
        assert type(run["t"]) is float
    assert resolved[None]["z_grid"] == resolved["policy_table"]["z_grid"] == window
    assert resolved["solve"]["z_grid"] == {"count": 400, "spacing": "log"}


def test_policy_table_default_grid_is_the_stated_one(tmp_path):
    stated = cli.load_config(_cfg(tmp_path, EX1_MARKET, LPM1), {"cmd": "policy_table"}).run["z_grid"]
    assert set(stated) == {"count", "spacing", "lo", "hi"}
    written = []
    for label, run in (("default", {}), ("stated", {"t": 0.5, "z_grid": stated})):
        out = tmp_path / label
        cfg = _cfg(tmp_path, EX1_MARKET, LPM1, run={"out": str(out), **run}, name=f"{label}.json")
        assert cli.main(["--config", cfg, "--cmd", "policy_table"]) == 0
        written.append((out / "policy_table.csv").read_bytes())
    assert written[0] == written[1]


def test_shared_parser_carries_nothing_between_calls(tmp_path, capsys):
    cfg = _cfg(tmp_path, EX1_MARKET, LPM1)
    argv = ["--config", cfg, "--cmd", "solve", "--out"]
    assert cli.main([*argv, str(tmp_path / "alone")]) == 0
    assert cli.main([*argv, str(tmp_path / "q1"), "--q", "1"]) == 0
    assert cli.main([*argv, str(tmp_path / "after")]) == 0
    alone = (tmp_path / "alone" / "solution.json").read_bytes()
    assert (tmp_path / "after" / "solution.json").read_bytes() == alone
    assert (tmp_path / "q1" / "solution.json").read_bytes() != alone
    capsys.readouterr()
    for bad in (["--q", "one"], ["--bogus"], ["--cmd", "nope"]):
        assert cli.main([*argv, str(tmp_path / "bad"), *bad]) == 3
        assert capsys.readouterr().err.startswith("config error")
    assert not (tmp_path / "bad").exists()


_IMPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from capfolio import cli
for cmd in sys.argv[3:]:
    if cmd == "load_config":
        cli.load_config(sys.argv[2], {})
    else:
        assert cli.main(["--config", sys.argv[2], "--cmd", cmd]) == 0, cmd
print(*sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")))
"""


def _modules_after(cfg, *commands):
    """The numpy and scipy modules a fresh interpreter holds after it imports
    the CLI and runs `commands` on the config ("load_config" loads it only)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, src, cfg, *commands],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return proc.stdout.splitlines()[-1].split()


def test_solve_never_imports_scipy(tmp_path):
    # scipy serves only the array kernels of the wealth and policy surfaces,
    # numpy only the array path
    cfg = _cfg(tmp_path, EX1_MARKET, LPM1, run={"out": str(tmp_path)})
    assert not any(m.startswith("scipy") for m in _modules_after(cfg, "solve"))
    loaded = _modules_after(cfg, "solve", "policy_table")
    assert "scipy.special" in loaded and "numpy" in loaded


@pytest.mark.parametrize(
    "problem,commands",
    [
        (LPM1, ("load_config",)),
        (LPM1, ("solve",)),
        ({"kind": "cvar", "x0": 1.0, "d": 1.2, "cap": 10.0, "beta": 0.95}, ("solve", "frontier")),
        (MV1, ("solve",)),
    ],
    ids=["load_config", "solve_lpm", "solve_frontier_cvar", "solve_mv"],
)
def test_scalar_commands_load_neither_numpy_nor_scipy(tmp_path, problem, commands):
    run = {"out": str(tmp_path), "d_grid": [1.1, 1.2]}
    assert _modules_after(_cfg(tmp_path, EX1_MARKET, problem, run=run), *commands) == []


@pytest.mark.parametrize(
    "flag, text, block, value",
    [
        ("q", "1", "problem", 1.0),
        ("beta", "0.9", "problem", 0.9),
        ("d", "12.5", "problem", 12.5),
        ("seed", "7", "run", 7),
        ("paths", "64", "run", 64),
        ("steps", "16", "run", 16),
        ("scenarios", "300", "run", 300),
        ("out", "elsewhere", "run", "elsewhere"),
    ],
)
def test_override_flag_lands_in_its_block_with_its_type(tmp_path, flag, text, block, value):
    problem = LPM1 if flag == "q" else CVAR2
    market = EX1_MARKET if flag == "q" else EX2_MARKET
    cfg = _cfg(tmp_path, market, problem, run={"out": str(tmp_path)})
    args = cli._PARSER.parse_args(["--config", cfg, "--cmd", "solve", f"--{flag}", text])
    config = cli.load_config(args.config, vars(args))
    blocks = {"problem": config.problem_block, "run": config.run}
    landed = blocks.pop(block)[flag]
    assert landed == value and type(landed) is type(value)
    assert flag not in blocks.popitem()[1]  # nor in the other block
    if block == "problem":
        assert getattr(config.instance, flag) == value


@pytest.mark.parametrize("cmd", ["solve", "policy_table", "simulate"])
def test_each_solving_command_solves_once(tmp_path, monkeypatch, cmd):
    solves = []
    solve_lpm = lpm.solve_lpm

    def counted(problem, model):
        solves.append(problem)
        return solve_lpm(problem, model)

    monkeypatch.setattr(lpm, "solve_lpm", counted)
    run = {"out": str(tmp_path), "paths": 16, "steps": 4, "z_grid": {"count": 5}}
    assert cli.main(["--config", _cfg(tmp_path, EX1_MARKET, LPM1, run=run), "--cmd", cmd]) == 0
    assert len(solves) == 1


@pytest.mark.parametrize("cmd", ["solve", "policy_table", "simulate"])
def test_mean_variance_command_takes_the_second_moment_once(tmp_path, monkeypatch, cmd):
    # 39 partial moments for the solve, and H_0, H_1, H_2 once for the record
    # that only solve writes
    calls = []
    kernel = meanvar.partial_moment_H

    def counted(ctx, p, y):
        calls.append(p)
        return kernel(ctx, p, y)

    monkeypatch.setattr(meanvar, "partial_moment_H", counted)
    run = {"out": str(tmp_path), "paths": 16, "steps": 4, "z_grid": {"count": 5}}
    assert cli.main(["--config", _cfg(tmp_path, EX1_MARKET, MV1, run=run), "--cmd", cmd]) == 0
    assert len(calls) == (42 if cmd == "solve" else 39)


@pytest.mark.parametrize(
    "problem, whole",
    [(LPM1, ("x0", "cap", "q")), (CVAR2, ("x0", "d", "cap")), (MV1, ("x0",))],
    ids=["lpm", "cvar", "mv"],
)
def test_int_problem_numbers_solve_as_their_floats(tmp_path, problem, whole):
    market = EX2_MARKET if problem is CVAR2 else EX1_MARKET
    ints = {**problem, **{name: int(problem[name]) for name in whole}}
    written = {}
    for label, block in (("floats", problem), ("ints", ints)):
        out = tmp_path / label
        cfg = _cfg(tmp_path, market, block, run={"out": str(out)}, name=f"{label}.json")
        assert cli.main(["--config", cfg, "--cmd", "solve"]) == 0
        written[label] = json.loads((out / "solution.json").read_text())
    echo = written["ints"]["config"]["problem"]
    assert all(type(echo[name]) is int for name in whole)  # the echo keeps the config
    assert written["ints"]["solution"] == written["floats"]["solution"]


def test_out_flag_redirects_artifacts(tmp_path):
    cfg = _cfg(tmp_path, EX1_MARKET, LPM1, run={"out": str(tmp_path / "ignored")})
    target = tmp_path / "chosen"
    assert cli.main(["--config", cfg, "--cmd", "solve", "--out", str(target)]) == 0
    assert (target / "solution.json").exists()
    assert not (tmp_path / "ignored").exists()


def _reference_csv(header, rows):
    """The per-cell writer the block writer must reproduce."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(v if isinstance(v, str) else format(float(v), ".12g") for v in row)
        )
    return ("\n".join(lines) + "\n").encode()


FLOAT_CELLS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-7, 2.0, -3.0,
    1e22, 1.0 / 3.0, 123456789012.5, np.float64(0.1) * 3, np.nextafter(1.0, 2.0),
]


@pytest.mark.parametrize("n_rows", [0, 1, len(FLOAT_CELLS)])
def test_csv_writer_matches_per_cell_format(tmp_path, capsys, n_rows):
    floats = FLOAT_CELLS[:n_rows]
    rows = [(k, a, b, f"s{k}; ok") for k, (a, b) in enumerate(zip(floats, floats[::-1]))]
    header = ["path", "a", "b", "status"]
    cells = [cell for row in rows for cell in row]
    cli._write_csv(tmp_path / "t.csv", header, ["%d", "%.12g", "%.12g", "%s"], [cells])
    assert (tmp_path / "t.csv").read_bytes() == _reference_csv(header, rows)
    assert capsys.readouterr().out == f"wrote {tmp_path / 't.csv'}\n"


def _one_shot_csv(header, conversions, cells):
    """A whole table rendered by one % operation, as a block of every row."""
    row = ",".join(conversions) + "\n"
    return (",".join(header) + "\n" + (row * (len(cells) // len(header))) % tuple(cells)).encode()


@pytest.mark.parametrize("count", [1, cli._BLOCK_ROWS, 2 * cli._BLOCK_ROWS + 1])
def test_policy_table_bytes_do_not_depend_on_the_blocks(tmp_path, count):
    cfg = _cfg(tmp_path, EX2_MARKET, CVAR2, run={"out": str(tmp_path), "z_grid": {"count": count}})
    assert cli.main(["--config", cfg, "--cmd", "policy_table"]) == 0
    config = cli.load_config(cfg, {"cmd": "policy_table"})
    window = config.run["z_grid"]
    grid = np.geomspace(window["lo"], window["hi"], count)
    if count == 1:  # the one-point grid is the window's low end
        grid = np.array([window["lo"]])
    payoff = lpm.payoff(cvar.solve_cvar(config.instance, config.model).policy)
    curve = surface.feedback_curve(payoff, config.run["t"], grid)
    cells = np.column_stack([curve.z, curve.x, curve.pi, curve.weights]).ravel().tolist()
    header = ["z", "x", "pi_1", "pi_2", "pi_3", "w_1", "w_2", "w_3"]
    expected = _one_shot_csv(header, ["%.12g"] * 8, cells)
    assert (tmp_path / "policy_table.csv").read_bytes() == expected
    assert expected.count(b"\n") == count + 1


def test_simulation_bytes_do_not_depend_on_the_blocks(tmp_path):
    paths = cli._BLOCK_ROWS + 1
    cfg = _cfg(tmp_path, EX1_MARKET, LPM1, run={"out": str(tmp_path), "paths": paths, "steps": 2})
    assert cli.main(["--config", cfg, "--cmd", "simulate"]) == 0
    config = cli.load_config(cfg, {"cmd": "simulate"})
    payoff = lpm.payoff(lpm.solve_lpm(config.instance, config.model))
    ensemble = montecarlo.run_policy(config.model, payoff, paths, 2, config.run["seed"])
    cells = [
        cell
        for k, z, x in zip(range(paths), ensemble.z_terminal.tolist(), ensemble.x_terminal.tolist())
        for cell in (k, z, x)
    ]
    expected = _one_shot_csv(["path", "z_terminal", "x_terminal"], ["%d", "%.12g", "%.12g"], cells)
    assert (tmp_path / "simulation.csv").read_bytes() == expected


def test_csv_writer_holds_a_block_not_the_file(tmp_path, capsys):
    table = np.random.default_rng(3).standard_normal((20000, 4))
    path = tmp_path / "t.csv"
    tracemalloc.start()
    try:
        cli._write_csv(path, ["a", "b", "c", "d"], ["%.12g"] * 4, cli._row_blocks(table))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = _one_shot_csv(["a", "b", "c", "d"], ["%.12g"] * 4, table.ravel().tolist())
    assert path.read_bytes() == expected
    assert peak < len(expected) / 4, (peak, len(expected))


#: values a mutated leaf takes: out of range, beyond float, of the wrong type,
#: empty, null, or nested one or two levels too deep
MUTANTS = (-1, 0, 1e300, 10**400, "x", [], {}, None, [[1.0]], [[[0.5, 2.0]]])
N_MUTATIONS = 150  # per base config
COMMANDS = ("solve", "policy_table", "frontier", "simulate", "compare_static")


def _leaves(node, path=()):
    """Paths to the leaves of a JSON value; an empty container is a leaf."""
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from _leaves(value, (*path, key))
    elif isinstance(node, list) and node:
        for index, value in enumerate(node):
            yield from _leaves(value, (*path, index))
    else:
        yield path


def _replaced(node, path, value):
    """A copy of node with the leaf at path replaced by value."""
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replaced(node[path[0]], path[1:], value)
    return copy


@pytest.mark.parametrize(
    "market, problem, d_grid",
    [(EX1_MARKET, LPM1, [1.2, 1.3]), (EX2_MARKET, CVAR2, [11.0, 12.0]), (EX1_MARKET, MV1, [1.2])],
    ids=["lpm", "cvar", "mv"],
)
def test_mutated_configs_exit_with_a_code(tmp_path, capsys, monkeypatch, market, problem, d_grid):
    # every command on 1-2 replaced leaves of a valid config returns an exit
    # code and raises nothing; a mutated run.out writes below tmp_path
    monkeypatch.chdir(tmp_path)
    run = {
        "out": str(tmp_path / "out"), "seed": 1, "paths": 16, "steps": 4, "scenarios": 64,
        "t": 0.5, "z_grid": {"count": 5, "spacing": "log"}, "d_grid": d_grid, "betas": [0.9],
    }
    base = {"market": market, "problem": problem, "run": run}
    leaves = list(_leaves(base))
    rng = np.random.default_rng(20241020)
    escaped = []
    for _ in range(N_MUTATIONS):
        config = base
        picks = rng.choice(len(leaves), size=int(rng.integers(1, 3)), replace=False)
        for leaf in picks:
            config = _replaced(config, leaves[leaf], MUTANTS[rng.integers(len(MUTANTS))])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        for cmd in COMMANDS:
            try:
                code = cli.main(["--config", str(path), "--cmd", cmd])
            except Exception as exc:  # the property: nothing escapes main
                escaped.append(f"{cmd} {config}: {type(exc).__name__}: {exc}")
                continue
            if type(code) is not int or code not in (0, 1, 2, 3):
                escaped.append(f"{cmd} {config}: returned {code!r}")
        capsys.readouterr()
    assert escaped == []


TWO_SEGMENT_MARKET = {
    "horizon": 1.0,
    "segments": [
        {"t_start": 0.0, "r": 0.06, "mu": [0.12, 0.08], "sigma": [[0.15, 0.0], [0.03, 0.1]]},
        {"t_start": 0.5, "r": 0.04, "mu": [0.1, 0.09], "sigma": [[0.2, 0.02], [0.0, 0.12]]},
    ],
}
#: valid configs of each kind on the two-segment market, sized in tens; every
#: command exits 0 on the cvar one, and frontier and compare_static exit 3 on
#: the other two
FUZZ_BASES = {
    kind: {
        "market": TWO_SEGMENT_MARKET,
        "problem": problem,
        "run": {
            "seed": 1, "paths": 16, "steps": 4, "scenarios": 32, "t": 0.5,
            "z_grid": {"count": 5, "spacing": "log"}, "d_grid": [1.1, 1.2], "betas": [0.9],
        },
    }
    for kind, problem in (
        ("lpm", {"kind": "lpm", "x0": 1.0, "d": 1.2, "gamma": 1.05, "cap": 3.0, "q": 2.0}),
        ("cvar", {"kind": "cvar", "x0": 1.0, "d": 1.15, "cap": 3.0, "beta": 0.95}),
        ("mv", {"kind": "mv", "x0": 1.0, "d": 1.2}),
    )
}
FUZZ_VALUES = (None, True, math.nan, math.inf, -math.inf, 10**400, "x", [], [[]])
FUZZ_LEAVES = {kind: list(_leaves(base)) for kind, base in FUZZ_BASES.items()}


@settings(
    max_examples=200, derandomize=True, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    kind=st.sampled_from(sorted(FUZZ_BASES)),
    cmd=st.sampled_from(COMMANDS),
    edits=st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from(FUZZ_VALUES)), min_size=1, max_size=3
    ),
)
def test_fuzzed_configs_exit_with_a_code(tmp_path, capsys, kind, cmd, edits):
    # 1-3 leaves of a valid config set to an adversarial value: main returns
    # 0-3 and raises nothing; run.out is never a leaf, so artifacts stay in
    # tmp_path
    config = FUZZ_BASES[kind]
    leaves = FUZZ_LEAVES[kind]
    for index, value in edits:
        config = _replaced(config, leaves[index % len(leaves)], value)
    config["run"] = {**config["run"], "out": str(tmp_path / "out")}
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(config))
    code = cli.main(["--config", str(path), "--cmd", cmd])
    capsys.readouterr()
    assert type(code) is int and code in (0, 1, 2, 3), (config, cmd, code)


def _leaf(node, path):
    for key in path:
        node = node[key]
    return node


#: the numeric leaves of each fuzz base, which the numeric fuzz edits
NUMERIC_LEAVES = {
    kind: [path for path in leaves if type(_leaf(FUZZ_BASES[kind], path)) in (int, float)]
    for kind, leaves in FUZZ_LEAVES.items()
}
#: (operation, argument) edits of one number: a few ulps off, scaled by
#: 10^+-12, set to an edge value or a small integer, negated, or shifted
NUMERIC_EDITS = st.one_of(
    st.tuples(st.just("ulps"), st.integers(-4, 4)),
    st.tuples(st.just("scale"), st.sampled_from((1e-12, 1e12))),
    st.tuples(st.just("set"), st.sampled_from((5e-324, 1e-300, 1e300, 0.0))),
    st.tuples(st.just("set"), st.integers(-3, 10)),
    st.tuples(st.just("negate"), st.none()),
    st.tuples(st.just("shift"), st.floats(-1.0, 1.0)),
)


def _edited(value, edit):
    """value after one NUMERIC_EDITS edit; an integer leaf stays an integer."""
    op, arg = edit
    new = float(value)
    if op == "ulps":
        for _ in range(abs(arg)):
            new = math.nextafter(new, math.copysign(math.inf, arg))
    elif op == "scale":
        new *= arg
    elif op == "negate":
        new = -new
    elif op == "shift":
        new += arg
    else:
        new = arg
    return int(new) if type(value) is int else new


@settings(
    max_examples=150, derandomize=True, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    kind=st.sampled_from(sorted(FUZZ_BASES)),
    edits=st.lists(st.tuples(st.integers(0, 10**6), NUMERIC_EDITS), min_size=1, max_size=2),
)
# the cvar reduction divided by delta = 0 (ZeroDivisionError) on this config:
# r shifted to 0.05634446190740555, which 0.06 + (that - 0.06) gives exactly
@example(
    kind="cvar",
    edits=[
        (NUMERIC_LEAVES["cvar"].index(("market", "segments", 0, "r")),
         ("shift", 0.05634446190740555 - 0.06)),
        (NUMERIC_LEAVES["cvar"].index(("problem", "beta")), ("set", 5e-324)),
    ],
)
def test_numeric_fuzzed_configs_exit_with_a_code(tmp_path, capsys, kind, edits):
    # 1-2 numeric leaves of a valid config moved to a valid-typed value, which
    # reaches the solves: main returns 0-3 on every command and raises nothing
    config = FUZZ_BASES[kind]
    leaves = NUMERIC_LEAVES[kind]
    for index, edit in edits:
        path = leaves[index % len(leaves)]
        config = _replaced(config, path, _edited(_leaf(config, path), edit))
    config["run"] = {**config["run"], "out": str(tmp_path / "out")}
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(config))
    for cmd in COMMANDS:
        code = cli.main(["--config", str(path), "--cmd", cmd])
        capsys.readouterr()
        assert type(code) is int and code in (0, 1, 2, 3), (config, cmd, code)


@pytest.mark.parametrize("kind", sorted(FUZZ_BASES))
def test_fuzz_bases_are_valid(tmp_path, capsys, kind):
    config = {**FUZZ_BASES[kind], "run": {**FUZZ_BASES[kind]["run"], "out": str(tmp_path)}}
    path = tmp_path / "base.json"
    path.write_text(json.dumps(config))
    codes = [cli.main(["--config", str(path), "--cmd", cmd]) for cmd in COMMANDS]
    assert codes == ([0] * 5 if kind == "cvar" else [0, 0, 3, 0, 3])
