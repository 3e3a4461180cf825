"""End-to-end command-line runs in temp directories: artifact contents
against reference values, determinism, and exit codes."""
import json
import math

import numpy as np
import pytest

from capfolio import cli, lpm
from capfolio.market import validate_market

EX1_MARKET = {
    "horizon": 1.0,
    "segments": [{"t_start": 0.0, "r": 0.06, "mu": [0.12], "sigma": [[0.15]]}],
}
EX2_MARKET = {
    "horizon": 1.0,
    "segments": [
        {
            "t_start": 0.0,
            "r": 0.016,
            "mu": [0.1346, 0.0530, 0.1722],
            "sigma": [
                [0.1428, 0.0094, 0.1002],
                [0.0094, 0.0728, 0.0031],
                [0.1002, 0.0031, 0.2353],
            ],
        }
    ],
}
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
    # d = 5 lies where a Newton step on (ln lam, ln eta) overflowed math.exp
    stress = {
        "horizon": 1.0,
        "segments": [{"t_start": 0.0, "r": 0.02, "mu": [0.6], "sigma": [[0.2]]}],
    }
    cfg = _cfg(tmp_path, stress, {"kind": "mv", "x0": 1.0, "d": 5.0}, run={"out": str(tmp_path)})
    assert cli.main(["--config", cfg, "--cmd", "solve"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    model, evaluate = cli.load_solution(tmp_path / "solution.json")
    assert float(evaluate(0.0, 1.0)) == pytest.approx(1.0, abs=1e-8)


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


def test_policy_table_matches_library_curve(tmp_path):
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
    model = validate_market(1.0, 0.06, 0.12, 0.15)
    sol = lpm.solve_lpm(lpm.LpmProblem(**{k: LPM1[k] for k in ("x0", "d", "gamma", "cap", "q")}, horizon=1.0), model)
    curve = lpm.feedback_curve(lpm.payoff(sol), 0.5, np.asarray(points))
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
    else:
        argv = []
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert err.count("\n") == 1 and "Traceback" not in err


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


def test_out_flag_redirects_artifacts(tmp_path):
    cfg = _cfg(tmp_path, EX1_MARKET, LPM1, run={"out": str(tmp_path / "ignored")})
    target = tmp_path / "chosen"
    assert cli.main(["--config", cfg, "--cmd", "solve", "--out", str(target)]) == 0
    assert (target / "solution.json").exists()
    assert not (tmp_path / "ignored").exists()


def _reference_csv(header, rows):
    """The per-cell writer the one-format-call writer must reproduce."""
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
    cli._write_csv(tmp_path / "t.csv", header, ["%d", "%.12g", "%.12g", "%s"], cells)
    assert (tmp_path / "t.csv").read_bytes() == _reference_csv(header, rows)
    assert capsys.readouterr().out == f"wrote {tmp_path / 't.csv'}\n"
