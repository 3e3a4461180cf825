"""Command-line front end over the solvers and the scenario baseline.

The interface is one JSON config file plus flag overrides.  Config shape::

    {"market":  {"horizon": 1.0,
                 "segments": [{"t_start": 0.0, "r": 0.06,
                               "mu": [0.12], "sigma": [[0.15]]}]},
     "problem": {"kind": "lpm",
                 "x0": 1.0, "d": 1.3, "gamma": 1.0, "cap": 10.0, "q": 2.0},
     "run":     {"seed": 1, "paths": 10000, "steps": 128,
                 "scenarios": 20000, "out": "results",
                 "t": 0.5, "z_grid": {"count": 400, "spacing": "log"},
                 "d_grid": [11.0, 12.0], "betas": [0.90, 0.95]}}

problem.kind selects the solver: "lpm" (capped shortfall), "cvar"
(mean-CVaR via the embedded shortfall family), or "mv" (mean-variance).
The horizon always comes from the market block.

Commands and their artifacts, all written under run.out:

    solve           solution.json (multipliers, case tag, thresholds,
                    d-bounds, objective, hit probability or alpha*/CVaR)
    policy_table    policy_table.csv with columns z,x,pi_i,w_i at time t
    frontier        frontier.csv, one mean-CVaR solve per d_grid entry
    simulate        simulation.json summary + simulation.csv terminal rows
    compare_static  compare_static.csv rows d,beta,static_cvar,dynamic_cvar

Exit codes: 0 success, 1 solver failure, 2 infeasible instance, 3 config
error.  Every artifact is a pure function of (config, seed): no clocks, no
hostnames, keys sorted, floats at 12 significant digits in CSV.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import baseline, cvar, lpm, market, meanvar, montecarlo
from .errors import (
    CapfolioError,
    ConfigError,
    InfeasibleBudget,
    TargetTooHigh,
)

_RUN_DEFAULTS = {
    "seed": 1,
    "paths": 10000,
    "steps": 128,
    "scenarios": 20000,
    "out": ".",
}

_PROBLEM_KINDS = ("lpm", "cvar", "mv")


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Parsed config: raw blocks for echoing, built objects for solving."""

    market_block: dict
    problem_block: dict
    run: dict
    model: market.MarketModel
    instance: object
    kind: str


def _build_problem(block: dict, model: market.MarketModel):
    kind = block.get("kind")
    if kind not in _PROBLEM_KINDS:
        raise ConfigError(
            f"problem.kind must be one of {_PROBLEM_KINDS}, got {kind!r}"
        )
    if kind == "lpm":
        return lpm.LpmProblem(
            x0=float(block["x0"]),
            d=float(block["d"]),
            gamma=float(block["gamma"]),
            cap=float(block["cap"]),
            q=float(block["q"]),
            horizon=model.horizon,
        )
    if kind == "cvar":
        xbar = block.get("xbar")
        return cvar.CvarProblem(
            x0=float(block["x0"]),
            d=float(block["d"]),
            cap=float(block["cap"]),
            beta=float(block["beta"]),
            horizon=model.horizon,
            xbar=None if xbar is None else float(xbar),
        )
    return meanvar.MvProblem(
        x0=float(block["x0"]), d=float(block["d"]), horizon=model.horizon
    )


def _is_number(value) -> bool:
    """A finite JSON number within the float range (booleans excluded)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _number_list(value) -> bool:
    return isinstance(value, list) and all(_is_number(v) for v in value)


def _validate_run(run: dict, model: market.MarketModel, cmd: str | None) -> None:
    """Reject run-block values no command can use, before any solve starts.

    The policy needs deflator volatility left before the horizon at run.t
    and, for a command `cmd`, at the last time it evaluates the policy: the
    last Euler step for simulate, the default t = T/2 for policy_table.
    """
    for name, low in (("seed", 0), ("paths", 1), ("steps", 1), ("scenarios", 1)):
        value = run[name]
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise ConfigError(f"run.{name} must be an integer >= {low}, got {value!r}")
    if run["seed"] >= 2**64:  # the seed keys a Philox stream of uint64 words
        raise ConfigError(f"run.seed must be below 2**64, got {run['seed']}")
    if not isinstance(run["out"], str):
        raise ConfigError(f"run.out must be a directory path, got {run['out']!r}")
    policy_times = {}
    if "t" in run:
        t = run["t"]
        if not (_is_number(t) and 0.0 <= t <= model.horizon):
            raise ConfigError(
                f"run.t must be a finite time in [0, {model.horizon}], got {t!r}"
            )
        policy_times[f"run.t = {t!r}"] = t
    elif cmd == "policy_table":
        policy_times["the default run.t = T/2"] = 0.5 * model.horizon
    if cmd == "simulate":
        last = model.horizon - model.horizon / run["steps"]
        policy_times[f"the last Euler step (t = {last:g}) of run.steps = {run['steps']}"] = last
    for what, t in policy_times.items():
        nu = market.deflator_moments(model, t).nu
        if nu < lpm.TERMINAL_NU:
            raise ConfigError(
                f"{what} leaves deflator volatility {nu:.2e} before the horizon, "
                f"below {lpm.TERMINAL_NU:g}: the policy is undefined there"
            )
    d_grid = run.get("d_grid", [])
    if not _number_list(d_grid):
        raise ConfigError(f"run.d_grid must be a list of finite numbers, got {d_grid!r}")
    betas = run.get("betas") or []
    if not (_number_list(betas) and all(0.0 < b < 1.0 for b in betas)):
        raise ConfigError(f"run.betas must be a list of levels in (0, 1), got {betas!r}")
    window = run.get("z_grid") or {}
    if not isinstance(window, dict):
        raise ConfigError(f"run.z_grid must be an object, got {window!r}")
    points = window.get("points", [])
    if not (_number_list(points) and all(z > 0.0 for z in points)):
        raise ConfigError(f"run.z_grid.points must be positive numbers, got {points!r}")
    if any(b <= a for a, b in zip(points, points[1:])):
        raise ConfigError("run.z_grid.points must be strictly ascending")
    for name in ("lo", "hi"):
        if name in window and not (_is_number(window[name]) and window[name] > 0.0):
            raise ConfigError(
                f"run.z_grid.{name} must be a positive number, got {window[name]!r}"
            )
    count = window.get("count", 400)
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ConfigError(f"run.z_grid.count must be an integer >= 1, got {count!r}")
    if window.get("spacing", "log") not in ("log", "linear"):
        raise ConfigError(
            f"run.z_grid.spacing must be 'log' or 'linear', got {window['spacing']!r}"
        )


def load_config(path, overrides: dict) -> RunConfig:
    """Read the JSON config, apply flag overrides, build model and problem.

    Raises ConfigError for anything wrong with the file or its contents.
    overrides["cmd"], when given, names the command whose policy times are
    checked (see _validate_run).
    """
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or "market" not in raw or "problem" not in raw:
        raise ConfigError("config needs 'market' and 'problem' blocks")
    for name in ("problem", "run"):
        if not isinstance(raw.get(name, {}), dict):
            raise ConfigError(f"{name} must be an object, got {raw[name]!r}")

    problem_block = dict(raw["problem"])
    run = {**_RUN_DEFAULTS, **raw.get("run", {})}
    for name in ("q", "beta", "d"):
        if overrides.get(name) is not None:
            problem_block[name] = overrides[name]
    for name in ("seed", "paths", "steps", "scenarios", "out"):
        if overrides.get(name) is not None:
            run[name] = overrides[name]

    try:
        model = market.market_from_config(raw["market"])
        instance = _build_problem(problem_block, model)
    except ConfigError:
        raise
    except (CapfolioError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid config: {exc!r}") from exc
    if not np.any(model.drift - model.rate[:, None]):
        raise ConfigError("market has mu = r in every segment: no risk premium to price")
    _validate_run(run, model, overrides.get("cmd"))
    return RunConfig(
        market_block=raw["market"],
        problem_block=problem_block,
        run=run,
        model=model,
        instance=instance,
        kind=problem_block["kind"],
    )


# ---------------------------------------------------------------- artifacts


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.run["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header: list[str], conversions: list[str], cells) -> None:
    """Write row-major cells as CSV with one % operation.

    conversions holds one per column: "%.12g" for floats (the text of
    format(float(v), ".12g")), "%d" for integers, "%s" for strings.
    """
    row = ",".join(conversions) + "\n"
    body = (row * (len(cells) // len(header))) % tuple(cells)
    path.write_text(",".join(header) + "\n" + body)
    print(f"wrote {path}")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def _maybe(v):
    """Float for JSON, with None standing in for missing or non-finite."""
    if v is None:
        return None
    v = float(v)
    return v if math.isfinite(v) else None


def _config_echo(config: RunConfig) -> dict:
    return {"market": config.market_block, "problem": config.problem_block}


def _policy_record(sol: lpm.PolicySolution) -> dict:
    return {
        "case": sol.multipliers.case,
        "multipliers": {
            "mean": _maybe(sol.multipliers.mean),
            "budget": _maybe(sol.multipliers.budget),
        },
        "delta": _maybe(sol.delta),
        "rho": _maybe(sol.rho),
        "d_bounds": {"lower": _maybe(sol.d_lower), "upper": _maybe(sol.d_upper)},
        "hit_probability": _maybe(sol.hit_prob),
        "multiple_solutions": bool(sol.multiple_solutions),
        "problem": {
            field.name: _maybe(getattr(sol.problem, field.name))
            for field in dataclasses.fields(sol.problem)
        },
    }


# ----------------------------------------------------------------- commands


def cmd_solve(config: RunConfig) -> int:
    """Solve the configured problem and write solution.json."""
    payload = {"config": _config_echo(config)}
    if config.kind == "lpm":
        sol = lpm.solve_lpm(config.instance, config.model)
        payload["solution"] = {
            "kind": "lpm",
            "objective": _maybe(sol.objective_value),
            **_policy_record(sol),
        }
    elif config.kind == "cvar":
        csol = cvar.solve_cvar(config.instance, config.model)
        payload["solution"] = {
            "kind": "cvar",
            "objective": _maybe(csol.cvar),
            "cvar": _maybe(csol.cvar),
            "alpha_star": _maybe(csol.alpha_star),
            "xbar": _maybe(csol.xbar),
            **_policy_record(csol.policy),
        }
    else:
        mult = meanvar.solve_mv(config.instance, config.model)
        moments = market.deflator_moments(config.model, 0.0)
        floor = config.instance.x0 / market.expected_deflator(
            config.model, 0.0, config.model.horizon
        )
        payload["solution"] = {
            "kind": "mv",
            "case": mult.case,
            "multipliers": {"mean": _maybe(mult.mean), "budget": _maybe(mult.budget)},
            "objective": _maybe(
                meanvar.mv_variance(mult, config.model, config.instance.d)
            ),
            "second_moment": _maybe(meanvar.mv_second_moment(mult, config.model)),
            "d_bounds": {"lower": _maybe(floor), "upper": None},
            "deflator_moments": {"m": _maybe(moments.m), "nu": _maybe(moments.nu)},
        }
    _write_json(_out_dir(config) / "solution.json", payload)
    return 0


def load_solution(path):
    """Rebuild (model, wealth evaluator) from a solution.json, without solving.

    The evaluator maps (t, z) to the wealth surface of the stored solution,
    so ``evaluate(0.0, 1.0)`` must return x0 up to roundoff; that is the
    round-trip check the artifacts promise.
    """
    data = json.loads(Path(path).read_text())
    model = market.market_from_config(data["config"]["market"])
    sol = data["solution"]
    mult = lpm.Multipliers(
        mean=sol["multipliers"]["mean"],
        budget=sol["multipliers"]["budget"],
        case=sol["case"],
    )
    if sol["kind"] == "mv":
        payoff = meanvar.mv_payoff(mult, model)
        return model, lambda t, z: lpm.wealth(payoff, t, z)
    pb = sol["problem"]
    problem = lpm.LpmProblem(
        x0=pb["x0"], d=pb["d"], gamma=pb["gamma"], cap=pb["cap"], q=pb["q"],
        horizon=pb["horizon"],
    )
    rebuilt = lpm.PolicySolution(
        problem=problem,
        model=model,
        context=market.deflator_context(model),
        multipliers=mult,
        delta=sol["delta"],
        rho=sol["rho"],
        objective_value=sol["objective"],
        hit_prob=sol["hit_probability"],
        d_lower=sol["d_bounds"]["lower"],
        d_upper=sol["d_bounds"]["upper"],
        multiple_solutions=sol["multiple_solutions"],
    )
    payoff = lpm.payoff(rebuilt)
    return model, lambda t, z: lpm.wealth(payoff, t, z)


def _policy_time(config: RunConfig) -> float:
    return float(config.run.get("t", 0.5 * config.model.horizon))


def _z_grid(config: RunConfig, t: float) -> np.ndarray:
    window = config.run.get("z_grid") or {}
    if "points" in window:
        return np.asarray(window["points"], dtype=float)
    # default window: +-4 standard deviations of ln z(t)
    full = market.deflator_moments(config.model, 0.0)
    rest = market.deflator_moments(config.model, t)
    mean_t = full.m - rest.m
    sd_t = math.sqrt(max(full.nu**2 - rest.nu**2, 0.0))
    lo = float(window.get("lo", math.exp(mean_t - 4.0 * sd_t)))
    hi = float(window.get("hi", math.exp(mean_t + 4.0 * sd_t)))
    count = window.get("count", 400)
    if hi < lo:
        raise ConfigError(f"bad z_grid window [{lo}, {hi}]")
    if hi == lo or count == 1:
        return np.array([lo])
    if window.get("spacing", "log") == "log":
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def cmd_policy_table(config: RunConfig) -> int:
    """Write the feedback table z,x,pi_i,w_i at one policy time."""
    t = _policy_time(config)
    curve = lpm.feedback_curve(_solved_policy(config), t, _z_grid(config, t))
    n = curve.pi.shape[1]
    header = ["z", "x", *(f"pi_{i + 1}" for i in range(n)), *(f"w_{i + 1}" for i in range(n))]
    table = np.column_stack([curve.z, curve.x, curve.pi, curve.weights])
    path = _out_dir(config) / "policy_table.csv"
    _write_csv(path, header, ["%.12g"] * len(header), table.ravel().tolist())
    return 0


def cmd_frontier(config: RunConfig) -> int:
    """One mean-CVaR solve per d_grid entry; rows keep per-solve status."""
    if config.kind != "cvar":
        raise ConfigError("frontier needs problem.kind = 'cvar'")
    d_grid = config.run.get("d_grid", [])
    rows = cvar.frontier(config.instance, config.model, d_grid)
    beta = config.instance.beta
    _write_csv(
        _out_dir(config) / "frontier.csv",
        ["d", "beta", "alpha_star", "cvar", "status"],
        ["%.12g"] * 4 + ["%s"],
        [cell for r in rows for cell in (r.d, beta, r.alpha_star, r.cvar, r.status)],
    )
    return 0


def _lpm_payoff(problem, model) -> lpm.Payoff:
    return lpm.payoff(lpm.solve_lpm(problem, model))


def _cvar_payoff(problem, model) -> lpm.Payoff:
    return lpm.payoff(cvar.solve_cvar(problem, model).policy)


def _mv_payoff(problem, model) -> lpm.Payoff:
    return meanvar.mv_payoff(meanvar.solve_mv(problem, model), model)


_PAYOFFS = {"lpm": _lpm_payoff, "cvar": _cvar_payoff, "mv": _mv_payoff}


def _solved_policy(config: RunConfig) -> lpm.Payoff:
    """Solve the configured problem down to its optimal terminal payoff."""
    return _PAYOFFS[config.kind](config.instance, config.model)


def cmd_simulate(config: RunConfig) -> int:
    """Monte-Carlo replication: deflator paths, Euler wealth, estimates."""
    run = config.run
    ensemble = montecarlo.run_policy(
        config.model,
        _solved_policy(config),
        int(run["paths"]),
        int(run["steps"]),
        int(run["seed"]),
    )
    z_t, x_t = ensemble.z_terminal, ensemble.x_terminal
    estimates = {"terminal_mean": dataclasses.asdict(montecarlo.estimate_mean(x_t))}
    if config.kind == "lpm":
        estimates["lpm"] = dataclasses.asdict(
            montecarlo.estimate_lpm(x_t, config.instance.gamma, config.instance.q)
        )
    elif config.kind == "cvar":
        xbar = cvar.safe_level(config.instance, config.model)
        estimates["cvar"] = dataclasses.asdict(
            montecarlo.estimate_cvar(x_t, config.instance.beta, xbar)
        )
    else:
        estimates["sample_variance"] = {
            "value": float(np.var(x_t, ddof=1)),
            "n": int(x_t.size),
        }
    payload = {
        "config": _config_echo(config),
        "run": {k: run[k] for k in ("seed", "paths", "steps")},
        "summary": montecarlo.ensemble_summary(ensemble),
        "estimates": estimates,
    }
    out = _out_dir(config)
    _write_json(out / "simulation.json", payload)
    _write_csv(
        out / "simulation.csv",
        ["path", "z_terminal", "x_terminal"],
        ["%d", "%.12g", "%.12g"],
        list(itertools.chain.from_iterable(zip(range(x_t.size), z_t.tolist(), x_t.tolist()))),
    )
    return 0


def cmd_compare_static(config: RunConfig) -> int:
    """Static buy-and-hold CVaR against the dynamic optimum on a (d, beta) grid."""
    if config.kind != "cvar":
        raise ConfigError("compare_static needs problem.kind = 'cvar'")
    run = config.run
    betas = run.get("betas") or [config.instance.beta]
    d_grid = run.get("d_grid", [])
    scenarios = baseline.generate_scenarios(
        config.model, int(run["scenarios"]), int(run["seed"])
    )
    cells = []
    for beta in betas:
        for d in d_grid:
            notes = []
            static_value = math.nan
            try:
                static = baseline.simplex_solve(
                    baseline.build_ru_lp(
                        scenarios, float(beta), float(d), config.instance.x0
                    )
                )
                if static.status == "Optimal":
                    static_value = static.objective
                else:
                    notes.append(f"static {static.status}")
            except CapfolioError as exc:
                notes.append(f"static {type(exc).__name__}")
            dynamic_value = math.nan
            try:
                instance = dataclasses.replace(
                    config.instance, d=float(d), beta=float(beta)
                )
                dynamic_value = cvar.solve_cvar(instance, config.model).cvar
            except (TargetTooHigh, InfeasibleBudget) as exc:
                notes.append(f"dynamic {type(exc).__name__}")
            cells += [d, beta, static_value, dynamic_value, "; ".join(notes) or "ok"]
    _write_csv(
        _out_dir(config) / "compare_static.csv",
        ["d", "beta", "static_cvar", "dynamic_cvar", "status"],
        ["%.12g"] * 4 + ["%s"],
        cells,
    )
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "policy_table": cmd_policy_table,
    "frontier": cmd_frontier,
    "simulate": cmd_simulate,
    "compare_static": cmd_compare_static,
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit 3)."""

    def error(self, message):
        raise ConfigError(message)


def _parse_args(argv):
    parser = _Parser(
        prog="capfolio",
        description="Capped-terminal-wealth portfolio solvers and baselines.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--cmd", required=True, choices=sorted(_COMMANDS))
    parser.add_argument("--q", type=float, help="override problem.q")
    parser.add_argument("--beta", type=float, help="override problem.beta")
    parser.add_argument("--d", type=float, help="override problem.d")
    parser.add_argument("--seed", type=int, help="override run.seed")
    parser.add_argument("--paths", type=int, help="override run.paths")
    parser.add_argument("--steps", type=int, help="override run.steps")
    parser.add_argument("--scenarios", type=int, help="override run.scenarios")
    parser.add_argument("--out", help="override run.out (artifact directory)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        config = load_config(args.config, vars(args))
        return _COMMANDS[args.cmd](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except TargetTooHigh as exc:
        print(f"infeasible: target exceeds d_upper: {exc}", file=sys.stderr)
        return 2
    except InfeasibleBudget as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except CapfolioError as exc:
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


__all__ = [
    "RunConfig",
    "cmd_compare_static",
    "cmd_frontier",
    "cmd_policy_table",
    "cmd_simulate",
    "cmd_solve",
    "load_config",
    "load_solution",
    "main",
]
