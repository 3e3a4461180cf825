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
_solve solves it once for solve, policy_table and simulate and returns the
solution and its payoff; only solve turns the solution into a record.  The
horizon always comes from the market block.

Commands and their artifacts, all written under run.out:

    solve           solution.json (multipliers, case tag, thresholds,
                    d-bounds, objective, hit probability or alpha*/CVaR)
    policy_table    policy_table.csv with columns z,x,pi_i,w_i at time t
    frontier        frontier.csv, one mean-CVaR solve per d_grid entry
    simulate        simulation.json summary + simulation.csv terminal rows
    compare_static  compare_static.csv rows d,beta,static_cvar,dynamic_cvar,
                    both columns at the problem's cvar.safe_level

Three tables state the config rules once each.  _PROBLEM_TYPES maps
problem.kind to its problem type; the problem block gives each of its fields
but horizon as a finite number (not a string or boolean), which the type
itself checks, and a field that defaults to None (a "cvar" xbar) only when
set.  _RUN_INTEGERS holds the default and range of each run-block integer,
_OVERRIDES the block and type of each flag override.  A "cvar" safe level
and every run.d_grid target must lie below problem.cap, as problem.d must;
an "mv" d must exceed x0/E[z(T)].  run.betas or run.z_grid set to null
takes its default; any other value of the wrong type is a config error.
_resolve_run is the one reader of the run block: it checks each value and
stores it, default filled in, so the commands read run.t, run.d_grid,
run.betas and run.z_grid as they stand.

Exit codes: 0 success, 1 solver failure or out of memory (run.paths,
run.steps, run.scenarios and run.z_grid.count size arrays), 2 infeasible
instance, 3 config error.  Every artifact is a pure function of (config,
seed): no clocks, no hostnames, keys sorted, CSV floats at 12 significant
digits, written _BLOCK_ROWS rows per % operation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import cvar, lpm, market, meanvar
from .errors import (
    CapfolioError,
    ConfigError,
    InfeasibleBudget,
    TargetTooHigh,
)

#: the problem type each problem.kind builds
_PROBLEM_TYPES = {"lpm": lpm.LpmProblem, "cvar": cvar.CvarProblem, "mv": meanvar.MvProblem}

#: (default, low, high) of each run-block integer, the range inclusive: the
#: seed keys a Philox stream of uint64 words; paths, steps and scenarios each
#: size a float array (the path vectors, the time grid, the scenario matrix),
#: 8 GB at the bound, and a standard error needs two paths; z_grid.count is
#: the rows of the policy table
_RUN_INTEGERS = {
    "seed": (1, 0, 2**64 - 1),
    "paths": (10000, 2, 10**9),
    "steps": (128, 1, 10**9),
    "scenarios": (20000, 1, 10**9),
    "z_grid.count": (400, 1, 10**9),
}

#: the config block and type of each flag override --name
_OVERRIDES = {
    "q": ("problem", float),
    "beta": ("problem", float),
    "d": ("problem", float),
    "seed": ("run", int),
    "paths": ("run", int),
    "steps": ("run", int),
    "scenarios": ("run", int),
    "out": ("run", str),
}

#: rows per % operation when _write_csv writes an array; bounds what it holds
_BLOCK_ROWS = 512


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
    if kind not in _PROBLEM_TYPES:
        raise ConfigError(f"problem.kind must be one of {tuple(_PROBLEM_TYPES)}, got {kind!r}")
    numbers = {
        field.name: block[field.name]
        for field in dataclasses.fields(_PROBLEM_TYPES[kind])
        if field.name != "horizon" and not (field.default is None and block.get(field.name) is None)
    }
    problem = _PROBLEM_TYPES[kind](horizon=model.horizon, **numbers)
    if kind == "cvar":
        cvar.safe_level(problem, model)  # raises when the cap is at or below it
    elif kind == "mv":
        meanvar.checked_context(problem, model)  # raises when d is at or below x0/E[z(T)]
    return problem


def _check_integer(name: str, value) -> None:
    _, low, high = _RUN_INTEGERS[name]
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value <= high:
        raise ConfigError(f"run.{name} must be an integer in [{low}, {high}], got {value!r}")


def _number_list(value) -> bool:
    return isinstance(value, list) and all(map(market.is_number, value))


def _resolve_run(run: dict, model: market.MarketModel, instance, cmd: str | None) -> None:
    """Reject run-block values no command can use, before any solve starts,
    and store in `run` each value a command reads, defaults filled in.

    The policy needs deflator volatility left before the horizon at run.t
    and, for a command `cmd`, at the last time it evaluates the policy: the
    last Euler step for simulate, the default t = T/2 for policy_table.
    run.out must not name a file or a path below one.  Every run.d_grid
    target of a mean-CVaR instance must lie below its cap.  run.betas
    ([beta]) and run.z_grid default when absent or null only; the window
    lo, hi (ln z(t) +- 4 sd) is filled in where policy_table may read it.
    """
    for name in _RUN_INTEGERS:
        if "." not in name:  # run.z_grid.count is checked with its block
            _check_integer(name, run[name])
    if not isinstance(run["out"], str) or "\0" in run["out"]:
        raise ConfigError(f"run.out must be a directory path, got {run['out']!r}")
    nearest = run["out"]
    while nearest and not os.path.exists(nearest):
        nearest = os.path.dirname(nearest)
    if not os.path.isdir(nearest or "."):
        raise ConfigError(f"run.out = {run['out']!r} cannot be a directory: {nearest!r} is not one")
    policy_times = {}
    if "t" in run:
        t = run["t"]
        if not (market.is_number(t) and 0.0 <= t <= model.horizon):
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
    run["t"] = float(run.get("t", 0.5 * model.horizon))
    d_grid = run.setdefault("d_grid", [])
    if not _number_list(d_grid):
        raise ConfigError(f"run.d_grid must be a list of finite numbers, got {d_grid!r}")
    is_cvar = isinstance(instance, cvar.CvarProblem)
    if is_cvar and any(d >= instance.cap for d in d_grid):
        raise ConfigError(
            f"run.d_grid targets must lie below problem.cap = {instance.cap}, got {d_grid!r}"
        )
    if run.get("betas") is None:
        run["betas"] = [instance.beta] if is_cvar else []
    betas = run["betas"]
    if not (_number_list(betas) and all(0.0 < b < 1.0 for b in betas)):
        raise ConfigError(f"run.betas must be a list of levels in (0, 1), got {betas!r}")
    window = {} if run.get("z_grid") is None else run["z_grid"]
    if not isinstance(window, dict):
        raise ConfigError(f"run.z_grid must be an object, got {window!r}")
    run["z_grid"] = window = {"count": _RUN_INTEGERS["z_grid.count"][0], "spacing": "log", **window}
    points = window.get("points", [])
    if not (_number_list(points) and all(z > 0.0 for z in points)):
        raise ConfigError(f"run.z_grid.points must be positive numbers, got {points!r}")
    if any(b <= a for a, b in zip(points, points[1:])):
        raise ConfigError("run.z_grid.points must be strictly ascending")
    for name in ("lo", "hi"):
        if name in window and not (market.is_number(window[name]) and window[name] > 0.0):
            raise ConfigError(
                f"run.z_grid.{name} must be a positive number, got {window[name]!r}"
            )
    if "points" not in window and ({"lo", "hi"} & window.keys() or cmd in (None, "policy_table")):
        full = market.deflator_moments(model, 0.0)
        rest = market.deflator_moments(model, run["t"])
        mean_t = full.m - rest.m
        sd_t = math.sqrt(max(full.nu**2 - rest.nu**2, 0.0))
        lo = window["lo"] = float(window.get("lo", math.exp(mean_t - 4.0 * sd_t)))
        hi = window["hi"] = float(window.get("hi", math.exp(mean_t + 4.0 * sd_t)))
        if not 0.0 < lo <= hi:  # a default end may underflow to 0
            raise ConfigError(f"run.z_grid window [{lo}, {hi}] is not positive and ascending")
    _check_integer("z_grid.count", window["count"])
    if window["spacing"] not in ("log", "linear"):
        raise ConfigError(
            f"run.z_grid.spacing must be 'log' or 'linear', got {window['spacing']!r}"
        )


def load_config(path, overrides: dict) -> RunConfig:
    """Read the JSON config, apply flag overrides, build model and problem.

    Raises ConfigError for anything wrong with the file or its contents.
    overrides["cmd"], when given, names the command whose policy times are
    checked (see _resolve_run).
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

    defaults = {name: row[0] for name, row in _RUN_INTEGERS.items() if "." not in name}
    problem_block = dict(raw["problem"])
    run = {**defaults, "out": ".", **raw.get("run", {})}
    blocks = {"problem": problem_block, "run": run}
    for name, (block, _) in _OVERRIDES.items():
        if overrides.get(name) is not None:
            blocks[block][name] = overrides[name]

    try:
        model = market.market_from_config(raw["market"])
        instance = _build_problem(problem_block, model)
    except ConfigError:
        raise
    except (CapfolioError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid config: {exc!r}") from exc
    if all(mu == r for r, drift in zip(model.rate, model.drift) for mu in drift):
        raise ConfigError("market has mu = r in every segment: no risk premium to price")
    _resolve_run(run, model, instance, overrides.get("cmd"))
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


def _write_csv(path: Path, header: list[str], conversions: list[str], blocks) -> None:
    """Write the header, then each block of row-major cells by one % operation;
    conversions holds one per column: "%.12g" for floats (the text of
    format(float(v), ".12g")), "%d" for integers, "%s" for strings."""
    row = ",".join(conversions) + "\n"
    with path.open("w") as out:
        out.write(",".join(header) + "\n")
        for cells in blocks:
            out.write((row * (len(cells) // len(header))) % tuple(cells))
    print(f"wrote {path}")


def _row_blocks(*columns):
    """Row-major cell lists of equal-length 1-D/2-D columns, _BLOCK_ROWS rows each."""
    import numpy as np

    for i in range(0, len(columns[0]), _BLOCK_ROWS):
        yield np.column_stack([c[i : i + _BLOCK_ROWS] for c in columns]).ravel().tolist()


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


def _solve(config: RunConfig):
    """Solve the configured problem: (its solution, its optimal terminal
    payoff).  The solution is an lpm.PolicySolution, a cvar.CvarSolution or
    the mean-variance lpm.Multipliers."""
    problem, model = config.instance, config.model
    if config.kind == "lpm":
        sol = lpm.solve_lpm(problem, model)
        return sol, lpm.payoff(sol)
    if config.kind == "cvar":
        sol = cvar.solve_cvar(problem, model)
        return sol, lpm.payoff(sol.policy)
    sol = meanvar.solve_mv(problem, model)
    return sol, meanvar.mv_payoff(sol, model)


def cmd_solve(config: RunConfig) -> int:
    """Solve the configured problem and write its record to solution.json."""
    problem, model = config.instance, config.model
    sol = _solve(config)[0]
    if config.kind == "lpm":
        record = {"kind": "lpm", "objective": _maybe(sol.objective_value), **_policy_record(sol)}
    elif config.kind == "cvar":
        record = {
            "kind": "cvar",
            "objective": _maybe(sol.cvar),
            "cvar": _maybe(sol.cvar),
            "alpha_star": _maybe(sol.alpha_star),
            "xbar": _maybe(sol.xbar),
            **_policy_record(sol.policy),
        }
    else:
        ctx = meanvar.checked_context(problem, model)  # the law whose E[z] the solve enforced
        second = meanvar.mv_second_moment(sol, model)
        record = {
            "kind": "mv",
            "case": sol.case,
            "multipliers": {"mean": _maybe(sol.mean), "budget": _maybe(sol.budget)},
            "objective": _maybe(second - problem.d * problem.d),
            "second_moment": _maybe(second),
            "d_bounds": {"lower": _maybe(problem.x0 / ctx.mean), "upper": None},
            "deflator_moments": {"m": _maybe(ctx.m0), "nu": _maybe(ctx.nu0)},
        }
    payload = {"config": _config_echo(config), "solution": record}
    _write_json(_out_dir(config) / "solution.json", payload)
    return 0


def load_solution(path):
    """Rebuild (model, wealth evaluator) from a solution.json, without solving.

    The evaluator maps (t, z) to the wealth surface of the stored solution,
    so ``evaluate(0.0, 1.0)`` must return x0 up to roundoff; that is the
    round-trip check the artifacts promise.
    """
    from . import surface

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
        return model, lambda t, z: surface.wealth(payoff, t, z)
    rebuilt = lpm.PolicySolution(
        problem=lpm.LpmProblem(**sol["problem"]),
        model=model,
        context=market.deflator_context(model, sol["problem"]["horizon"]),
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
    return model, lambda t, z: surface.wealth(payoff, t, z)


def _z_grid(window: dict):
    """The strictly ascending deflator levels of the policy table, an ndarray,
    from the resolved run.z_grid; ConfigError for a window too narrow for them."""
    import numpy as np

    if "points" in window:
        return np.asarray(window["points"], dtype=float)
    lo, hi = window["lo"], window["hi"]
    count = 1 if hi == lo else window["count"]  # a window of no width, as at t = 0
    grid = (np.geomspace if window["spacing"] == "log" else np.linspace)(lo, hi, count)
    if np.any(np.diff(grid) <= 0.0):
        raise ConfigError(f"run.z_grid window [{lo}, {hi}] is too narrow for {count} levels")
    return grid


def cmd_policy_table(config: RunConfig) -> int:
    """Write the feedback table z,x,pi_i,w_i at one policy time."""
    from . import surface

    z_grid = _z_grid(config.run["z_grid"])
    curve = surface.feedback_curve(_solve(config)[1], config.run["t"], z_grid)
    n = curve.pi.shape[1]
    header = ["z", "x", *(f"pi_{i + 1}" for i in range(n)), *(f"w_{i + 1}" for i in range(n))]
    blocks = _row_blocks(curve.z, curve.x, curve.pi, curve.weights)
    _write_csv(_out_dir(config) / "policy_table.csv", header, ["%.12g"] * len(header), blocks)
    return 0


def cmd_frontier(config: RunConfig) -> int:
    """One mean-CVaR solve per d_grid entry; rows keep per-solve status."""
    if config.kind != "cvar":
        raise ConfigError("frontier needs problem.kind = 'cvar'")
    rows = cvar.frontier(config.instance, config.model, config.run["d_grid"])
    beta = config.instance.beta
    _write_csv(
        _out_dir(config) / "frontier.csv",
        ["d", "beta", "alpha_star", "cvar", "status"],
        ["%.12g"] * 4 + ["%s"],
        [[cell for r in rows for cell in (r.d, beta, r.alpha_star, r.cvar, r.status)]],
    )
    return 0


def cmd_simulate(config: RunConfig) -> int:
    """Monte-Carlo replication: deflator paths, Euler wealth, estimates."""
    from . import montecarlo

    run = config.run
    sol, payoff = _solve(config)
    ensemble = montecarlo.run_policy(config.model, payoff, run["paths"], run["steps"], run["seed"])
    z_t, x_t = ensemble.z_terminal, ensemble.x_terminal
    estimates = {"terminal_mean": dataclasses.asdict(montecarlo.estimate_mean(x_t))}
    if config.kind == "lpm":
        estimates["lpm"] = dataclasses.asdict(
            montecarlo.estimate_lpm(x_t, config.instance.gamma, config.instance.q)
        )
    elif config.kind == "cvar":
        estimates["cvar"] = dataclasses.asdict(
            montecarlo.estimate_cvar(x_t, config.instance.beta, sol.xbar)
        )
    else:
        estimates["sample_variance"] = {
            "value": float(x_t.var(ddof=1)),
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
        _row_blocks(range(x_t.size), z_t, x_t),
    )
    return 0


def cmd_compare_static(config: RunConfig) -> int:
    """Static buy-and-hold CVaR against the dynamic optimum on a (d, beta) grid."""
    if config.kind != "cvar":
        raise ConfigError("compare_static needs problem.kind = 'cvar'")
    from . import baseline

    run = config.run
    xbar = cvar.safe_level(config.instance, config.model)
    scenarios = baseline.generate_scenarios(config.model, run["scenarios"], run["seed"])
    cells = []
    for beta in run["betas"]:
        instance = dataclasses.replace(config.instance, beta=beta)
        dynamic = cvar.frontier(instance, config.model, run["d_grid"])
        for d, row in zip(run["d_grid"], dynamic):
            notes = []
            static_value = math.nan
            try:
                static = baseline.solve_static_cvar(
                    scenarios, float(beta), float(d), config.instance.x0, xbar
                )
                if static.status == baseline.OPTIMAL:
                    static_value = static.objective
                else:
                    notes.append(f"static {static.status}")
            except CapfolioError as exc:
                notes.append(f"static {type(exc).__name__}")
            if row.status != "ok":
                notes.append(f"dynamic {row.status}")
            cells += [d, beta, static_value, row.cvar, "; ".join(notes) or "ok"]
    _write_csv(
        _out_dir(config) / "compare_static.csv",
        ["d", "beta", "static_cvar", "dynamic_cvar", "status"],
        ["%.12g"] * 4 + ["%s"],
        [cells],
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


# built once: every parse starts from a fresh namespace, so nothing one call
# sets is seen by the next
_PARSER = _Parser(
    prog="capfolio",
    description="Capped-terminal-wealth portfolio solvers and baselines.",
)
_PARSER.add_argument("--config", required=True, help="path to the JSON config")
_PARSER.add_argument("--cmd", required=True, choices=sorted(_COMMANDS))
for _name, (_block, _type) in _OVERRIDES.items():
    _note = " (artifact directory)" if _name == "out" else ""
    _PARSER.add_argument(f"--{_name}", type=_type, help=f"override {_block}.{_name}{_note}")


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
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
    except MemoryError:
        print("out of memory: lower the array sizes of the run block", file=sys.stderr)
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
