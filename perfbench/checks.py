"""Correctness checks on the artifacts of one CLI command.

Each check reads what the command wrote and re-derives a property from the
closed forms, outside the timed region.  A check returns a list of problems;
an empty list means the artifacts are correct.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path

from capfolio import cli, cvar, kernels, lpm, market

BUDGET_TOL = 1e-8  # relative, on x(0, 1) = x0
MEAN_TOL = 1e-8  # relative, on E[X*] = d
CVAR_TOL = 1e-12  # relative, J(alpha*) against the reported CVaR
SIMULATE_SE = 5.0  # terminal sample mean within this many standard errors


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _policy_solution(record: dict, model: market.MarketModel) -> lpm.PolicySolution:
    """Rebuild the solved LPM policy from its solution.json record."""
    pb = record["problem"]
    moments = market.deflator_moments(model, 0.0)
    return lpm.PolicySolution(
        problem=lpm.LpmProblem(
            x0=pb["x0"], d=pb["d"], gamma=pb["gamma"], cap=pb["cap"], q=pb["q"], horizon=pb["horizon"]
        ),
        model=model,
        context=kernels.PartialMomentContext(moments.m, moments.nu),
        multipliers=lpm.Multipliers(
            mean=record["multipliers"]["mean"], budget=record["multipliers"]["budget"], case=record["case"]
        ),
        delta=record["delta"],
        rho=record["rho"],
        objective_value=record["objective"],
        hit_prob=record["hit_probability"],
        d_lower=record["d_bounds"]["lower"],
        d_upper=record["d_bounds"]["upper"],
        multiple_solutions=record["multiple_solutions"],
    )


def _mean_ok(solution: lpm.PolicySolution, d: float) -> bool:
    """E[X*] = d when the mean constraint binds, E[X*] >= d otherwise."""
    mean = lpm.expected_terminal_wealth(solution)
    if solution.multipliers.case == lpm.REGULAR:
        return _close(mean, d, MEAN_TOL)
    return mean >= d - MEAN_TOL * max(1.0, abs(d))


def _cvar_at(problem: cvar.CvarProblem, model, alpha: float, reported: float, xbar: float) -> list[str]:
    """J(alpha*) equals the reported CVaR and J(alpha* +- h) is not lower."""
    problems = []
    j_star = cvar.j_value(problem, model, alpha)
    if not _close(j_star, reported, CVAR_TOL):
        problems.append(f"J(alpha*)={j_star!r} != reported CVaR {reported!r}")
    h = 1e-4 * max(1.0, abs(xbar))
    for probe in (alpha - h, alpha + h):
        if xbar - problem.cap <= probe <= xbar:
            j = cvar.j_value(problem, model, probe)
            if j < j_star - CVAR_TOL * max(1.0, abs(j_star)):
                problems.append(f"J({probe!r})={j!r} below J(alpha*)={j_star!r}")
    return problems


def check_solve(config_path: Path, out: Path) -> list[str]:
    config = cli.load_config(config_path, {})
    data = json.loads((out / "solution.json").read_text())
    sol = data["solution"]
    _, evaluate = cli.load_solution(out / "solution.json")
    x0, d = config.instance.x0, config.instance.d
    problems = []
    budget = float(evaluate(0.0, 1.0))
    if not _close(budget, x0, BUDGET_TOL):
        problems.append(f"x(0, 1)={budget!r} != x0={x0!r}")
    if config.kind == "mv":
        lam, eta = sol["multipliers"]["mean"], sol["multipliers"]["budget"]
        moments = market.deflator_moments(config.model, 0.0)
        ctx = kernels.PartialMomentContext(moments.m, moments.nu)
        delta = lam / eta
        mean = 0.5 * (lam * kernels.partial_moment_H(ctx, 0.0, delta) - eta * kernels.partial_moment_H(ctx, 1.0, delta))
        if not _close(mean, d, MEAN_TOL):
            problems.append(f"E[X*]={mean!r} != d={d!r}")
        return problems
    if not _mean_ok(_policy_solution(sol, config.model), d):
        problems.append(f"mean constraint E[X*] >= d={d!r} fails")
    if config.kind == "cvar":
        problems += _cvar_at(config.instance, config.model, sol["alpha_star"], sol["cvar"], sol["xbar"])
    return problems


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def check_frontier(config_path: Path, out: Path) -> list[str]:
    config = cli.load_config(config_path, {})
    rows = _rows(out / "frontier.csv")
    grid = [float(d) for d in config.run["d_grid"]]
    problems = []
    if [float(r["d"]) for r in rows] != grid:
        problems.append("frontier rows do not follow d_grid")
    values = []
    xbar = cvar.safe_level(config.instance, config.model)
    for r in rows:
        if r["status"] != "ok":
            problems.append(f"frontier d={r['d']} status {r['status']}")
            continue
        instance = dataclasses.replace(config.instance, d=float(r["d"]))
        problems += _cvar_at(instance, config.model, float(r["alpha_star"]), float(r["cvar"]), xbar)
        values.append(float(r["cvar"]))
    if any(b <= a for a, b in zip(values, values[1:])):
        problems.append(f"frontier CVaR not increasing in d: {values}")
    return problems


def check_simulate(config_path: Path, out: Path) -> list[str]:
    config = cli.load_config(config_path, {})
    summary = json.loads((out / "simulation.json").read_text())
    if config.kind == "cvar":
        solution = cvar.solve_cvar(config.instance, config.model).policy
    else:
        solution = lpm.solve_lpm(config.instance, config.model)
    expected = lpm.expected_terminal_wealth(solution)
    est = summary["estimates"]["terminal_mean"]
    problems = []
    gap = abs(est["value"] - expected) / est["std_error"]
    if not gap <= SIMULATE_SE:
        problems.append(f"terminal mean {est['value']!r} is {gap:.2f} SE from E[X*]={expected!r}")
    with (out / "simulation.csv").open() as handle:
        rows = sum(1 for _ in handle) - 1
    if rows != config.run["paths"]:
        problems.append(f"simulation.csv has {rows} rows, want {config.run['paths']}")
    return problems


def check_policy_table(config_path: Path, out: Path) -> list[str]:
    config = cli.load_config(config_path, {})
    t = float(config.run["t"])
    lo, hi = lpm.wealth_envelope(config.instance, config.model, t)
    slack = 1e-9 * max(1.0, hi)
    rows = _rows(out / "policy_table.csv")
    problems = []
    if len(rows) != config.run["z_grid"]["count"]:
        problems.append(f"policy_table.csv has {len(rows)} rows")
    outside = [float(r["x"]) for r in rows if not lo - slack <= float(r["x"]) <= hi + slack]
    if outside:
        problems.append(f"{len(outside)} wealth values outside [{lo}, {hi}], e.g. {outside[0]!r}")
    return problems


def check_compare_static(config_path: Path, out: Path) -> list[str]:
    rows = _rows(out / "compare_static.csv")
    problems = []
    if not rows:
        problems.append("compare_static.csv has no rows")
    for r in rows:
        static, dynamic = float(r["static_cvar"]), float(r["dynamic_cvar"])
        if r["status"] != "ok":
            problems.append(f"d={r['d']} beta={r['beta']} status {r['status']}")
        elif not (math.isfinite(static) and dynamic <= static):
            problems.append(f"d={r['d']} beta={r['beta']} dynamic {dynamic!r} > static {static!r}")
    return problems


CHECKS = {
    "solve": check_solve,
    "frontier": check_frontier,
    "simulate": check_simulate,
    "policy_table": check_policy_table,
    "compare_static": check_compare_static,
}
