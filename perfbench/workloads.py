"""Seeded command lists for the three benchmark workloads.

Every workload is a list of passes; a pass is a list of CLI commands, each
carrying the config file the command will read.  The lists are a pure
function of (workload, seed, seconds): the seed draws targets and
Monte-Carlo/scenario seeds, and the number of passes is the fewest whose
nominal wall time (one pass measured on 2 cores at the seed commit) covers
`seconds`, so two commits given the same arguments run the same commands.

solve_sweep  scalar path: kernels, solvers, lpm, cvar, meanvar.
replicate    array path: lpm/kernels on numpy arrays, montecarlo, CSV writer.
static_lp    baseline + simplex, with a minor dynamic CVaR share.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from capfolio import lpm, market

MARKETS = {
    "example1": {
        "horizon": 1.0,
        "segments": [{"t_start": 0.0, "r": 0.06, "mu": [0.12], "sigma": [[0.15]]}],
    },
    "example2": {
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
    },
    # high Sharpe ratio (nu0 = 2.9): the q=2 multiplier solve diverges on part
    # of the feasible range here, and those instances stay in the sweep
    "stress": {
        "horizon": 1.0,
        "segments": [{"t_start": 0.0, "r": 0.02, "mu": [0.6], "sigma": [[0.2]]}],
    },
}
LPM_QS = (0.0, 0.3, 1.0, 2.0)
LPM_PAIRS = ((1.0, 1.2), (1.05, 2.0), (1.1, 10.0), (0.95, 3.0))  # (gamma, cap)
LPM_DRAWS = 3  # targets per (market, q, gamma, cap) family and pass
MV_TARGETS = {"example1": (1.0, 1.1, 1.5), "example2": (10.0, 10.5, 13.0), "stress": (1.0, 1.05, 1.5)}
BETAS = (0.90, 0.95, 0.99)
D_GRID = (11.0, 12.0, 13.0)  # acceptance criterion 07 grid on example 2
CVAR_BASE = {"kind": "cvar", "x0": 10.0, "cap": 100.0}
EX1_LPM = {"kind": "lpm", "x0": 1.0, "gamma": math.exp(0.06), "cap": 10.0, "q": 2.0}
POLICY_TIMES = (0.05, 0.2, 0.4, 0.6, 0.8, 0.95)
PATHS, STEPS, Z_POINTS, SCENARIOS = 20_000, 256, 20_000, 10_000

NOMINAL_PASS_S = {"solve_sweep": 3.0, "replicate": 4.0, "static_lp": 17.0}
WORKLOADS = tuple(NOMINAL_PASS_S)


@dataclass(frozen=True)
class Op:
    """One CLI command: `cmd` for --cmd, `kind` groups it for the metrics."""

    cmd: str
    kind: str
    label: str
    config: dict


def pass_count(workload: str, seconds: float) -> int:
    """Passes whose nominal wall time covers `seconds`."""
    return max(1, math.ceil(seconds / NOMINAL_PASS_S[workload]))


def _config(market_name, problem, **run):
    return {"market": MARKETS[market_name], "problem": problem, "run": run}


def _open_unit(rng: random.Random) -> float:
    u = rng.random()
    while u == 0.0:
        u = rng.random()
    return u


def lpm_families():
    """(market, q, gamma, cap, d_lower, d_upper) for every LPM family."""
    out = []
    for name in MARKETS:
        model = market.market_from_config(MARKETS[name])
        for q in LPM_QS:
            for gamma, cap in LPM_PAIRS:
                probe = lpm.LpmProblem(
                    x0=1.0, d=1.0, gamma=gamma, cap=cap, q=q, horizon=model.horizon
                )
                out.append((name, q, gamma, cap, *lpm.d_bounds(probe, model)))
    return out


def _solve_sweep_pass(rng, index, families):
    ops = []
    for name, q, gamma, cap, lo, hi in families:
        for _ in range(LPM_DRAWS):
            d = lo + (hi - lo) * _open_unit(rng)
            problem = {"kind": "lpm", "x0": 1.0, "d": d, "gamma": gamma, "cap": cap, "q": q}
            label = f"lpm {name} q={q:g} gamma={gamma:g} cap={cap:g} d={d!r}"
            ops.append(Op("solve", "lpm", label, _config(name, problem)))
    for name, (x0, lo, hi) in MV_TARGETS.items():
        d = rng.uniform(lo, hi)
        problem = {"kind": "mv", "x0": x0, "d": d}
        ops.append(Op("solve", "mv", f"mv {name} d={d!r}", _config(name, problem)))
    for beta in BETAS:
        d = rng.uniform(D_GRID[0], D_GRID[-1])
        problem = {**CVAR_BASE, "d": d, "beta": beta}
        ops.append(
            Op("solve", "cvar", f"cvar example2 beta={beta} d={d!r}", _config("example2", problem))
        )
    beta = BETAS[index % len(BETAS)]
    problem = {**CVAR_BASE, "d": D_GRID[1], "beta": beta}
    ops.append(
        Op(
            "frontier",
            "frontier",
            f"frontier example2 beta={beta}",
            _config("example2", problem, d_grid=list(D_GRID)),
        )
    )
    rng.shuffle(ops)
    return ops


def _replicate_pass(rng, index):
    lpm_problem = {**EX1_LPM, "d": rng.uniform(1.2, 1.4)}
    cvar_problem = {**CVAR_BASE, "d": rng.uniform(D_GRID[0], D_GRID[-1]), "beta": 0.95}
    ops = [
        Op(
            "simulate",
            "simulate",
            f"simulate example1 lpm q=2 d={lpm_problem['d']!r}",
            _config("example1", lpm_problem, seed=rng.randrange(2**31), paths=PATHS, steps=STEPS),
        ),
        Op(
            "simulate",
            "simulate",
            f"simulate example2 cvar d={cvar_problem['d']!r}",
            _config("example2", cvar_problem, seed=rng.randrange(2**31), paths=PATHS, steps=STEPS),
        ),
    ]
    for t in POLICY_TIMES:
        ops.append(
            Op(
                "policy_table",
                "policy_table",
                f"policy_table example1 lpm q=2 t={t}",
                _config("example1", lpm_problem, t=t, z_grid={"count": Z_POINTS}),
            )
        )
    # spread the policy tables between the long simulate commands, so that
    # their latencies sample more moments of the run
    rng.shuffle(ops)
    return ops


def _static_lp_pass(rng, index):
    ops = []
    for beta in reversed(BETAS):  # cheapest cell first: it is also the warm-up rerun
        for d in D_GRID:
            problem = {**CVAR_BASE, "d": d, "beta": beta}
            run = {"seed": rng.randrange(2**31), "scenarios": SCENARIOS, "d_grid": [d], "betas": [beta]}
            ops.append(
                Op(
                    "compare_static",
                    "compare_static",
                    f"compare_static example2 d={d:g} beta={beta}",
                    _config("example2", problem, **run),
                )
            )
    return ops


def generate(workload: str, seed: int, seconds: float) -> list[list[Op]]:
    """The passes of `workload` for this seed and run length."""
    if workload not in NOMINAL_PASS_S:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    families = lpm_families() if workload == "solve_sweep" else None
    passes = []
    for index in range(pass_count(workload, seconds)):
        if workload == "solve_sweep":
            passes.append(_solve_sweep_pass(rng, index, families))
        elif workload == "replicate":
            passes.append(_replicate_pass(rng, index))
        else:
            passes.append(_static_lp_pass(rng, index))
    return passes
