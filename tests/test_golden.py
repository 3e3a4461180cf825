"""Every artifact's bytes, pinned: the sha256 of each file the five CLI
commands write, and their exit codes, on three markets and four problem
kinds, against `golden.json` beside this file.

A refactor that is meant to change no output must leave every digest in
place. The data file also stamps the Python, numpy and scipy versions it was
recorded under, and a mismatch names both stamps, so a reader can tell a
library change from a program change. To record the digests of the current
tree after an intended output change, run

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from capfolio import cli

import markets

GOLDEN = Path(__file__).with_name("golden.json")

# (market block, problem numbers, frontier and compare_static targets)
MARKETS = {
    "example1": (
        markets.EXAMPLE1,
        {"x0": 1.0, "d": 1.3, "gamma": math.exp(0.06), "cap": 10.0, "beta": 0.95},
        [1.1, 1.2, 1.3],
    ),
    "example2": (
        markets.EXAMPLE2,
        {"x0": 10.0, "d": 12.0, "gamma": 10.5, "cap": 100.0, "beta": 0.95},
        [11.0, 12.0, 13.0],
    ),
    "two_segment": (
        {
            "horizon": 2.0,
            "segments": [
                {"t_start": 0.0, "r": 0.03, "mu": [0.08, 0.11], "sigma": [[0.2, 0.0], [0.05, 0.25]]},
                {"t_start": 0.7, "r": 0.05, "mu": [0.1, 0.09], "sigma": [[0.15, 0.02], [0.0, 0.3]]},
            ],
        },
        {"x0": 1.0, "d": 1.3, "gamma": 1.05, "cap": 5.0, "beta": 0.9},
        [1.2, 1.3, 1.4],
    ),
}
# the problem fields of each kind, and the order q of the LPM kinds
KINDS = {
    "lpm_q2": ("lpm", ("x0", "d", "gamma", "cap"), {"q": 2.0}),
    "lpm_q0.5": ("lpm", ("x0", "d", "gamma", "cap"), {"q": 0.5}),
    "cvar": ("cvar", ("x0", "d", "cap", "beta"), {}),
    "mv": ("mv", ("x0", "d"), {}),
}
COMMANDS = ("solve", "policy_table", "simulate", "frontier", "compare_static")


def stamp() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def _config(market_name: str, kind_name: str) -> dict:
    block, numbers, d_grid = MARKETS[market_name]
    kind, fields, extra = KINDS[kind_name]
    problem = {"kind": kind, **{f: numbers[f] for f in fields}, **extra}
    run = {
        "seed": 7,
        "paths": 2000,
        "steps": 16,
        "scenarios": 2000,
        "z_grid": {"count": 200},
        "d_grid": d_grid,
        "betas": [0.9, 0.99],
    }
    return {"market": block, "problem": problem, "run": run}


def digests(market_name: str, kind_name: str, workdir: Path) -> dict:
    """{command: {"exit": code, "files": {name: sha256}}} of one config."""
    config = workdir / "config.json"
    config.write_text(json.dumps(_config(market_name, kind_name)))
    rows = {}
    for cmd in COMMANDS:
        out = workdir / cmd
        code = cli.main(["--config", str(config), "--cmd", cmd, "--out", str(out)])
        files = sorted(out.iterdir()) if out.exists() else []
        rows[cmd] = {
            "exit": code,
            "files": {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files},
        }
    return rows


@pytest.mark.parametrize("kind_name", KINDS)
@pytest.mark.parametrize("market_name", MARKETS)
def test_artifacts_match_the_golden_digests(market_name, kind_name, tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())
    expected = golden["artifacts"][market_name][kind_name]
    got = digests(market_name, kind_name, tmp_path)
    capsys.readouterr()  # the commands' "wrote ..." lines
    moved = []
    for cmd in COMMANDS:
        want, have = expected[cmd], got[cmd]
        if want["exit"] != have["exit"]:
            moved.append(f"{cmd}: exit {want['exit']} -> {have['exit']}")
        for name in sorted(want["files"].keys() | have["files"].keys()):
            if want["files"].get(name) != have["files"].get(name):
                moved.append(f"{cmd}/{name}")
    assert not moved, (
        f"artifacts of {market_name}/{kind_name} moved: {', '.join(moved)}; "
        f"recorded under {golden['stamp']}, running under {stamp()}"
    )


def test_every_config_solves_its_problem_commands():
    # the digests pin successes, not refusals: every kind's solve,
    # policy_table and simulate write artifacts, and the CVaR kind's
    # frontier and compare_static do too, where the others exit 3
    golden = json.loads(GOLDEN.read_text())["artifacts"]
    for market_name in MARKETS:
        for kind_name in KINDS:
            for cmd in COMMANDS:
                row = golden[market_name][kind_name][cmd]
                ok = kind_name == "cvar" or cmd in ("solve", "policy_table", "simulate")
                assert row["exit"] == (0 if ok else 3), (market_name, kind_name, cmd)
                assert bool(row["files"]) == ok, (market_name, kind_name, cmd)


if __name__ == "__main__":
    import tempfile

    artifacts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for market_name in MARKETS:
            for kind_name in KINDS:
                workdir = Path(tmp) / market_name / kind_name
                workdir.mkdir(parents=True)
                artifacts.setdefault(market_name, {})[kind_name] = digests(
                    market_name, kind_name, workdir
                )
    payload = {"stamp": stamp(), "artifacts": artifacts}
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
