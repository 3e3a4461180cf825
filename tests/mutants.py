"""Mutation harness: what tier-1 can catch.

Each mutant is one exact text substitution in one module of `src/capfolio`.
The harness copies the tree into a temporary directory per mutant, applies
the substitution, runs tier-1 there and compares the outcome with the
unmutated tree's run:

- a test that passes unmutated and fails (or errors) mutated kills it;
- the red-by-design acceptance criteria (01, 03 and 07) fail in both runs,
  so a mutant that changes the line a red criterion prints kills it too;
- a run that exceeds its time limit or writes no report kills it.

The first killing test is recorded twice, from the same run: over the whole
suite, and with `tests/test_golden.py` left out, because the golden digests
notice any moved artifact byte and so hide whether a semantic test would
have. `tests/test_mutants.py` (which checks this list against the code) is
left out of every run: no mutated tree can pass it.

Run from the repository root:

    python tests/mutants.py --json [--jobs 2] > MUTANTS.json

Without `--json` it prints one line per mutant. A mutant that survives
without the golden test needs a test that kills it, or, where no input can
tell it apart, its removal from the list with that reason in its place.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "capfolio"
GOLDEN = "tests/test_golden.py"
TIER1 = (
    sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
    "--continue-on-collection-errors", "--ignore=tests/test_mutants.py",
)
TIME_LIMIT = 900.0  # seconds per tier-1 run; the unmutated run takes about 15
_IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "out")
_CRITERION = re.compile(r"^criterion (\d\d) ")


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file stem under src/capfolio
    old: str  # occurs exactly once in the module
    new: str
    breaks: str  # what the substitution breaks


MUTANTS = (
    # the twelve of the first probe
    Mutant("root_default_tol", "solvers",
           "tol=1e-12, max_iter=200", "tol=1e-7, max_iter=200",
           "find_root_1d stops at |f| <= 1e-7 by default"),
    Mutant("root_step_tol", "solvers",
           "tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol * max(1.0, abs(b))",
           "tol1 = 1e5 * (2.0 * _EPS * abs(b) + 0.5 * tol * max(1.0, abs(b)))",
           "Brent's step tolerance scaled by 1e5"),
    Mutant("static_gap", "baseline",
           "_GAP = 1e-12", "_GAP = 1e-3",
           "the cuts and the box growth stop at a 1e-3 relative gap"),
    Mutant("simplex_cost_tol", "simplex",
           "_COST_TOL = 1e-12", "_COST_TOL = 1e-6",
           "reduced costs down to -1e-6 count as optimal"),
    Mutant("short_branch", "surface",
           "_SHORT_BRANCH = 0.05", "_SHORT_BRANCH = 0.0",
           "no branch is integrated as short: the difference of CDFs cancels"),
    Mutant("legendre_weight", "kernels",
           "(0.019855071751231912, 0.05061426814518853)",
           "(0.019855071751231912, 0.0506142681)",
           "one Gauss-Legendre weight cut to 10 digits"),
    Mutant("estimate_ddof", "montecarlo",
           "std_error=float(values.std(ddof=1) / math.sqrt(values.size))",
           "std_error=float(values.std(ddof=0) / math.sqrt(values.size))",
           "the sample mean's standard error uses the biased variance"),
    Mutant("mv_gate", "meanvar",
           "if not (abs(r1) <= RESIDUAL_TOL and abs(r2) <= RESIDUAL_TOL):",
           "if not (abs(r1) <= 1e5 * RESIDUAL_TOL and abs(r2) <= 1e5 * RESIDUAL_TOL):",
           "the mean-variance gate accepts scaled residuals up to 1e-3"),
    Mutant("policy_segment", "surface",
           "direction = payoff.model.direction[payoff.model.segment_index(t)]",
           "direction = payoff.model.direction[0]",
           "the policy reads the first segment's direction at every t"),
    Mutant("policy_mid_step", "montecarlo",
           "scale = surface.policy_scale(payoff, min(times[k], final_policy_time), z)",
           "scale = surface.policy_scale(payoff, min(times[k] + 0.5 * dt, final_policy_time), z)",
           "the Euler step evaluates the policy at mid-step, not the left end"),
    Mutant("cvar_std_error", "montecarlo",
           "se = float(excess.std(ddof=1) / ((1.0 - beta) * math.sqrt(n)))",
           "se = float(excess.std(ddof=1) / ((1.0 - beta) * math.sqrt(n - 1)))",
           "estimate_cvar's standard error divides by sqrt(n - 1)"),
    Mutant("lpm_gate", "lpm",
           "RESIDUAL_TOL = 1e-8", "RESIDUAL_TOL = 1e-4",
           "both multiplier gates accept scaled residuals up to 1e-4"),
    # the reported multipliers against the envelope identities
    Mutant("lpm_mean_multiplier", "lpm",
           "mult = Multipliers(eta * delta, eta, case)",
           "mult = Multipliers(eta * delta * (1.0 + 1e-6), eta, case)",
           "the LPM mean multiplier is reported 1e-6 high"),
    Mutant("lpm_budget_multiplier", "lpm",
           "mult = Multipliers(eta * delta, eta, case)",
           "mult = Multipliers(eta * delta, eta * (1.0 + 1e-6), case)",
           "the LPM (and CVaR) budget multiplier is reported 1e-6 high"),
    Mutant("mv_mean_multiplier", "meanvar",
           "return Multipliers(mean=lam, budget=eta, case=MEAN_VARIANCE)",
           "return Multipliers(mean=lam * (1.0 + 1e-6), budget=eta, case=MEAN_VARIANCE)",
           "the mean-variance mean multiplier is reported 1e-6 high"),
    Mutant("mv_budget_multiplier", "meanvar",
           "return Multipliers(mean=lam, budget=eta, case=MEAN_VARIANCE)",
           "return Multipliers(mean=lam, budget=eta * (1.0 + 1e-6), case=MEAN_VARIANCE)",
           "the mean-variance budget multiplier is reported 1e-6 high"),
    # the benchmark's blind spots that tier-1 reaches
    Mutant("cut_stop_gap", "baseline",
           "if best[2] - lower <= _GAP * max(1.0, abs(best[2])):",
           "if best[2] - lower <= 1e-2 * max(1.0, abs(best[2])):",
           "the cut rounds stop at a 1e-2 relative gap"),
    Mutant("payoff_mean", "lpm",
           "moments.append((cap - gamma) * below + gamma * partial_moment_H(ctx, p, delta + rho))",
           "moments.append(((cap - gamma) * below + gamma * partial_moment_H(ctx, p, delta + rho))"
           " * (1.0 + 1e-6 * (p == 0.0)))",
           "the mean of a q < 2 Regular payoff is computed 1e-6 high"),
    # the mean-variance solve's one rejection rule
    Mutant("mv_root_failed", "meanvar",
           "        delta = math.exp(top)\n",
           '        raise SolverDiverged(f"mean-variance root failed for {problem}")\n',
           "a bracket with no sign change raises instead of reaching the gate"),
    # code the above do not reach, one per module
    Mutant("cdf_cancels", "kernels",
           "return 0.5 * math.erfc(-y / _SQRT2)",
           "return 1.0 - 0.5 * math.erfc(y / _SQRT2)",
           "the normal CDF as 1 - Phi(-y), which cancels in the lower tail"),
    Mutant("riskfree_segments", "market",
           "zip(lengths, model.rate)", "zip(lengths, model.rate[::-1])",
           "E[z(t1)/z(t0)] pairs each segment's length with another's rate"),
    Mutant("jump_sign", "surface",
           "jumps = jumps + jump * std_normal_pdf_array(u - nu)",
           "jumps = jumps - jump * std_normal_pdf_array(u - nu)",
           "the policy's jump terms enter with the wrong sign"),
    Mutant("var_floor", "montecarlo",
           "k = math.ceil(beta * n)", "k = math.floor(beta * n)",
           "the empirical VaR is the floor(beta n)-th loss, not the ceil"),
    Mutant("exit_infeasible", "cli",
           'print(f"infeasible: {exc}", file=sys.stderr)\n        return 2',
           'print(f"infeasible: {exc}", file=sys.stderr)\n        return 1',
           "an infeasible budget exits 1 instead of 2"),
    # the one normal per path per step of the simulation
    Mutant("shock_variance", "montecarlo",
           "* math.sqrt(dt)) * math.sqrt(theta_sq)", "* math.sqrt(dt)) * theta_sq",
           "the shock has variance ||theta||^4 dt, not ||theta||^2 dt"),
    Mutant("shock_stream", "montecarlo",
           "shock = (stream(seed, k).standard_normal", "shock = (stream(seed, k + 1).standard_normal",
           "step k draws the stream keyed (seed, k + 1)"),
    # each branch test of the case split
    Mutant("case_too_high", "lpm",
           "    if problem.d >= curve.d_upper:\n", "    if problem.d > curve.d_upper:\n",
           "a target exactly at d_upper is solved instead of raising TargetTooHigh"),
    Mutant("case_regular", "lpm",
           "    if problem.d > curve.d_lower:\n", "    if problem.d >= curve.d_lower:\n",
           "a target exactly at d_lower is solved as Regular, not degenerate"),
    Mutant("case_low_target", "lpm",
           "    elif problem.x0 < gamma * ctx.mean:\n", "    elif problem.x0 > gamma * ctx.mean:\n",
           "DegenerateLowTarget and DegenerateRich swap their budgets"),
    Mutant("case_budget_rounding", "lpm",
           "if x0 >= cap * ctx.mean or x0 / cap >= ctx.mean:", "if x0 >= cap * ctx.mean:",
           "the infeasible budget reads one rounding of x0 >= cap E[z]"),
    # the segment read of each time-dependent quantity
    Mutant("segment_at_breakpoint", "market",
           "return bisect_right(self.breakpoints, t) - 1",
           "return max(bisect_right(self.breakpoints, t - 1e-12) - 1, 0)",
           "a time on a breakpoint reads the segment before it"),
    Mutant("moments_segments", "market",
           "zip(lengths, model.rate, model.theta_sq)", "zip(lengths, model.rate, model.theta_sq[::-1])",
           "ln z's moments pair each segment's length with another's ||theta||^2"),
    Mutant("simulated_rate_segment", "montecarlo",
           "rate, theta_sq = model.rate[s], model.theta_sq[s]",
           "rate, theta_sq = model.rate[0], model.theta_sq[s]",
           "the simulation steps at the first segment's short rate"),
    Mutant("simulated_theta_segment", "montecarlo",
           "rate, theta_sq = model.rate[s], model.theta_sq[s]",
           "rate, theta_sq = model.rate[s], model.theta_sq[0]",
           "the simulation steps at the first segment's ||theta||^2"),
    Mutant("scenario_vol_segment", "baseline",
           "        vol = vols[s]\n", "        vol = vols[0]\n",
           "every static segment draws with the first segment's sigma"),
    Mutant("scenario_bond_segment", "baseline",
           "log_bond += model.rate[s] * dt", "log_bond += model.rate[0] * dt",
           "the static bond grows at the first segment's rate throughout"),
    # each remaining exit-code mapping of cli.main
    Mutant("exit_config", "cli",
           'print(f"config error: {exc}", file=sys.stderr)\n        return 3',
           'print(f"config error: {exc}", file=sys.stderr)\n        return 1',
           "a config error exits 1 instead of 3"),
    Mutant("exit_too_high", "cli",
           'target exceeds d_upper: {exc}", file=sys.stderr)\n        return 2',
           'target exceeds d_upper: {exc}", file=sys.stderr)\n        return 1',
           "a target above d_upper exits 1 instead of 2"),
    Mutant("exit_solver", "cli",
           'print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)\n        return 1',
           'print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)\n        return 2',
           "a solver failure exits 2 instead of 1"),
    Mutant("exit_memory", "cli",
           'lower the array sizes of the run block", file=sys.stderr)\n        return 1',
           'lower the array sizes of the run block", file=sys.stderr)\n        return 3',
           "running out of memory exits 3 instead of 1"),
    # the simplex ratio test and its Bland switch
    Mutant("ratio_test", "simplex",
           "ties = np.flatnonzero(t <= t.min() + 1e-12)", "ties = np.flatnonzero(np.isfinite(t))",
           "the leaving row is any limiting row, not one of least ratio"),
    Mutant("bland_switch", "simplex",
           "bland = stall > _STALL_LIMIT", "bland = False",
           "pricing never falls back to Bland's rule while the objective stalls"),
)


def _copy_tree(dest: Path) -> Path:
    tree = dest / "tree"
    shutil.copytree(ROOT, tree, ignore=_IGNORED)
    return tree


def _apply(tree: Path, mutant: Mutant) -> None:
    path = tree / PACKAGE / f"{mutant.module}.py"
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: old text does not occur exactly once")
    path.write_text(text.replace(mutant.old, mutant.new))


def _run_tier1(tree: Path) -> dict:
    """Outcome of one tier-1 run: test ids in run order with their verdicts,
    and the line each acceptance criterion printed."""
    report = tree / "tier1.xml"
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [*TIER1, f"--junitxml={report}"], cwd=tree, env=env,
            capture_output=True, text=True, timeout=TIME_LIMIT,
        )
    except subprocess.TimeoutExpired:
        return {"error": "timeout", "seconds": time.perf_counter() - start}
    seconds = time.perf_counter() - start
    if not report.exists():
        return {"error": f"no report (exit {proc.returncode})", "seconds": seconds}
    tests = []
    for case in ET.parse(report).getroot().iter("testcase"):
        test_id = f"{case.get('classname', '').replace('.', '/')}.py::{case.get('name')}"
        failed = case.find("failure") is not None or case.find("error") is not None
        tests.append((test_id, failed))
    criteria = {}
    for line in proc.stdout.splitlines():
        match = _CRITERION.match(line)
        if match:
            criteria[match.group(1)] = line
    return {"tests": tests, "criteria": criteria, "seconds": seconds}


def _killers(baseline: dict, mutated: dict) -> list[str]:
    """Killing test ids in run order."""
    if "error" in mutated:
        return [mutated["error"]]
    failed_before = {test_id for test_id, failed in baseline["tests"] if failed}
    killers = []
    for test_id, failed in mutated["tests"]:
        if test_id not in failed_before:
            if failed:
                killers.append(test_id)
            continue
        match = re.search(r"::test_criterion_(\d\d)_", test_id)
        number = match.group(1) if match else None
        if not failed or (number and mutated["criteria"].get(number) != baseline["criteria"].get(number)):
            killers.append(test_id)
    return killers


def _run_mutant(mutant: Mutant, baseline: dict) -> dict:
    with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant.name}-") as scratch:
        tree = _copy_tree(Path(scratch))
        _apply(tree, mutant)
        outcome = _run_tier1(tree)
    killers = _killers(baseline, outcome)
    semantic = [k for k in killers if not k.startswith(f"{GOLDEN}::")]
    return {
        "name": mutant.name,
        "module": mutant.module,
        "breaks": mutant.breaks,
        "killed": bool(killers),
        "first_kill": killers[0] if killers else None,
        "killed_without_golden": bool(semantic),
        "first_kill_without_golden": semantic[0] if semantic else None,
        "seconds": round(outcome["seconds"], 1),
    }


def run(jobs: int) -> dict:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-baseline-") as scratch:
        baseline = _run_tier1(_copy_tree(Path(scratch)))
    if "error" in baseline:
        raise SystemExit(f"the unmutated tier-1 run failed: {baseline['error']}")
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(lambda m: _run_mutant(m, baseline), MUTANTS))
    return {
        "tier1": " ".join(TIER1[1:]),
        "baseline": {
            "tests": len(baseline["tests"]),
            "failed": [test_id for test_id, failed in baseline["tests"] if failed],
            "seconds": round(baseline["seconds"], 1),
        },
        "jobs": jobs,
        "wall_s": round(time.perf_counter() - start, 1),
        "killed": sum(r["killed"] for r in results),
        "killed_without_golden": sum(r["killed_without_golden"] for r in results),
        "mutants": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="print the report as JSON")
    parser.add_argument("--jobs", type=int, default=1, help="mutants run at once")
    args = parser.parse_args(argv)
    report = run(max(1, args.jobs))
    if args.json:
        print(json.dumps(report, indent=1))
        return 0
    for r in report["mutants"]:
        print(f"{r['name']:24} {r['first_kill'] or 'SURVIVED'} | "
              f"{r['first_kill_without_golden'] or 'survives without golden'}")
    print(f"{report['killed']}/{len(MUTANTS)} killed, "
          f"{report['killed_without_golden']} without golden, {report['wall_s']} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
