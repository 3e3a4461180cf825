"""capfolio benchmark: three workloads over the five CLI commands.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One caller in one process calls `capfolio.cli.main` in a closed loop on
config files generated from --seed (see workloads.py), with BLAS pinned to
one thread.  Every command's artifacts are hashed and checked outside the
timed region (checks.py).  With --trace 0 the run prints the end-to-end
metrics; with --trace 1 it runs the first pass untraced and then traced
(tracer.py), compares the artifact digests of the two, and prints the
per-layer metrics and the tracing overhead.  A human-readable report comes
first; the last line of standard output is one JSON object.  Metric
definitions are in perfbench/metrics.json.
"""
from __future__ import annotations

import os

BLAS_THREADS = "1"
_BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in _BLAS_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 7
RUN_LIMIT_S = 150.0  # the timed loop stops here so a run ends within 180 s
HEADLINE = {"solve_sweep": "lpm", "replicate": "policy_table", "static_lp": "compare_static"}
_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from capfolio import cli; cli.load_config(sys.argv[2], {})"
)
_STARTED = time.perf_counter()


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["solve_sweep", "replicate", "static_lp", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


# ------------------------------------------------------------------ running


class Runner:
    """Runs one command at a time through `cli.main` in this process."""

    def __init__(self, cli, checks, work: Path):
        self.cli, self.checks = cli, checks
        self.config_path = work / "config.json"
        self.out = work / "out"
        work.mkdir(parents=True, exist_ok=True)

    def write_config(self, op, path: Path) -> None:
        config = {**op.config, "run": {**op.config.get("run", {}), "out": str(self.out)}}
        path.write_text(json.dumps(config))

    def run(self, op, span=None, check=True) -> dict:
        """Run `op`; return its latency, exit code, digest and check result."""
        shutil.rmtree(self.out, ignore_errors=True)
        # start from a collected heap, as a fresh CLI process would: cycles
        # left by an earlier command can hold its Monte-Carlo arrays
        gc.collect()
        self.write_config(op, self.config_path)
        argv = ["--config", str(self.config_path), "--cmd", op.cmd]
        sink_out, sink_err = io.StringIO(), io.StringIO()
        crash = None
        with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
            with span or contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    rc = self.cli.main(argv)
                except Exception:  # a traceback is an op failure, recorded below
                    rc, crash = None, traceback.format_exc()
                elapsed = time.perf_counter() - start
        digest = hashlib.sha256(f"rc={rc}\n".encode())
        written = 0
        for path in sorted(self.out.iterdir()) if self.out.is_dir() else ():
            data = path.read_bytes()
            written += len(data)
            digest.update(path.name.encode() + b"\0" + hashlib.sha256(data).digest())
        problems = []
        if rc == 0 and check:
            try:
                problems = self.checks.CHECKS[op.cmd](self.config_path, self.out)
            except Exception:
                problems = [traceback.format_exc(limit=3)]
        message = crash or sink_err.getvalue().strip()
        return {
            "kind": op.kind,
            "label": op.label,
            "seconds": elapsed,
            "rc": rc,
            "message": message.splitlines()[-1] if message else "",
            "digest": digest.hexdigest(),
            "bytes": written,
            "problems": problems,
        }


def _failed(outcome) -> bool:
    return outcome["rc"] != 0 or bool(outcome["problems"])


def _incorrect(outcome) -> bool:
    # exit codes 1 and 2 are documented solver outcomes; a config error on a
    # generated config, a traceback or a failed check is a wrong result
    return outcome["rc"] not in (0, 1, 2) or bool(outcome["problems"])


def _setup_seconds(config_path: Path) -> list[float]:
    """Wall time of fresh processes that import capfolio.cli and load a config."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(config_path)],
            cwd=ROOT, check=True, timeout=60,
        )
        times.append(time.perf_counter() - start)
    return times


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in _BLAS_VARS},
        "machine": platform.machine(),
    }


# ------------------------------------------------------------------ metrics


def _metric(value, unit, n, **extra) -> dict:
    return {"value": value, "unit": unit, "n": n, **extra}


def _latencies(outcomes, kind):
    return [o["seconds"] for o in outcomes if o["kind"] == kind]


def _nearest_rank(values, q):
    """Nearest-rank q-quantile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload, outcomes, planned, setup) -> dict:
    """Every end-to-end metric of the workload, with unit and sample count."""
    failed = sum(_failed(o) for o in outcomes)
    work = sum(o["seconds"] for o in outcomes) * planned / len(outcomes)
    headline = _latencies(outcomes, HEADLINE[workload])
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "cmd_ms_p50": _metric(1e3 * statistics.median(headline), "ms", len(headline), command=HEADLINE[workload]),
        "work_s": _metric(work, "s", len(outcomes), planned=planned),
        "fail_ratio": _metric(failed / len(outcomes), "ratio", len(outcomes), failed=failed),
    }
    if workload == "solve_sweep":
        lpm_times = _latencies(outcomes, "lpm")
        p99, beyond = _nearest_rank(lpm_times, 0.99)
        metrics["lpm_solve_ms_p50"] = _metric(1e3 * statistics.median(lpm_times), "ms", len(lpm_times))
        metrics["lpm_solve_ms_p99"] = _metric(1e3 * p99, "ms", len(lpm_times), beyond=beyond)
        for kind in ("mv", "cvar"):
            times = _latencies(outcomes, kind)
            metrics[f"{kind}_solve_ms_p50"] = _metric(1e3 * statistics.median(times), "ms", len(times))
        times = _latencies(outcomes, "frontier")
        metrics["frontier_s"] = _metric(statistics.median(times), "s", len(times))
    elif workload == "replicate":
        sims = [o for o in outcomes if o["kind"] == "simulate"]
        from perfbench import workloads

        path_steps = workloads.PATHS * workloads.STEPS * len(sims)
        metrics["simulate_path_steps_per_s"] = _metric(
            path_steps / sum(o["seconds"] for o in sims), "1/s", len(sims)
        )
        times = _latencies(outcomes, "policy_table")
        metrics["policy_table_ms_p50"] = _metric(1e3 * statistics.median(times), "ms", len(times))
    else:
        times = _latencies(outcomes, "compare_static")
        metrics["compare_static_s_p50"] = _metric(statistics.median(times), "s", len(times))
    return metrics


# ------------------------------------------------------------------ workloads


def run_workload(args) -> int:
    from capfolio import cli

    from perfbench import checks, tracer, workloads

    passes = workloads.generate(args.workload, args.seed, args.seconds)
    work_dir = OUT / f"work-{args.workload}"
    shutil.rmtree(work_dir, ignore_errors=True)
    runner = Runner(cli, checks, work_dir)
    first = passes[0][0]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "environment": environment(),
    }
    # rerunning a command must reproduce its artifacts byte for byte
    warm = runner.run(first)
    # keep the collector off the objects built so far, so that a full
    # collection inside a timed command costs what it would in a fresh CLI
    gc.collect()
    gc.freeze()
    problems = []
    if args.trace:
        ops = passes[0]
        plain = [runner.run(op) for op in ops]
        spans = tracer.Tracer()
        spans.install("capfolio")
        op_sites = {kind: spans.new_site(f"bench.op[{kind}]", f"bench.{kind}") for kind in {op.kind for op in ops}}
        try:
            traced = [runner.run(op, span=spans.span(op_sites[op.kind]), check=False) for op in ops]
        finally:
            spans.uninstall()
        metrics = tracer.layer_metrics(spans.arrays(), spans.functions)
        metrics["cli.bytes_written"] = sum(o["bytes"] for o in traced)
        metrics["trace.overhead_s"] = sum(o["seconds"] for o in traced) - sum(o["seconds"] for o in plain)
        metrics["trace.spans"] = len(spans)
        spans.save(OUT / f"spans-{args.workload}.npz")
        for a, b in zip(plain, traced):
            if a["digest"] != b["digest"]:
                problems.append(f"traced digest differs: {a['label']}")
        outcomes, checked = traced, plain
        reported = {name: {"value": value} for name, value in metrics.items()}
        record["untraced_s"] = sum(o["seconds"] for o in plain)
        record["traced_s"] = sum(o["seconds"] for o in traced)
    else:
        setup_config = work_dir / "first.json"
        runner.write_config(first, setup_config)
        setup = _setup_seconds(setup_config)
        ops = [op for p in passes for op in p]
        outcomes = []
        for op in ops:
            outcomes.append(runner.run(op))
            if time.perf_counter() - _STARTED > RUN_LIMIT_S:
                print(f"stopped after {len(outcomes)} of {len(ops)} commands at the time limit", file=sys.stderr)
                break
        checked = outcomes
        reported = end_to_end(args.workload, outcomes, len(ops), setup)
    if warm["digest"] != checked[0]["digest"]:
        problems.append(f"rerun changed the artifacts of {first.label}")
    problems += [f"{o['label']}: {p}" for o in checked for p in o["problems"]]
    problems += [f"{o['label']}: exit {o['rc']}: {o['message']}" for o in checked if _incorrect(o) and not o["problems"]]
    failures = [{"label": o["label"], "rc": o["rc"], "message": o["message"]} for o in outcomes if _failed(o)]
    record.update(
        metrics=reported,
        attempted=len(outcomes),
        failed=len(failures),
        failures=failures,
        problems=problems,
        ops=[[o["label"], o["rc"], o["seconds"], o["digest"]] for o in outcomes],
    )
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    _report(record)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in bench["per_layer"] + bench["end_to_end"]}
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(outcomes),
                "failed": len(failures),
                "metrics": {n: {"value": reported[n]["value"], "unit": units[n]} for n in wanted},
            }
        )
    )
    return 0


def _report(record) -> None:
    env = record["environment"]
    print(
        f"perfbench {record['workload']} seed={record['seed']} seconds={record['seconds']} "
        f"trace={record['trace']} passes={record['passes']}"
    )
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items() if k != "blas_threads")
          + f", blas_threads={BLAS_THREADS}")
    for name, m in record["metrics"].items():
        extra = {k: v for k, v in m.items() if k not in ("value", "unit", "n")}
        tail = "  " + " ".join(f"{k}={v}" for k, v in extra.items()) if extra else ""
        unit = m.get("unit", "")
        n = f"n={m['n']}" if "n" in m else ""
        print(f"  {name:32s} {m['value']:>16.6g} {unit:6s} {n}{tail}")
    if "traced_s" in record:
        print(f"  traced {record['traced_s']:.3f} s, untraced {record['untraced_s']:.3f} s")
    print(f"attempted {record['attempted']}, failed {record['failed']}")
    for f in record["failures"]:
        print(f"  failed: {f['label']}  exit {f['rc']}  {f['message']}")
    for p in record["problems"]:
        print(f"  INCORRECT: {p}")


def run_all(args) -> int:
    """Run every workload in its own process and print all their metrics."""
    from perfbench import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "capfolio" / "__init__.py").is_file():
        print(f"no capfolio sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import capfolio

    if Path(capfolio.__file__).resolve().parent != (SRC / "capfolio").resolve():
        print(f"imported capfolio from {capfolio.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
