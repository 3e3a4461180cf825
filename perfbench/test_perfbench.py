"""Tests of the benchmark's own machinery: seeded inputs and span arithmetic."""
import math

import numpy as np
import pytest

from capfolio import lpm, market
from perfbench import tracer, workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.generate(workload, 7, 1)
    assert workloads.generate(workload, 7, 1) == first
    assert workloads.generate(workload, 8, 1) != first


def test_pass_count_follows_seconds_only():
    assert workloads.pass_count("solve_sweep", 1) == 1
    assert workloads.pass_count("solve_sweep", 20) == math.ceil(20 / workloads.NOMINAL_PASS_S["solve_sweep"])


def test_solve_sweep_keeps_every_family_inside_its_bounds():
    families = {f[:4]: f[4:] for f in workloads.lpm_families()}
    seen = {}
    for op in workloads.generate("solve_sweep", 3, 1)[0]:
        if op.kind != "lpm":
            continue
        p = op.config["problem"]
        name = next(n for n, block in workloads.MARKETS.items() if block is op.config["market"])
        lo, hi = families[(name, p["q"], p["gamma"], p["cap"])]
        assert lo < p["d"] < hi
        seen[(name, p["q"], p["gamma"], p["cap"])] = seen.get((name, p["q"], p["gamma"], p["cap"]), 0) + 1
    # the stress market is swept at the same weight as the calibrated ones
    assert seen == {key: workloads.LPM_DRAWS for key in families}


def test_self_time_subtracts_direct_children():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    parent = np.array([-1, 0, 0, 2])
    t0 = np.array([0.0, 1.0, 5.0, 6.0])
    t1 = np.array([10.0, 4.0, 9.0, 7.0])
    assert tracer.self_times(parent, t0, t1).tolist() == [3.0, 3.0, 3.0, 1.0]
    mask = np.array([False, False, True, False])
    assert tracer.has_ancestor(parent, mask).tolist() == [False, False, False, True]


def _spans(rows, functions):
    """Span table from (parent, site, t0, t1, work, evals, flags) rows."""
    cols = list(zip(*rows))
    return {
        "parent": np.array(cols[0], dtype=np.int32),
        "site": np.array(cols[1], dtype=np.uint32),
        "t0": np.array(cols[2]),
        "t1": np.array(cols[3]),
        "work": np.array(cols[4], dtype=np.int64),
        "evals": np.array(cols[5], dtype=np.int64),
        "flags": np.array(cols[6], dtype=np.uint8),
    }


def test_layer_metrics_on_a_synthetic_tree():
    functions = [
        "cvar.solve_cvar", "lpm.solve_lpm", "solvers.solve_2d",
        "kernels.partial_moment_H", "kernels.truncated_exp_moment", "solvers.find_root_1d",
    ]
    failed = tracer.FAILED
    rows = [
        (-1, 0, 0.0, 10.0, 0, 0, 0),  # 0 cvar.solve_cvar
        (0, 1, 1.0, 5.0, 0, 0, 0),  # 1 embedded solve: Newton kept
        (1, 2, 1.5, 4.0, 3, 7, 0),  # 2 solve_2d, 3 iterations, 7 evaluations
        (2, 3, 2.0, 3.0, 1, 0, 0),  # 3 H called from solvers: a kernel entry
        (3, 4, 2.5, 2.75, 1, 0, 0),  # 4 nested kernel call: not an entry
        (0, 1, 6.0, 9.0, 0, 0, 0),  # 5 embedded solve: Newton raised, fallback
        (5, 2, 6.0, 7.0, 2, 5, failed),  # 6
        (5, 5, 7.0, 8.5, 9, 10, 0),  # 7
        (-1, 1, 11.0, 12.0, 0, 0, 0),  # 8 plain solve, degenerate (no Newton)
    ]
    out = tracer.layer_metrics(_spans(rows, functions), functions)
    assert out["cvar.solve_calls"] == 1
    assert out["lpm.solve_calls"] == 3
    assert out["cvar.embedded_solves"] == 2
    assert out["cvar.embedded_per_solve"] == 2.0
    assert out["lpm.newton_accept_ratio"] == 0.5
    assert out["solvers.newton_2d_calls"] == 2
    assert out["solvers.newton_2d_iterations"] == 5
    assert out["solvers.newton_2d_raised"] == 1
    assert out["solvers.root_1d_iterations"] == 9
    assert out["kernels.scalar_calls"] == 1
    assert out["cvar.self_s"] == pytest.approx(10.0 - 4.0 - 3.0)
    assert out["lpm.self_s"] == pytest.approx((4.0 - 2.5) + (3.0 - 1.0 - 1.5) + 1.0)
    assert out["solvers.self_s"] == pytest.approx((2.5 - 1.0) + 1.0 + 1.5)
    assert out["kernels.self_s"] == pytest.approx(1.0)


def test_install_wraps_every_binding_site_and_uninstall_restores_them():
    model = market.validate_market(1.0, 0.06, 0.12, 0.15)
    problem = lpm.LpmProblem(x0=1.0, d=1.3, gamma=math.exp(0.06), cap=10.0, q=2.0, horizon=1.0)
    original = (lpm.solve_lpm, lpm.solve_2d, lpm.truncated_exp_moment)
    plain = lpm.solve_lpm(problem, model)
    spans = tracer.Tracer()
    assert spans.install("capfolio") > 0
    try:
        traced = lpm.solve_lpm(problem, model)
    finally:
        spans.uninstall()
    assert (lpm.solve_lpm, lpm.solve_2d, lpm.truncated_exp_moment) == original
    fields = ("multipliers", "delta", "rho", "objective_value", "hit_prob")
    assert [getattr(traced, f) for f in fields] == [getattr(plain, f) for f in fields]
    called = {spans.sites[s] for s in spans.arrays()["site"]}
    assert {"lpm.solve_lpm", "lpm.solve_2d", "kernels.truncated_exp_moment"} <= called
    assert spans.arrays()["parent"][0] == -1
