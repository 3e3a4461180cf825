"""Acceptance gate: twelve criteria, one verdict line each.

Every test records exactly one ``criterion NN name: PASS|FAIL`` line through
the recorder fixture (replayed in the terminal summary), and a crash inside
a check still produces its verdict line before the test fails.  Reference
values quoted here come from the comparison tables for the two calibrated
markets; derived constants were frozen from independent quadrature and LP
probes before the library was written.
"""
import dataclasses
import json
import math
import time

import numpy as np
from scipy.integrate import quad

from capfolio import baseline, cli, cvar, kernels, lpm, meanvar, montecarlo, surface

import markets
from test_kernels import _PHI_TABLE

GAMMA1 = math.exp(0.06)


def _verdict(criterion, num, name, check):
    try:
        ok, details = check()
    except Exception as exc:  # noqa: BLE001 - a crash must still leave a verdict
        ok, details = False, f"{type(exc).__name__}: {exc}"
    criterion(num, name, ok, details)


def _problem1(q, cap=10.0, d=1.3, x0=1.0, gamma=GAMMA1):
    return lpm.LpmProblem(x0=x0, d=d, gamma=gamma, cap=cap, q=q, horizon=1.0)


def _problem2(d=12.0, beta=0.95):
    return cvar.CvarProblem(x0=10.0, d=d, cap=100.0, beta=beta, horizon=1.0)


def test_criterion_01_multiplier_reproduction(example1, criterion):
    def check():
        targets = [
            ("q=2", 2.0, (0.7852, 0.2007)),
            ("q=1", 1.0, (0.3261, 0.7852)),
            ("mv", None, (5.7694, 3.421)),
        ]
        ok = True
        parts = []
        for tag, q, want in targets:
            t0 = time.perf_counter()
            if q is None:
                mult = meanvar.solve_mv(
                    meanvar.MvProblem(x0=1.0, d=1.3, horizon=1.0), example1
                )
            else:
                mult = lpm.solve_lpm(_problem1(q), example1).multipliers
            elapsed = time.perf_counter() - t0
            rel = max(
                abs(mult.mean - want[0]) / abs(want[0]),
                abs(mult.budget - want[1]) / abs(want[1]),
            )
            parts.append(
                f"{tag} ({mult.mean:.4f},{mult.budget:.4f}) vs {want} rel={rel:.3g}"
            )
            ok = ok and rel <= 1e-2 and elapsed < 1.0
        return ok, "; ".join(parts)

    _verdict(criterion, 1, "multiplier reproduction", check)


def test_criterion_02_feasibility_bounds(example1, criterion):
    def check():
        lo, hi = lpm.d_bounds(_problem1(1.0), example1)
        err_lo = abs(lo - 1.0618)
        err_hi = abs(hi - 1.9847)
        ok = err_lo <= 1e-3 and err_hi <= 5e-3
        return ok, f"d_lower={lo:.6f} (|err|={err_lo:.2g}), d_upper={hi:.6f} (|err|={err_hi:.2g})"

    _verdict(criterion, 2, "feasibility bounds", check)


def test_criterion_03_hit_probabilities(example1, criterion):
    def check():
        reference = {10.0: (0.022, 0.032, 0.003), 30.0: (0.007, 0.009, 0.002)}
        hits = {
            (cap, q): lpm.solve_lpm(_problem1(q, cap=cap), example1).hit_prob
            for cap in (10.0, 15.0, 20.0, 30.0)
            for q in (1.0, 2.0)
        }
        ok = True
        parts = []
        for cap, (ref1, ref2, tol) in reference.items():
            gap1 = abs(hits[(cap, 1.0)] - ref1)
            gap2 = abs(hits[(cap, 2.0)] - ref2)
            parts.append(
                f"B={cap:.0f}: q=1 {hits[(cap, 1.0)]:.4%} vs {ref1:.1%} "
                f"(gap {gap1 * 100:.2f}pp), q=2 {hits[(cap, 2.0)]:.4%} vs {ref2:.1%} "
                f"(gap {gap2 * 100:.2f}pp)"
            )
            ok = ok and gap1 <= tol and gap2 <= tol
        for q in (1.0, 2.0):
            series = [hits[(cap, q)] for cap in (10.0, 15.0, 20.0, 30.0)]
            mono = all(a > b for a, b in zip(series, series[1:]))
            parts.append(f"q={q:.0f} decreasing in B: {mono}")
            ok = ok and mono
        return ok, "; ".join(parts)

    _verdict(criterion, 3, "hit probabilities", check)


def test_criterion_04_solve_identities(example1, criterion):
    def check():
        instances = [
            _problem1(q, d=d) for q in (0.0, 0.5, 1.0, 2.0) for d in (1.2, 1.3, 1.6)
        ]
        instances += [
            _problem1(q, cap=cap) for cap in (15.0, 20.0, 30.0) for q in (1.0, 2.0)
        ]
        worst_budget = 0.0
        worst_mean = 0.0
        for prob in instances:
            sol = lpm.solve_lpm(prob, example1)
            assert sol.multipliers.case == lpm.REGULAR
            worst_budget = max(
                worst_budget, abs(float(surface.wealth(lpm.payoff(sol), 0.0, 1.0)) - prob.x0)
            )
            worst_mean = max(
                worst_mean, abs(lpm.expected_terminal_wealth(sol) - prob.d)
            )
        ok = worst_budget <= 1e-6 and worst_mean <= 1e-8
        return ok, (
            f"{len(instances)} solves: max |wealth(0,1)-x0|={worst_budget:.2e}, "
            f"max |E[X*]-d|={worst_mean:.2e}"
        )

    _verdict(criterion, 4, "regular-solve identities", check)


def _kink_free_grid(kinks, count=200):
    grid = np.geomspace(0.2, 3.0, 280)
    for k in kinks:
        if k is not None and math.isfinite(k):
            grid = grid[np.abs(grid / k - 1.0) > 0.04]
    assert grid.size >= count
    return grid[:count]


def _fd_policy(value_fn, pull, z, h_rel=1e-5):
    h = h_rel * z
    dxdz = (value_fn(z + h) - value_fn(z - h)) / (2.0 * h)
    return -z * dxdz * pull


def test_criterion_05_policy_gradient(example1, criterion):
    def check():
        pull = 0.06 / 0.15**2
        cases = []
        for q in (1.0, 2.0):
            sol = lpm.solve_lpm(_problem1(q), example1)
            kinks = [sol.delta, None if sol.rho is None else sol.delta + sol.rho]
            pay = lpm.payoff(sol)
            for t in (0.2, 0.5, 0.8):
                cases.append(
                    (
                        f"q={q:.0f} t={t}",
                        kinks,
                        lambda z, s=pay, tt=t: surface.wealth(s, tt, z),
                        lambda z, s=pay, tt=t: np.ravel(surface.policy(s, tt, z)),
                    )
                )
        mult = meanvar.solve_mv(meanvar.MvProblem(x0=1.0, d=1.3, horizon=1.0), example1)
        mv_pay = meanvar.mv_payoff(mult, example1)
        for t in (0.2, 0.5, 0.8):
            cases.append(
                (
                    f"mv t={t}",
                    [mult.mean / mult.budget],
                    lambda z, tt=t: surface.wealth(mv_pay, tt, z),
                    lambda z, tt=t: np.ravel(surface.policy(mv_pay, tt, z)),
                )
            )
        worst = 0.0
        worst_tag = ""
        n_points = 0
        for tag, kinks, value_fn, policy_fn in cases:
            grid = _kink_free_grid(kinks)
            n_points += grid.size
            closed = policy_fn(grid)
            approx = _fd_policy(value_fn, pull, grid)
            rel = float(np.max(np.abs(approx - closed) / np.abs(closed)))
            if rel > worst:
                worst, worst_tag = rel, tag
        ok = worst <= 1e-5
        return ok, f"{n_points} points, max rel err {worst:.2e} at {worst_tag}"

    _verdict(criterion, 5, "policy gradient consistency", check)


def test_criterion_06_euler_replication(example1, criterion):
    def check():
        t0 = time.perf_counter()
        pay = lpm.payoff(lpm.solve_lpm(_problem1(2.0), example1))
        errors = {}
        mean_est = None
        for steps in (128, 256):
            ens = montecarlo.run_policy(example1, pay, 10_000, steps, seed=77)
            x_t = ens.x_terminal
            target = surface.terminal_wealth(pay, ens.z_terminal)
            errors[steps] = float(np.mean(np.abs(x_t - target)))
            mean_est = montecarlo.estimate_mean(x_t)
        factor = errors[128] / errors[256]
        # The band sits at order 1/2, not 1: Euler-Maruyama has strong order
        # 1/2 (Kloeden & Platen 1992, Thm 10.2.2), and the capped payoff jumps
        # from B to gamma at z = delta, so paths that end near the jump alone
        # hold the L1 terminal error to about sqrt(dt).  0.25 <= order <= 0.75
        # (factor 1.19-1.68) rejects a factor of 2 (order 1) and no
        # convergence at all.
        order = math.log2(factor)
        elapsed = time.perf_counter() - t0
        mean_gap_se = abs(mean_est.value - 1.3) / mean_est.std_error
        ok = 0.25 <= order <= 0.75 and mean_gap_se <= 3.0 and elapsed < 60.0
        return ok, (
            f"halving factor {factor:.3f}, order {order:.2f} "
            f"(err128={errors[128]:.3e}, err256={errors[256]:.3e}), "
            f"terminal mean {mean_est.value:.4f} "
            f"({mean_gap_se:.2f} SE from 1.3), {elapsed:.1f}s"
        )

    _verdict(criterion, 6, "euler replication", check)


#: criterion 07's table of the dynamic CVaR of example 2 per (d, beta)
CVAR_TABLE = {
    (11.0, 0.90): 0.056, (12.0, 0.90): 0.187, (13.0, 0.90): 0.351,
    (11.0, 0.95): 0.074, (12.0, 0.95): 0.208, (13.0, 0.95): 0.373,
}


def test_criterion_07_dynamic_cvar_table(example2, criterion, acceptance_note):
    def check():
        reference = CVAR_TABLE
        acceptance_note(
            "assumption ledger: r=0.016 implied by the reference market price "
            "of risk, T=1, cap B=100, x0=10"
        )
        ok = True
        parts = []
        for beta in (0.90, 0.95):
            rows = cvar.frontier(_problem2(beta=beta), example2, [11.0, 12.0, 13.0])
            for row in rows:
                ref = reference[(row.d, beta)]
                rel = (row.cvar - ref) / ref
                parts.append(f"({row.d:.0f},{beta}) {row.cvar:.4f} vs {ref} {rel:+.1%}")
                ok = ok and row.status == "ok" and abs(rel) <= 0.15
        tail = [r.cvar for r in cvar.frontier(_problem2(beta=0.99), example2, [11.0, 12.0, 13.0])]
        mono = all(a < b for a, b in zip(tail, tail[1:]))
        parts.append(f"beta=0.99 increasing in d: {mono}")
        parts.append("the table fits a cap of 150: test_criterion_07_table_fits_a_cap_of_150")
        ok = ok and mono
        return ok, "; ".join(parts)

    _verdict(criterion, 7, "dynamic cvar table", check)


def test_criterion_07_table_fits_a_cap_of_150(example2, acceptance_note):
    # criterion 07's ledger says cap B = 100, where every cell lies 14-18 %
    # above the table and no (r, ||theta||^2) fits it better than 9 %; with
    # the ledger's r and ||theta||^2 and only the cap moved to 150 = 15 x0,
    # all six cells come within 0.5 % (B = 140 and 160 miss by 2-3 %)
    rows = []
    for (d, beta), ref in CVAR_TABLE.items():
        problem = cvar.CvarProblem(x0=10.0, d=d, cap=150.0, beta=beta, horizon=1.0)
        rows.append((d, beta, cvar.solve_cvar(problem, example2).cvar, ref))
    cells = (f"({d:.0f},{beta}) {got:.4f} vs {ref} {got / ref - 1:+.2%}" for d, beta, got, ref in rows)
    acceptance_note("criterion 07 at cap 150: " + "; ".join(cells))
    for d, beta, got, ref in rows:
        assert abs(got / ref - 1.0) <= 0.005, (d, beta, got, ref)


def test_criterion_08_static_baseline(example2, criterion):
    def check():
        cells = [(11.0, 0.90, 1.129), (12.0, 0.95, 2.849)]
        ok = True
        parts = []
        scenarios = baseline.generate_scenarios(example2, 20_000, 20240817)
        xbar = 10.0 * scenarios.returns[0, -1]
        for d, beta, ref in cells:
            static = baseline.solve_static_cvar(scenarios, beta=beta, d=d, x0=10.0, xbar=xbar)
            dynamic = cvar.solve_cvar(_problem2(d=d, beta=beta), example2).cvar
            rel = (static.objective - ref) / ref
            parts.append(
                f"({d:.0f},{beta}) static {static.objective:.4f} vs {ref} {rel:+.1%}, "
                f"dynamic {dynamic:.4f}"
            )
            ok = (
                ok
                and static.status == baseline.OPTIMAL
                and abs(rel) <= 0.20
                and dynamic < static.objective
            )
        return ok, "; ".join(parts) + " (2e4 scenarios, CI band 20%)"

    _verdict(criterion, 8, "static baseline", check)


def test_criterion_09_estimator_equivalence(criterion):
    def check():
        rng = np.random.default_rng(20240822)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(10, 10_001))
            beta = float(rng.uniform(0.05, 0.99))
            losses = rng.normal(rng.uniform(-1, 1), rng.uniform(0.2, 3.0), size=n)
            sorted_route = montecarlo.estimate_cvar(-losses, beta, 0.0).value
            cand = np.sort(losses)
            # sum of (loss - alpha)+ at alpha = cand[i] is suffix_sum_i - (n-i) cand[i];
            # the piecewise-linear objective attains its minimum at a sample point
            suffix = np.concatenate([np.cumsum(cand[::-1])[::-1], [0.0]])
            idx = np.arange(n)
            ru = cand + (suffix[:n] - (n - idx) * cand) / ((1.0 - beta) * n)
            worst = max(worst, abs(sorted_route - float(ru.min())))
        ok = worst <= 1e-10
        return ok, f"100 samples, max |sorted - min-alpha| = {worst:.2e}"

    _verdict(criterion, 9, "estimator equivalence", check)


def test_criterion_10_pointwise_optimality(example1, criterion):
    def check():
        rng = np.random.default_rng(7)
        grid_n = 100_000
        worst_ratio = 0.0
        for draw in range(200):
            q = (0.0, 0.5, 1.0, 2.0)[draw % 4]
            gamma = float(rng.uniform(0.8, 1.3))
            cap = float(rng.uniform(4.0, 20.0))
            probe = lpm.LpmProblem(
                x0=1.0, d=gamma, gamma=gamma, cap=cap, q=q, horizon=1.0
            )
            lo, hi = lpm.d_bounds(probe, example1)
            d = lo + float(rng.uniform(0.15, 0.85)) * (hi - lo)
            sol = lpm.solve_lpm(
                dataclasses.replace(probe, d=d), example1
            )
            lam, eta = sol.multipliers.mean, sol.multipliers.budget
            z = math.exp(rng.uniform(-0.14 - 1.2, -0.14 + 1.2))
            grid = np.linspace(0.0, cap, grid_n)
            short = np.where(grid < gamma, 1.0, 0.0) if q == 0.0 else np.maximum(gamma - grid, 0.0) ** q
            integrand = short - (lam - eta * z) * grid
            best = grid[int(np.argmin(integrand))]
            closed = float(surface.terminal_wealth(lpm.payoff(sol), z))
            step = cap / (grid_n - 1)
            worst_ratio = max(worst_ratio, abs(closed - best) / step)
        ok = worst_ratio <= 1.0 + 1e-9
        return ok, f"200 draws, max |closed - grid argmin| = {worst_ratio:.3f} grid steps"

    _verdict(criterion, 10, "pointwise optimality", check)


def test_criterion_11_kernel_accuracy(criterion):
    def check():
        rng = np.random.default_rng(31)
        worst_moment = 0.0
        for _ in range(200):
            a = float(rng.uniform(-2.0, 2.0))
            mu = float(rng.uniform(-1.0, 1.0))
            v = float(rng.uniform(0.05, 1.0))
            dcut = mu + float(rng.uniform(-5.0, 5.0)) * v
            exact = kernels.truncated_exp_moment(a, mu, v, dcut)
            ref, _ = quad(
                lambda t: math.exp(a * t)
                * math.exp(-0.5 * ((t - mu) / v) ** 2)
                / (v * math.sqrt(2.0 * math.pi)),
                mu - 14.0 * v,
                dcut,
                limit=300,
            )
            worst_moment = max(worst_moment, abs(exact - ref))
        worst_phi = max(
            abs(kernels.std_normal_cdf(x) - ref) for x, ref in _PHI_TABLE
        )
        ok = worst_moment <= 1e-9 and worst_phi <= 1e-14
        return ok, (
            f"truncated moment max |err|={worst_moment:.2e} (200 cases), "
            f"cdf max |err|={worst_phi:.2e} (64 probes)"
        )

    _verdict(criterion, 11, "kernel accuracy", check)


def test_criterion_12_determinism(tmp_path, criterion):
    def check():
        outs = []
        for tag in ("first", "second"):
            out = tmp_path / tag
            lpm_cfg = tmp_path / f"lpm_{tag}.json"
            lpm_cfg.write_text(json.dumps({
                "market": markets.EXAMPLE1,
                "problem": {"kind": "lpm", "x0": 1.0, "d": 1.3,
                            "gamma": GAMMA1, "cap": 10.0, "q": 2.0},
                "run": {"out": str(out), "t": 0.5, "z_grid": {"count": 40},
                        "paths": 300, "steps": 8, "seed": 11},
            }))
            cvar_cfg = tmp_path / f"cvar_{tag}.json"
            cvar_cfg.write_text(json.dumps({
                "market": markets.EXAMPLE2,
                "problem": {"kind": "cvar", "x0": 10.0, "d": 12.0,
                            "cap": 100.0, "beta": 0.95},
                "run": {"out": str(out), "d_grid": [11.0], "betas": [0.90],
                        "scenarios": 1500, "seed": 11},
            }))
            for cfg, cmd in (
                (lpm_cfg, "solve"),
                (lpm_cfg, "policy_table"),
                (lpm_cfg, "simulate"),
                (cvar_cfg, "frontier"),
                (cvar_cfg, "compare_static"),
            ):
                code = cli.main(["--config", str(cfg), "--cmd", cmd])
                assert code == 0, f"{cmd} exited {code}"
            outs.append(out)
        artifacts = [
            "solution.json", "policy_table.csv", "simulation.json",
            "simulation.csv", "frontier.csv", "compare_static.csv",
        ]
        differing = [
            name
            for name in artifacts
            if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes()
        ]
        ok = not differing
        detail = (
            f"{len(artifacts)} artifacts byte-identical across two runs"
            if ok
            else f"artifacts differ: {', '.join(differing)}"
        )
        return ok, detail

    _verdict(criterion, 12, "determinism", check)
