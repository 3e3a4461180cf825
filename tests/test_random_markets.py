"""Seeded mean-LPM, mean-CVaR and mean-variance sweeps over random one-asset
markets, and one sweep over the paper's whole class of deterministic markets.

The draws: r in [-0.02, 0.1]; sigma, the Sharpe ratio (1e-4 to 5) and T
(0.1 to 20 y) log-uniform.  Every instance either raises an error of its
solve's stated raise set (tests/raise_sets.py) or solves to a policy that an
independent route confirms.

- LPM, q in {0, 0.3, 1, 2}: gamma and the cap spread around the risk-free
  growth x0 e^{rT}, targets inside (d_lower, d_upper) or within 1e-12 to
  1e-3 of the range from either bound, on both sides of d_lower.  The mean
  `expected_terminal_wealth` meets d (equals it when the case is Regular),
  and the wealth surface at t = 0 recovers x0 to 1e-8.
- Mean-CVaR: the cap spread around the safe level x0 e^{rT}, targets inside
  (safe level, d_upper) or within 1e-12 to 1e-3 of either end.  J(alpha*)
  through `cvar.j_value`, J not lower at alpha* +- h, and the embedded
  policy's budget (through the wealth surface at t = 0) and mean within
  1e-8.
- Mean-variance: targets x0 e^{rT} (1 + eps), eps log-uniform on
  [1e-12, 1).  The budget through the wealth surface at t = 0 and the mean
  as the first moment of the payoff's branches under the lognormal law of
  z(T), both within 1e-8.  Floor-edge draws on the same market law, x0 in
  {1, 10, 78.53}: d at the written floor x0 / E[z(T)] raises DomainError,
  and the next float up solves, within the same 1e-8.

Every payoff that solves is also held to the surface contract: at z = 1
and t in {0, T/2}, `surface.policy` matches a central difference of
`surface.wealth` in ln z.

The market-class sweep draws 1 to 4 assets and 1 to 4 coefficient segments
at random breakpoints, T log-uniform on [0.2, 10], and per segment r, a
random sigma and a random theta (mu = r 1 + sigma theta), with the kinds
rotating through LPM q in {0, 0.5, 1, 2}, mean-CVaR and mean-variance at
interior targets.  Every draw solves with budget x(0, 1) = x0 to 1e-8;
`surface.policy_scale` matches the central difference at t = 0, at each
breakpoint and at T/2; and there `surface.policy` is the scale times
(sigma sigma')^{-1}(mu - r 1) solved by numpy from the drawn coefficients,
the one check of the direction that is independent of the market's own
solve.  On the first multi-asset, multi-segment draws the Euler
replication gap E|x(T) - X(z(T))| of `montecarlo.run_policy` falls at
least 1.5 times from 64 to 256 steps on one seed.
"""
import math
import random

import numpy as np
import pytest

from capfolio import cvar, lpm, market, meanvar, montecarlo, surface
from capfolio.errors import CapfolioError, DomainError, SolverDiverged, TargetTooHigh
from raise_sets import RAISES

SEED = 20241018
N_INSTANCES = 200
BETAS = (0.8, 0.9, 0.95, 0.99)
GRID = 48  # delta grid points on [0, top] for the sign-change check
LPM_SEED = 20241019
N_LPM = 1200
LPM_QS = (0.0, 0.3, 1.0, 2.0)
MV_SEED = 20241020
N_MV = 300
MV_FLOOR_SEED = 20241022
N_MV_FLOOR = 300
MV_FLOOR_X0 = (1.0, 10.0, 78.52627118638533)
CLASS_SEED = 20241021
N_CLASS = 400
CLASS_KINDS = (0.0, 0.5, 1.0, 2.0, "cvar", "mv")


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _market(rng):
    """(r, mu, sigma, horizon) of one random one-asset market."""
    r = rng.uniform(-0.02, 0.1)
    sigma = _log_uniform(rng, 0.05, 1.0)
    mu = r + _log_uniform(rng, 1e-4, 5.0) * sigma
    return r, mu, sigma, _log_uniform(rng, 0.1, 20.0)


def _lpm_draws():
    """(label, model, problem) per LPM instance; model and problem are None
    when the market or the problem is rejected at construction."""
    rng = random.Random(LPM_SEED)
    out = []
    for i in range(N_LPM):
        r, mu, sigma, horizon = _market(rng)
        q = LPM_QS[i % len(LPM_QS)]
        growth = math.exp(r * horizon)
        gamma = growth * math.exp(rng.uniform(-0.5, 0.5))
        cap = max(gamma, growth) * (1.0 + _log_uniform(rng, 1e-2, 20.0))
        where, off, u = rng.random(), _log_uniform(rng, 1e-12, 1e-3), rng.random()
        label = f"r={r!r} mu={mu!r} sigma={sigma!r} T={horizon!r} q={q} gamma={gamma!r} cap={cap!r}"
        try:
            model = market.validate_market(horizon, r, mu, sigma)
            probe = lpm.LpmProblem(x0=1.0, d=0.0, gamma=gamma, cap=cap, q=q, horizon=horizon)
            lo, hi = lpm.d_bounds(probe, model)
            span = hi - lo
            if where < 0.2:
                d = lo + span * off
            elif where < 0.3:
                d = lo - span * off
            elif where < 0.5:
                d = hi - span * off
            else:
                d = lo + span * u
            prob = lpm.LpmProblem(x0=1.0, d=d, gamma=gamma, cap=cap, q=q, horizon=horizon)
        except CapfolioError:  # d may round up to the cap
            out.append((label, None, None))
            continue
        out.append((f"{label} d={d!r}", model, prob))
    return out


def _lpm_solve(prob, model):
    """The solution, or the CapfolioError the solve raised."""
    try:
        return lpm.solve_lpm(prob, model)
    except CapfolioError as exc:
        return exc


@pytest.fixture(scope="module")
def lpm_outcomes():
    return [
        (label, model, prob, _lpm_solve(prob, model))
        for label, model, prob in _lpm_draws()
        if model is not None
    ]


def _lpm_violations(prob, sol):
    """Contract violations of one solved LPM instance: the mean meets d
    (equals it when Regular) and the wealth at t = 0 is the budget."""
    found = []
    tol = 1e-8 * max(1.0, abs(prob.d))
    mean = lpm.expected_terminal_wealth(sol)
    regular = sol.multipliers.case == lpm.REGULAR
    if mean < prob.d - tol or (regular and abs(mean - prob.d) > tol):
        found.append(f"{sol.multipliers.case} mean {mean!r} against d {prob.d!r}")
    budget = float(surface.wealth(lpm.payoff(sol), 0.0, 1.0))
    if abs(budget - prob.x0) > 1e-8 * max(1.0, prob.x0):
        found.append(f"budget {budget!r} against x0 {prob.x0}")
    return found


def _undocumented(label, outcome, name):
    """[a failure line] when the outcome is an error outside the raise set of
    the solve `name`, else []."""
    if isinstance(outcome, CapfolioError) and type(outcome) not in RAISES[name]:
        return [f"{label}: {name} raised {type(outcome).__name__}: {outcome}"]
    return []


def test_lpm_sweep_solves_or_raises_a_documented_error(lpm_outcomes):
    failures = []
    for label, _, prob, sol in lpm_outcomes:
        failures += _undocumented(label, sol, "lpm.solve_lpm")
        if not isinstance(sol, CapfolioError):
            failures += [f"{label}: {v}" for v in _lpm_violations(prob, sol)]
    assert failures == []


def test_lpm_sweep_top_of_the_curve_is_target_too_high_at_low_nu0(lpm_outcomes):
    # no instance diverges: the 10 whose root is the top of the budget curve
    # (delta_bar, rho = 0) have targets within 5e-14 of d_upper, relative,
    # on markets whose nu0 is below 2e-3, and raise TargetTooHigh
    assert [label for label, _, _, sol in lpm_outcomes if isinstance(sol, SolverDiverged)] == []
    top = [
        (market.deflator_context(model, prob.horizon).nu0, (lpm.d_bounds(prob, model)[1] - prob.d) / prob.d)
        for _, model, prob, sol in lpm_outcomes
        if isinstance(sol, TargetTooHigh) and "within rounding" in str(sol)
    ]
    assert len(top) == 10
    assert [item for item in top if not (item[0] < 2e-3 and 0.0 < item[1] < 5e-14)] == []


def test_lpm_draws_cover_every_case_and_order(lpm_outcomes):
    kinds = {
        (prob.q, sol.multipliers.case)
        for _, _, prob, sol in lpm_outcomes
        if not isinstance(sol, CapfolioError)
    }
    cases = (lpm.REGULAR, lpm.DEGENERATE_LOW_TARGET, lpm.DEGENERATE_RICH)
    assert {(q, case) for q in LPM_QS for case in cases} <= kinds


def test_lpm_target_at_the_low_end_of_the_budget_curve():
    # d lies 1.1e-14 below the mean at the low end of the curve, but above a
    # d_lower taken from a separate closed form: classified Regular, the
    # mean gap then had no sign change on [0, delta_bar]
    horizon = 0.22041487189640696
    model = market.validate_market(
        horizon, -0.013017615084703532, -0.012837736830200166, 0.0361710353477578
    )
    prob = lpm.LpmProblem(
        x0=1.0, d=0.9971379043875338, gamma=1.5599522867678428,
        cap=5.769080557087617, q=2.0, horizon=horizon,
    )
    sol = lpm.solve_lpm(prob, model)
    assert sol.multipliers.case == lpm.DEGENERATE_LOW_TARGET
    assert _lpm_violations(prob, sol) == []


def _draws():
    """(label, model, problem) per instance; model and problem are None
    when the market or the problem is rejected at construction."""
    rng = random.Random(SEED)
    out = []
    for i in range(N_INSTANCES):
        r, mu, sigma, horizon = _market(rng)
        beta = BETAS[i % len(BETAS)]
        xbar = math.exp(r * horizon)
        cap = xbar * (1.0 + _log_uniform(rng, 1e-2, 20.0))
        where, off, u = rng.random(), _log_uniform(rng, 1e-12, 1e-3), rng.random()
        label = f"r={r!r} mu={mu!r} sigma={sigma!r} T={horizon!r} beta={beta} cap={cap!r}"
        try:
            model = market.validate_market(horizon, r, mu, sigma)
            probe = lpm.LpmProblem(x0=1.0, d=0.0, gamma=cap, cap=cap, q=1.0, horizon=horizon)
            d_upper = lpm.d_bounds(probe, model)[1]
        except CapfolioError:
            out.append((label, None, None))
            continue
        if where < 0.25:
            d = xbar * (1.0 + off)
        elif where < 0.5:
            d = d_upper - (d_upper - xbar) * off
        else:
            d = xbar + (d_upper - xbar) * u
        prob = cvar.CvarProblem(x0=1.0, d=d, cap=cap, beta=beta, horizon=horizon)
        out.append((f"{label} d={d!r}", model, prob))
    return out


DRAWS = _draws()


def _solve(prob, model):
    """The solution, or the CapfolioError the solve raised."""
    try:
        return cvar.solve_cvar(prob, model)
    except CapfolioError as exc:
        return exc


@pytest.fixture(scope="module")
def outcomes():
    return [
        (label, model, prob, _solve(prob, model))
        for label, model, prob in DRAWS
        if model is not None
    ]


def _violations(prob, model, sol):
    """Contract violations of one solved instance."""
    found = []
    lo, hi = sol.xbar - prob.cap, sol.xbar
    if not lo <= sol.alpha_star < hi:
        found.append(f"alpha* {sol.alpha_star!r} outside [{lo!r}, {hi!r})")
    j_star = cvar.j_value(prob, model, sol.alpha_star)
    if not math.isclose(j_star, sol.cvar, rel_tol=1e-12):
        found.append(f"J(alpha*) {sol.cvar!r} but j_value {j_star!r}")
    h = 1e-4 * sol.xbar
    for alpha in (sol.alpha_star - h, sol.alpha_star + h):
        if not lo <= alpha <= hi:
            continue
        j = cvar.j_value(prob, model, alpha)
        if j < sol.cvar:
            found.append(f"J({alpha!r}) = {j!r} below J(alpha*) = {sol.cvar!r}")
    budget = float(surface.wealth(lpm.payoff(sol.policy), 0.0, 1.0))
    if abs(budget - prob.x0) > 1e-8 * max(1.0, prob.x0):
        found.append(f"budget {budget!r} against x0 {prob.x0}")
    mean = lpm.expected_terminal_wealth(sol.policy)
    slack = sol.policy.multipliers.mean == 0.0
    if mean < prob.d - 1e-8 * max(1.0, prob.d) or (
        not slack and abs(mean - prob.d) > 1e-8 * max(1.0, prob.d)
    ):
        found.append(f"mean {mean!r} against d {prob.d!r}")
    return found


def test_sweep_solves_or_raises_a_documented_error(outcomes):
    failures = []
    for label, model, prob, sol in outcomes:
        failures += _undocumented(label, sol, "cvar.solve_cvar")
        if not isinstance(sol, CapfolioError):
            failures += [f"{label}: {v}" for v in _violations(prob, model, sol)]
    assert failures == []


def test_outer_gap_changes_sign_once(outcomes):
    # negative then positive on [0, top], positive throughout when the mean
    # constraint is slack at alpha* (gap >= 0 at delta = 0), and negative
    # throughout only for a target within rounding of d_upper; the top is
    # evaluated exactly, where the gap is taken at its limit
    failures = []
    for label, model, prob, sol in outcomes:
        if isinstance(sol, TargetTooHigh):
            continue
        try:
            curve, top = cvar._reduction(prob, market.deflator_context(model, prob.horizon))
            grid = [top * k / GRID for k in range(GRID)] + [top]
            signs = [curve(delta)[0] > 0.0 for delta in grid]
        except CapfolioError as exc:
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        if signs != sorted(signs):
            failures.append(f"{label}: signs {signs}")
    assert failures == []


def test_draws_cover_both_corners_and_the_interior(outcomes):
    # the sweep reaches the slack corner, the cap corner and regular roots
    kinds = set()
    for _, _, prob, sol in outcomes:
        if isinstance(sol, CapfolioError):
            continue
        if sol.alpha_star == sol.xbar - prob.cap:
            kinds.add("cap")
        elif sol.policy.multipliers.case == lpm.DEGENERATE_LOW_TARGET:
            kinds.add("slack")
        else:
            kinds.add(sol.policy.multipliers.case)
    assert {"cap", "slack", lpm.REGULAR} <= kinds


@pytest.mark.parametrize("beta", BETAS)
def test_cap_probe_reproducer_meets_the_contract(beta):
    # xbar - (xbar - cap) rounds above the cap on this market
    r, horizon = 0.0940000182214618, 3.6701099516693647
    model = market.validate_market(horizon, r, r + 0.06, 0.2)
    prob = cvar.CvarProblem(
        x0=1.0, d=1.01 * math.exp(r * horizon), cap=3.9919181092470093,
        beta=beta, horizon=horizon,
    )
    assert _violations(prob, model, cvar.solve_cvar(prob, model)) == []


def test_gap_negative_at_the_top_is_target_too_high():
    # a sweep draw 4.7e-15 below d_upper, relative, on a market with nu0 =
    # 3.9e-3: the mean gap, at least d_upper - d at the top of the curve,
    # rounds to -1.6e-15 there, and the root had no sign change
    r, horizon = 0.034533980932510366, 1.2415336240109962
    model = market.validate_market(horizon, r, 0.034909963353707434, 0.10685951873954934)
    prob = cvar.CvarProblem(
        x0=1.0, d=1.0479395865822914, cap=2.7752281061125244, beta=0.99, horizon=horizon
    )
    with pytest.raises(TargetTooHigh, match="within rounding of d_upper"):
        cvar.solve_cvar(prob, model)


def _mv_draws():
    """(label, model, problem) per mean-variance instance; model is None
    when the market is rejected at construction."""
    rng = random.Random(MV_SEED)
    out = []
    for _ in range(N_MV):
        r, mu, sigma, horizon = _market(rng)
        d = math.exp(r * horizon) * (1.0 + _log_uniform(rng, 1e-12, 1.0))
        label = f"r={r!r} mu={mu!r} sigma={sigma!r} T={horizon!r} d={d!r}"
        try:
            model = market.validate_market(horizon, r, mu, sigma)
        except CapfolioError:
            out.append((label, None, None))
            continue
        out.append((label, model, meanvar.MvProblem(x0=1.0, d=d, horizon=horizon)))
    return out


def _first_moment(payoff):
    """E[X] of a payoff, branch by branch, from the normal law of ln z(T)."""
    ctx = market.deflator_context(payoff.model, payoff.model.horizon)

    def below(shift, y):  # P(ln z <= ln y) under the law shifted by -shift
        if y <= 0.0:
            return 0.0
        if y == math.inf:
            return 1.0
        return 0.5 * math.erfc(-((math.log(y) - ctx.m0) / ctx.nu0 - shift) / math.sqrt(2.0))

    total, lo = 0.0, 0.0
    for hi, start, end in zip(payoff.levels, payoff.starts, payoff.ends):
        # X = start + slope (z - lo) on (lo, hi]
        slope = (end - start) / (hi - lo) if lo < hi < math.inf else 0.0
        total += (start - slope * lo) * (below(0.0, hi) - below(0.0, lo))
        total += slope * ctx.mean * (below(ctx.nu0, hi) - below(ctx.nu0, lo))
        lo = hi
    return total


@pytest.fixture(scope="module")
def mv_outcomes():
    """(label, problem, payoff or the CapfolioError the solve raised) per
    mean-variance draw whose market is accepted."""
    out = []
    for label, model, prob in _mv_draws():
        if model is None:
            continue
        try:
            payoff = meanvar.mv_payoff(meanvar.solve_mv(prob, model), model)
        except CapfolioError as exc:
            payoff = exc
        out.append((label, prob, payoff))
    return out


def _mv_violations(label, prob, payoff):
    """Failure lines of one mean-variance outcome: an error outside the raise
    set, or a payoff whose budget or mean misses x0 or d by 1e-8."""
    if isinstance(payoff, CapfolioError):
        return _undocumented(label, payoff, "meanvar.solve_mv")
    found = []
    budget = float(surface.wealth(payoff, 0.0, 1.0))
    if abs(budget - prob.x0) > 1e-8 * max(1.0, prob.x0):
        found.append(f"{label}: budget {budget!r} against x0 {prob.x0}")
    mean = _first_moment(payoff)
    if abs(mean - prob.d) > 1e-8 * max(1.0, prob.d):
        found.append(f"{label}: mean {mean!r} against d {prob.d!r}")
    return found


def test_mv_sweep_solves_or_raises_a_documented_error(mv_outcomes):
    failures, solved = [], 0
    for label, prob, payoff in mv_outcomes:
        failures += _mv_violations(label, prob, payoff)
        solved += not isinstance(payoff, CapfolioError)
    assert failures == []
    assert solved >= 250


def test_mv_floor_is_rejected_and_the_next_float_is_in_range():
    # floor-edge draws on the sweep's market law: the floor x0 / E[z(T)] that
    # `solve` writes raises DomainError, and the next float up solves, though
    # x0 / d may round to E[z] there and the weighted-mean gap at the bracket's
    # upper end may round to 0 or below (the untruncated limit the gate takes)
    rng = random.Random(MV_FLOOR_SEED)
    failures = []
    for i in range(N_MV_FLOOR):
        r, mu, sigma, horizon = _market(rng)
        x0 = MV_FLOOR_X0[i % len(MV_FLOOR_X0)]
        try:
            model = market.validate_market(horizon, r, mu, sigma)
        except CapfolioError:
            continue
        floor = x0 / market.deflator_context(model, horizon).mean
        label = f"r={r!r} mu={mu!r} sigma={sigma!r} T={horizon!r} x0={x0!r}"
        with pytest.raises(DomainError):
            meanvar.solve_mv(meanvar.MvProblem(x0=x0, d=floor, horizon=horizon), model)
        prob = meanvar.MvProblem(x0=x0, d=math.nextafter(floor, math.inf), horizon=horizon)
        payoff = meanvar.mv_payoff(meanvar.solve_mv(prob, model), model)
        failures += _mv_violations(f"{label} d={prob.d!r}", prob, payoff)
    assert failures == []


def _surface_violations(payoff):
    """Where `surface.policy` leaves a central difference of `surface.wealth`
    in ln z at z = 1 and t in {0, T/2}: the step is 1e-4 of the remaining
    deflator volatility nu(t), where the truncation error is of order
    (h / nu)^2 = 1e-8 relative, and the tolerance is 1e-4 relative to the
    larger of 1 and the two readings."""
    found = []
    model = payoff.model
    for t in (0.0, 0.5 * model.horizon):
        h = 1e-4 * market.deflator_moments(model, t).nu
        up, down = (float(surface.wealth(payoff, t, math.exp(s))) for s in (h, -h))
        fd = (down - up) / (2.0 * h) * model.direction[model.segment_index(t)][0]
        pi = float(surface.policy(payoff, t, 1.0)[0])
        if not abs(pi - fd) <= 1e-4 * max(1.0, abs(fd), abs(pi)):
            found.append(f"policy {pi!r} against a central difference {fd!r} at t = {t!r}")
    return found


def test_policy_is_the_slope_of_the_wealth_surface(lpm_outcomes, outcomes, mv_outcomes):
    payoffs = [
        *((label, lpm.payoff(sol)) for label, _, _, sol in lpm_outcomes
          if not isinstance(sol, CapfolioError)),
        *((label, lpm.payoff(sol.policy)) for label, _, _, sol in outcomes
          if not isinstance(sol, CapfolioError)),
        *((label, payoff) for label, _, payoff in mv_outcomes
          if not isinstance(payoff, CapfolioError)),
    ]
    failures = [f"{label}: {v}" for label, payoff in payoffs for v in _surface_violations(payoff)]
    assert failures == []


def _class_market(rng):
    """(horizon, breakpoints, rate, drift, vol) of one random market with
    1 to 4 assets and 1 to 4 segments."""
    n, n_seg = rng.randint(1, 4), rng.randint(1, 4)
    horizon = _log_uniform(rng, 0.2, 10.0)
    breakpoints = [0.0, *sorted(rng.uniform(0.0, horizon) for _ in range(n_seg - 1))]
    rate, drift, vol = [], [], []
    for _ in range(n_seg):
        r = rng.uniform(-0.02, 0.1)
        sigma = [
            [_log_uniform(rng, 0.05, 0.5) if i == j else rng.uniform(-0.1, 0.1) for j in range(n)]
            for i in range(n)
        ]
        theta = [rng.gauss(0.0, 1.0) for _ in range(n)]
        size = _log_uniform(rng, 0.05, 1.0) / math.sqrt(sum(v * v for v in theta))
        rate.append(r)
        drift.append([r + size * sum(a * b for a, b in zip(row, theta)) for row in sigma])
        vol.append(sigma)
    return horizon, breakpoints, rate, drift, vol


def _class_payoff(kind, model, u, beta):
    """The solved payoff of one kind at an interior target; u holds three
    uniforms on [0, 1)."""
    horizon = model.horizon
    growth = 1.0 / market.expected_deflator(model, 0.0, horizon)
    if kind == "mv":
        d = growth * (1.0 + 1e-3 * 500.0 ** u[0])
        return meanvar.mv_payoff(meanvar.solve_mv(meanvar.MvProblem(1.0, d, horizon), model), model)
    if kind == "cvar":
        cap = growth * (1.0 + 0.05 * 100.0 ** u[0])
        probe = lpm.LpmProblem(x0=1.0, d=0.0, gamma=cap, cap=cap, q=1.0, horizon=horizon)
        d = growth + (lpm.d_bounds(probe, model)[1] - growth) * (0.05 + 0.9 * u[1])
        prob = cvar.CvarProblem(x0=1.0, d=d, cap=cap, beta=beta, horizon=horizon)
        return lpm.payoff(cvar.solve_cvar(prob, model).policy)
    gamma = growth * math.exp(0.6 * u[0] - 0.3)
    cap = max(gamma, growth) * (1.0 + 0.05 * 100.0 ** u[1])
    probe = lpm.LpmProblem(x0=1.0, d=0.0, gamma=gamma, cap=cap, q=kind, horizon=horizon)
    lo, hi = lpm.d_bounds(probe, model)
    d = lo + (hi - lo) * (0.05 + 0.9 * u[2])
    prob = lpm.LpmProblem(x0=1.0, d=d, gamma=gamma, cap=cap, q=kind, horizon=horizon)
    return lpm.payoff(lpm.solve_lpm(prob, model))


@pytest.fixture(scope="module")
def class_outcomes():
    """(label, raw coefficients, payoff or the CapfolioError the solve raised)
    per draw of the market-class sweep."""
    rng = random.Random(CLASS_SEED)
    out = []
    for i in range(N_CLASS):
        raw = _class_market(rng)
        kind, beta = CLASS_KINDS[i % len(CLASS_KINDS)], BETAS[i % len(BETAS)]
        u = (rng.random(), rng.random(), rng.random())
        label = f"draw {i} kind={kind} n={len(raw[3][0])} segments={len(raw[1])}"
        try:
            horizon, breakpoints, rate, drift, vol = raw
            model = market.validate_market(horizon, rate, drift, vol, breakpoints=breakpoints)
            payoff = _class_payoff(kind, model, u, beta)
        except CapfolioError as exc:
            payoff = exc
        out.append((label, raw, payoff))
    return out


def _class_violations(raw, payoff):
    """Budget, surface-contract and direction violations of one draw."""
    horizon, breakpoints, rate, drift, vol = raw
    found = []
    budget = float(surface.wealth(payoff, 0.0, 1.0))
    if abs(budget - 1.0) > 1e-8:
        found.append(f"budget {budget!r} against x0 1")
    for t in sorted({*breakpoints, 0.5 * horizon}):
        h = 1e-4 * market.deflator_moments(payoff.model, t).nu
        up, down = (float(surface.wealth(payoff, t, math.exp(s))) for s in (h, -h))
        fd = (down - up) / (2.0 * h)
        scale = float(surface.policy_scale(payoff, t, 1.0))
        if not abs(scale - fd) <= 1e-4 * max(1.0, abs(fd), abs(scale)):
            found.append(f"scale {scale!r} against a central difference {fd!r} at t = {t!r}")
        s = payoff.model.segment_index(t)
        sigma = np.array(vol[s])
        want = scale * np.linalg.solve(sigma @ sigma.T, np.array(drift[s]) - rate[s])
        pi = surface.policy(payoff, t, 1.0)
        if not np.abs(pi - want).max() <= 1e-9 * np.abs(want).max():
            found.append(f"policy {pi.tolist()} against {want.tolist()} at t = {t!r}")
    return found


def test_market_class_sweep_meets_the_contract(class_outcomes):
    failures = [
        f"{label}: {type(payoff).__name__}: {payoff}"
        for label, _, payoff in class_outcomes
        if isinstance(payoff, CapfolioError)
    ]
    failures += [
        f"{label}: {v}"
        for label, raw, payoff in class_outcomes
        if not isinstance(payoff, CapfolioError)
        for v in _class_violations(raw, payoff)
    ]
    assert failures == []
    covered = {(len(raw[3][0]), len(raw[1])) for _, raw, _ in class_outcomes}
    assert covered == {(n, segs) for n in range(1, 5) for segs in range(1, 5)}


def test_market_class_replication_gap_shrinks_with_steps(class_outcomes):
    # the pathwise Euler error on one seed: strong order 1/2 divides it by
    # about 2 from 64 to 256 steps; the mean is not gated, since the Euler
    # bias near a digital jump is not small at these step counts
    picked = [
        (label, payoff)
        for label, raw, payoff in class_outcomes
        if len(raw[3][0]) >= 2 and len(raw[1]) >= 2 and not isinstance(payoff, CapfolioError)
    ][:2]
    for label, payoff in picked:
        gaps = []
        for n_steps in (64, 256):
            run = montecarlo.run_policy(payoff.model, payoff, 2000, n_steps, seed=7)
            gap = np.abs(run.x_terminal - surface.terminal_wealth(payoff, run.z_terminal))
            gaps.append(float(gap.mean()))
        assert gaps[0] >= 1.5 * gaps[1], (label, gaps)
