"""Seeded mean-CVaR sweep over random one-asset markets.

Every instance either raises a CapfolioError or solves to an alpha* that the
independent route confirms: J(alpha*) through `cvar.j_value`, J not lower
at alpha* +- h, and the embedded policy's budget (through the wealth surface
at t = 0) and mean within 1e-8.  The draws: r in [-0.02, 0.1]; sigma, the
Sharpe ratio (1e-4 to 5) and T (0.1 to 20 y) log-uniform; the cap spread
around the safe level x0 e^{rT}; targets inside the range (safe level,
d_upper) or within 1e-12 to 1e-3 of either end.
"""
import math
import random

import pytest

from capfolio import cvar, lpm, market, surface
from capfolio.errors import CapfolioError, TargetTooHigh

SEED = 20241018
N_INSTANCES = 200
BETAS = (0.8, 0.9, 0.95, 0.99)
GRID = 48  # delta grid points on [0, top] for the sign-change check


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _draws():
    """(label, model, problem) per instance; model and problem are None
    when the market or the problem is rejected at construction."""
    rng = random.Random(SEED)
    out = []
    for i in range(N_INSTANCES):
        r = rng.uniform(-0.02, 0.1)
        sigma = _log_uniform(rng, 0.05, 1.0)
        mu = r + _log_uniform(rng, 1e-4, 5.0) * sigma
        horizon = _log_uniform(rng, 0.1, 20.0)
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
        try:  # the check route may raise where the embedded solve does
            j = cvar.j_value(prob, model, alpha)
        except CapfolioError:
            continue
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
            curve, top = cvar._reduction(prob, market.deflator_context(model))
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
