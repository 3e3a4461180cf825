"""Seeded Monte-Carlo engine: replicated terminal wealth and risk estimates.

The deflator is stepped in log space with its exact per-step Gaussian law,
so only the controlled wealth carries Euler discretization error.  Noise is
counter-based: step k draws from a Philox stream keyed (seed, k), and path
i reads row i of that step's block, so (seed, path, step) pins down every
variate no matter how many paths are requested or how work is split.
`run_policy` is one loop over running state in two legs.  The deflator leg
draws step k's block once and advances ln z; it depends on the seed and the
market alone, so a worker thread runs it one step ahead of the wealth leg,
which evaluates the policy and advances x on the caller's thread.  Every
array operation is the one a single loop would make, on the same arrays in
the same order, so the results are the same bits.  Only the running vectors
and the next step's are held, so memory is O(n_paths) whatever n_steps is,
and only the terminal values are kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import surface
from .errors import DimensionMismatch, DomainError, EmptySample
from .lpm import Payoff
from .market import MarketModel

MEASURE_MEAN = "Mean"


@dataclass(frozen=True, slots=True)
class PathEnsemble:
    """Terminal state of a simulated run, one entry per path.

    z_terminal and x_terminal have shape (n_paths,): the deflator z(T) and
    the replicated wealth x(T) after n_steps uniform steps from seed.
    """

    n_paths: int
    n_steps: int
    seed: int
    z_terminal: np.ndarray
    x_terminal: np.ndarray


@dataclass(frozen=True, slots=True)
class RiskEstimate:
    value: float
    std_error: float
    n: int
    measure: str


def _step_increments(model: MarketModel, seed: int, step: int, n_paths: int, dt: float):
    """Brownian increments for one step, shape (n_paths, n_assets)."""
    key = np.array([seed, step], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.standard_normal((n_paths, model.n_assets)) * math.sqrt(dt)


def _deflator_leg(model: MarketModel, seed: int, k: int, t: float, dt: float, thetas, log_z):
    """Step k of the deflator from time t: (segment, increments, z_k, ln z_{k+1}).

    It runs on a worker thread, so it calls private helpers, `MarketModel`
    methods and numpy only: the benchmark's tracer keeps one span stack per
    process, which a public function of the package called here would corrupt.
    """
    s = model.segment_index(t)
    theta = thetas[s]
    dw = _step_increments(model, seed, k, log_z.size, dt)
    drift = -(model.rate[s] + 0.5 * float(theta @ theta)) * dt
    return s, dw, np.exp(log_z), log_z + drift - dw @ theta


def _policy_evaluator(policy, x0):
    """Adapt a payoff or a policy callable to (t, z_vector) -> allocations."""
    if isinstance(policy, Payoff):
        start = float(surface.wealth(policy, 0.0, 1.0)) if x0 is None else x0

        def evaluate(t, z):
            return surface.policy(policy, t, z)

        return evaluate, start
    if callable(policy):
        if x0 is None:
            raise DomainError("a bare policy callable needs an explicit x0")
        return policy, x0
    raise DomainError(f"unsupported policy carrier {type(policy).__name__}")


def run_policy(
    model: MarketModel, policy, n_paths: int, n_steps: int, seed: int, x0: float | None = None
) -> PathEnsemble:
    """Simulate the deflator and Euler-integrate wealth under a policy to T.

    One loop carries the running vectors ln z and x over a uniform n_steps
    grid on [0, horizon].  Each step draws its increment block once; from
    it, ln z moves by its exact Gaussian step, with mean
    -(r + ||theta||^2 / 2) dt and variance ||theta||^2 dt (coefficients at
    the left endpoint, so z itself has no Euler bias), and the wealth by
    dx = (r x + excess'pi) dt + pi' sigma dW with pi evaluated at the left
    endpoint from z there.

    Step k + 1's deflator leg (segment lookup, draw, z = exp(ln z), the
    ln z step) goes to a one-worker pool before the wealth leg of step k
    starts on the caller's thread; the two overlap inside numpy and scipy,
    which release the interpreter lock, and the results are bit-identical
    to a single loop.  The worker is joined before `run_policy` returns or
    raises.  Memory is O(n_paths) whatever n_steps is.

    policy is either an `lpm.Payoff` -- `lpm.payoff(solution)` of a
    shortfall or CVaR solution, or `meanvar.mv_payoff` -- replicated through
    `surface.policy` from its wealth x(0, 1) unless x0 is given, or a callable
    (t, z_vector) -> (n_paths, n) allocation matrix, which needs x0.

    The stepping is Euler-Maruyama, which has strong order 1/2.  For capped
    payoffs, whose terminal wealth jumps from the cap to gamma at z = delta,
    the L1 error of the terminal wealth against the closed form shrinks like
    about sqrt(dt): doubling the steps divides it by about sqrt(2), not 2.
    """
    # imported here so that importing the module (as `baseline` does) does
    # not load concurrent.futures
    from concurrent.futures import ThreadPoolExecutor

    evaluate, start = _policy_evaluator(policy, x0)
    if n_paths < 1 or n_steps < 1:
        raise DomainError(
            f"need n_paths >= 1 and n_steps >= 1, got {n_paths}, {n_steps}"
        )
    times = np.linspace(0.0, model.horizon, n_steps + 1)
    dt = model.horizon / n_steps
    # the closed-form policies are undefined exactly at the horizon
    final_policy_time = model.horizon - dt
    # the market's coefficient tuples as arrays, once per run
    drifts, vols, thetas = np.asarray(model.drift), np.asarray(model.vol), np.asarray(model.theta)
    x = np.full(n_paths, float(start))
    with ThreadPoolExecutor(max_workers=1) as ahead:
        leg = ahead.submit(_deflator_leg, model, seed, 0, times[0], dt, thetas, np.zeros(n_paths))
        for k in range(n_steps):
            s, dw, z, log_z = leg.result()
            if k + 1 < n_steps:
                leg = ahead.submit(
                    _deflator_leg, model, seed, k + 1, times[k + 1], dt, thetas, log_z
                )
            pi = np.atleast_2d(evaluate(min(times[k], final_policy_time), z))
            if pi.shape != (n_paths, model.n_assets):
                raise DimensionMismatch(
                    f"policy returned shape {pi.shape}, expected {(n_paths, model.n_assets)}"
                )
            rate = model.rate[s]
            vol = vols[s]
            # pi' sigma dW in the order einsum("ij,jk,ik->i") sums it, so the
            # same bits, without its per-call cost
            noise = 0.0
            for j in range(model.n_assets):
                for i in range(model.n_assets):
                    noise = noise + pi[:, j] * vol[j, i] * dw[:, i]
            x = x + (rate * x + pi @ (drifts[s] - rate)) * dt + noise
    return PathEnsemble(
        n_paths=n_paths,
        n_steps=n_steps,
        seed=seed,
        z_terminal=np.exp(log_z),
        x_terminal=x,
    )


def _as_samples(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise EmptySample("no samples")
    if arr.size < 2:
        raise EmptySample("need at least 2 samples for a standard error")
    return arr


def estimate_mean(samples) -> RiskEstimate:
    arr = _as_samples(samples)
    return RiskEstimate(
        value=float(arr.mean()),
        std_error=float(arr.std(ddof=1) / math.sqrt(arr.size)),
        n=int(arr.size),
        measure=MEASURE_MEAN,
    )


def estimate_lpm(samples, gamma: float, q: float) -> RiskEstimate:
    """Sample lower partial moment E[(gamma - x)_+^q] with the standard error
    of its sample mean."""
    arr = _as_samples(samples)
    shortfall = np.maximum(gamma - arr, 0.0)
    if q == 0.0:
        powered = (shortfall > 0.0).astype(float)
    else:
        powered = shortfall**q
    return RiskEstimate(
        value=float(powered.mean()),
        std_error=float(powered.std(ddof=1) / math.sqrt(arr.size)),
        n=int(arr.size),
        measure=f"LPM(q={q:g}, gamma={gamma:g})",
    )


def estimate_cvar(samples, beta: float, xbar: float) -> RiskEstimate:
    """Discrete CVaR of the loss xbar - x at level beta.

    Sorting the losses, the value-at-risk is the ceil(beta*n)-th smallest
    loss; averaging the beta-tail with the fractional weight the VaR atom
    keeps gives

        CVaR = VaR + sum((f - VaR)_+) / ((1 - beta) n),

    which is exactly min over alpha of alpha + mean((f - alpha)_+)/(1-beta)
    on the empirical law.  The standard error is the plug-in one at fixed
    VaR, std((f - VaR)_+) / ((1 - beta) sqrt(n)).
    """
    if not 0.0 < beta < 1.0:
        raise DomainError(f"confidence level must lie in (0,1), got {beta}")
    arr = _as_samples(samples)
    losses = np.sort(xbar - arr)
    n = losses.size
    k = math.ceil(beta * n)
    var_level = losses[k - 1]
    excess = np.maximum(losses - var_level, 0.0)
    value = var_level + excess.sum() / ((1.0 - beta) * n)
    se = float(excess.std(ddof=1) / ((1.0 - beta) * math.sqrt(n)))
    return RiskEstimate(
        value=float(value),
        std_error=se,
        n=int(n),
        measure=f"CVaR(beta={beta:g})",
    )


def ensemble_summary(ensemble: PathEnsemble) -> dict:
    """Plain-dict summary of terminal samples, consumed by the CLI."""
    z_t, x_t = ensemble.z_terminal, ensemble.x_terminal
    return {
        "n_paths": ensemble.n_paths,
        "n_steps": ensemble.n_steps,
        "seed": ensemble.seed,
        "z_terminal_mean": float(z_t.mean()),
        "z_terminal_std": float(z_t.std(ddof=1)),
        "log_z_terminal_mean": float(np.log(z_t).mean()),
        "x_terminal_mean": float(x_t.mean()),
        "x_terminal_std": float(x_t.std(ddof=1)),
    }
