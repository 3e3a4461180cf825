"""Seeded Monte-Carlo engine: deflator paths, Euler policy runs, risk estimates.

The deflator is stepped in log space with its exact per-step Gaussian law,
so only the controlled wealth carries Euler discretization error.  Noise is
counter-based: step k draws from a Philox stream keyed (seed, k), and path
i reads row i of that step's block, so (seed, path, step) pins down every
variate no matter how many paths are requested or how work is split.
One loop serves both entry points: each step draws its block once and
advances ln z and, under a policy, the wealth from it, writing one
contiguous row of the step-major (n_steps+1, n_paths) z and x arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lpm
from .errors import DimensionMismatch, DomainError, EmptySample
from .market import MarketModel, market_price_of_risk

MEASURE_MEAN = "Mean"


@dataclass(frozen=True, slots=True)
class PathEnsemble:
    """Simulated paths on a uniform grid; x_paths is None without a policy.

    z_paths and x_paths have shape (n_paths, n_steps+1) with z[:, 0] = 1;
    they are transposed views of step-major arrays, so a column (one time)
    is contiguous.  times has length n_steps+1.
    """

    n_paths: int
    n_steps: int
    seed: int
    times: np.ndarray
    z_paths: np.ndarray
    x_paths: np.ndarray | None = None


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


def _simulate(model: MarketModel, n_paths: int, n_steps: int, seed: int, evaluate, x0):
    """The stepping loop of simulate_deflator and, given `evaluate`, run_policy."""
    if n_paths < 1 or n_steps < 1:
        raise DomainError(
            f"need n_paths >= 1 and n_steps >= 1, got {n_paths}, {n_steps}"
        )
    times = np.linspace(0.0, model.horizon, n_steps + 1)
    dt = model.horizon / n_steps
    # the closed-form policies are undefined exactly at the horizon
    final_policy_time = model.horizon - dt
    log_z = np.zeros(n_paths)
    z = np.empty((n_steps + 1, n_paths))
    z[0] = 1.0
    if evaluate is not None:
        x = np.full(n_paths, float(x0))
        xs = np.empty((n_steps + 1, n_paths))
        xs[0] = x
    for k in range(n_steps):
        t = times[k]
        s = model.segment_index(t)
        theta = market_price_of_risk(model, t)
        rate = model.rate[s]
        dw = _step_increments(model, seed, k, n_paths, dt)
        if evaluate is not None:
            pi = np.atleast_2d(evaluate(min(t, final_policy_time), z[k]))
            if pi.shape != (n_paths, model.n_assets):
                raise DimensionMismatch(
                    f"policy returned shape {pi.shape}, expected {(n_paths, model.n_assets)}"
                )
            vol = model.vol[s]
            # pi' sigma dW in the order einsum("ij,jk,ik->i") sums it, so the
            # same bits, without its per-call cost
            noise = 0.0
            for j in range(model.n_assets):
                for i in range(model.n_assets):
                    noise = noise + pi[:, j] * vol[j, i] * dw[:, i]
            x = x + (rate * x + pi @ (model.drift[s] - rate)) * dt + noise
            xs[k + 1] = x
        drift = -(rate + 0.5 * float(theta @ theta)) * dt
        log_z = log_z + drift - dw @ theta
        np.exp(log_z, out=z[k + 1])
    return PathEnsemble(
        n_paths=n_paths,
        n_steps=n_steps,
        seed=seed,
        times=times,
        z_paths=z.T,
        x_paths=None if evaluate is None else xs.T,
    )


def simulate_deflator(
    model: MarketModel, n_paths: int, n_steps: int, seed: int
) -> PathEnsemble:
    """Simulate deflator paths on a uniform n_steps grid over [0, horizon].

    Each step advances ln z by a Gaussian increment with mean
    -(r + ||theta||^2 / 2) dt and variance ||theta||^2 dt, coefficients
    taken at the left endpoint.  With piecewise-constant coefficients and a
    grid refined enough to resolve the segments this is samplewise exact;
    there is no Euler bias in z itself.
    """
    return _simulate(model, n_paths, n_steps, seed, None, None)


def _policy_evaluator(policy, x0):
    """Adapt a payoff or a policy callable to (t, z_vector) -> allocations."""
    if isinstance(policy, lpm.Payoff):
        start = float(lpm.wealth(policy, 0.0, 1.0)) if x0 is None else x0

        def evaluate(t, z):
            return lpm.policy(policy, t, z)

        return evaluate, start
    if callable(policy):
        if x0 is None:
            raise DomainError("a bare policy callable needs an explicit x0")
        return policy, x0
    raise DomainError(f"unsupported policy carrier {type(policy).__name__}")


def run_policy(
    model: MarketModel, policy, n_paths: int, n_steps: int, seed: int, x0: float | None = None
) -> PathEnsemble:
    """Simulate the deflator and Euler-integrate wealth under a policy.

    Runs the loop of simulate_deflator (same z paths, bit for bit) and, from
    the same increment block of each step, advances
    dx = (r x + excess'pi) dt + pi' sigma dW with pi evaluated at the left
    endpoint from the simulated z there; each step's block is drawn once.
    policy is either an `lpm.Payoff` -- `lpm.payoff(solution)` of a
    shortfall or CVaR solution, or `meanvar.mv_payoff` -- replicated through
    `lpm.policy` from its wealth x(0, 1) unless x0 is given, or a callable
    (t, z_vector) -> (n_paths, n) allocation matrix, which needs x0.

    The stepping is Euler-Maruyama, which has strong order 1/2.  For capped
    payoffs, whose terminal wealth jumps from the cap to gamma at z = delta,
    the L1 error of the terminal wealth against the closed form shrinks like
    about sqrt(dt): doubling the steps divides it by about sqrt(2), not 2.
    """
    evaluate, start = _policy_evaluator(policy, x0)
    return _simulate(model, n_paths, n_steps, seed, evaluate, start)


def _as_samples(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise EmptySample("no samples")
    if arr.size < 2:
        raise EmptySample("need at least 2 samples for a standard error")
    return arr


def _jackknife_se_of_mean(values: np.ndarray) -> float:
    """Leave-one-out jackknife standard error of the sample mean."""
    n = values.size
    total = values.sum()
    loo_means = (total - values) / (n - 1)
    center = loo_means.mean()
    return math.sqrt((n - 1) / n * np.sum((loo_means - center) ** 2))


def estimate_mean(samples) -> RiskEstimate:
    arr = _as_samples(samples)
    return RiskEstimate(
        value=float(arr.mean()),
        std_error=float(arr.std(ddof=1) / math.sqrt(arr.size)),
        n=int(arr.size),
        measure=MEASURE_MEAN,
    )


def estimate_lpm(samples, gamma: float, q: float) -> RiskEstimate:
    """Sample lower partial moment E[(gamma - x)_+^q] with jackknife SE."""
    arr = _as_samples(samples)
    shortfall = np.maximum(gamma - arr, 0.0)
    if q == 0.0:
        powered = (shortfall > 0.0).astype(float)
    else:
        powered = shortfall**q
    return RiskEstimate(
        value=float(powered.mean()),
        std_error=float(_jackknife_se_of_mean(powered)),
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
    z_t = ensemble.z_paths[:, -1]
    out = {
        "n_paths": ensemble.n_paths,
        "n_steps": ensemble.n_steps,
        "seed": ensemble.seed,
        "z_terminal_mean": float(z_t.mean()),
        "z_terminal_std": float(z_t.std(ddof=1)),
        "log_z_terminal_mean": float(np.log(z_t).mean()),
    }
    if ensemble.x_paths is not None:
        x_t = ensemble.x_paths[:, -1]
        out["x_terminal_mean"] = float(x_t.mean())
        out["x_terminal_std"] = float(x_t.std(ddof=1))
    return out
