"""Seeded Monte-Carlo engine: replicated terminal wealth and risk estimates.

The deflator is stepped in log space with its exact per-step Gaussian law,
so only the controlled wealth carries Euler discretization error.  Noise is
counter-based: step k draws from a Philox stream keyed (seed, k), and path
i reads entry i of that step's draw, so (seed, path, step) pins down every
variate no matter how many paths are requested or how work is split.
`run_policy` is one loop over running state.  Every closed-form policy is a
scalar -z dx/dz times the direction (sigma sigma')^{-1}(mu - r 1), so in a
complete market with square sigma the state moves only through theta' dW,

    dx = (r x + scale ||theta||^2) dt + scale theta' dW,

and step k draws that one factor, one normal per path (Cox & Huang 1989).
Only the running vectors are held, so memory is O(n_paths) whatever n_steps
is, and only the terminal values are kept.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import surface
from .errors import DomainError
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


def require_seed_and_sizes(seed, **sizes) -> None:
    """Raise DomainError unless seed is an integer in [0, 2**64), one uint64
    word of a `stream` key, and each named size an integer >= 1.  Booleans
    are not integers here."""

    def integer(value) -> bool:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)

    if not (integer(seed) and 0 <= int(seed) < 2**64):
        raise DomainError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    for name, size in sizes.items():
        if not (integer(size) and size >= 1):
            raise DomainError(f"{name} must be an integer >= 1, got {size!r}")


def stream(seed: int, index: int) -> np.random.Generator:
    """The Philox stream keyed (seed, index)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def increments(model: MarketModel, seed: int, step: int, n_paths: int, dt: float):
    """Brownian increments over a time step dt, shape (n_paths, n_assets):
    block `step` of the stream keyed seed, row i for static scenario i."""
    return stream(seed, step).standard_normal((n_paths, model.n_assets)) * math.sqrt(dt)


def run_policy(
    model: MarketModel, payoff: Payoff, n_paths: int, n_steps: int, seed: int
) -> PathEnsemble:
    """Simulate the deflator and Euler-integrate the payoff's wealth to T.

    payoff is an `lpm.Payoff` -- `lpm.payoff(solution)` of a shortfall or
    CVaR solution, or `meanvar.mv_payoff` -- and the run starts from its
    wealth x(0, 1).  One loop carries the running vectors ln z and x over a
    uniform n_steps grid on [0, horizon].  Step k draws one normal g per
    path from the stream keyed (seed, k): for a square sigma, theta' dW is
    N(0, ||theta||^2 dt) and independent across steps, so the shock
    g sqrt(dt) ||theta|| has its law (for one asset with theta > 0, its
    bits).  ln z moves by its exact Gaussian step, with mean
    -(r + ||theta||^2 / 2) dt and variance ||theta||^2 dt (coefficients at
    the left endpoint, so z itself has no Euler bias), and the wealth by

        dx = (r x + scale ||theta||^2) dt + scale theta' dW,

    with scale = `surface.policy_scale` = -z dx/dz at the left endpoint.
    This is dx = (r x + pi'(mu - r 1)) dt + pi' sigma dW for the policy
    pi = scale (sigma sigma')^{-1}(mu - r 1) of `surface.policy`, since
    sigma' (sigma sigma')^{-1}(mu - r 1) = theta for a square sigma.
    Memory is O(n_paths) whatever n_steps is.

    The stepping is Euler-Maruyama, which has strong order 1/2.  For capped
    payoffs, whose terminal wealth jumps from the cap to gamma at z = delta,
    the L1 error of the terminal wealth against the closed form shrinks like
    about sqrt(dt): doubling the steps divides it by about sqrt(2), not 2.

    Raises DomainError unless seed is an integer in [0, 2**64) and n_paths
    and n_steps are integers >= 1.
    """
    require_seed_and_sizes(seed, n_paths=n_paths, n_steps=n_steps)
    times = np.linspace(0.0, model.horizon, n_steps + 1)
    dt = model.horizon / n_steps
    # the closed-form policies are undefined exactly at the horizon
    final_policy_time = model.horizon - dt
    x = np.full(n_paths, float(surface.wealth(payoff, 0.0, 1.0)))
    log_z = np.zeros(n_paths)
    for k in range(n_steps):
        s = model.segment_index(times[k])
        rate, theta_sq = model.rate[s], model.theta_sq[s]
        shock = (stream(seed, k).standard_normal(n_paths) * math.sqrt(dt)) * math.sqrt(theta_sq)
        z, log_z = np.exp(log_z), log_z - (rate + 0.5 * theta_sq) * dt - shock
        scale = surface.policy_scale(payoff, min(times[k], final_policy_time), z)
        x = x + (rate * x + scale * theta_sq) * dt + scale * shock
    return PathEnsemble(
        n_paths=n_paths,
        n_steps=n_steps,
        seed=seed,
        z_terminal=np.exp(log_z),
        x_terminal=x,
    )


def _as_samples(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size < 2:
        raise DomainError(f"need at least 2 samples for a standard error, got {arr.size}")
    return arr


def _estimate(values: np.ndarray, measure: str) -> RiskEstimate:
    """The sample mean of values with its standard error."""
    return RiskEstimate(
        value=float(values.mean()),
        std_error=float(values.std(ddof=1) / math.sqrt(values.size)),
        n=int(values.size),
        measure=measure,
    )


def estimate_mean(samples) -> RiskEstimate:
    return _estimate(_as_samples(samples), MEASURE_MEAN)


def estimate_lpm(samples, gamma: float, q: float) -> RiskEstimate:
    """Sample lower partial moment E[(gamma - x)_+^q] with the standard error
    of its sample mean."""
    shortfall = np.maximum(gamma - _as_samples(samples), 0.0)
    powered = (shortfall > 0.0).astype(float) if q == 0.0 else shortfall**q
    return _estimate(powered, f"LPM(q={q:g}, gamma={gamma:g})")


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
