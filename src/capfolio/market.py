"""Deterministic market description and derived deflator quantities.

The market carries piecewise-constant coefficients r(t), mu(t), sigma(t) on
[0, T]. Piecewise-constant makes every integral below an exact segment sum,
which keeps the deflator moments free of quadrature error.

The pricing deflator z satisfies dz = -z (r dt + theta' dW) with
theta = sigma^{-1}(mu - r 1), so ln(z(T)/z(t)) is normal with

    m(t)    = -int_t^T (r(s) + 0.5 ||theta(s)||^2) ds
    nu(t)^2 =  int_t^T ||theta(s)||^2 ds

Both are evaluated exactly here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateVolatility,
    DimensionMismatch,
    NonpositiveHorizon,
    SingularVolatility,
)
from .kernels import PartialMomentContext

__all__ = [
    "MarketModel",
    "DeflatorMoments",
    "validate_market",
    "market_from_config",
    "market_price_of_risk",
    "deflator_moments",
    "deflator_context",
    "expected_deflator",
    "gram_inverse_excess",
]

#: floor on the smallest eigenvalue of vol vol' in every segment
MIN_GRAM_EIGENVALUE = 1e-10


@dataclass(frozen=True, slots=True)
class MarketModel:
    """Validated piecewise-constant market on [0, horizon].

    Attributes
    ----------
    horizon : float
        Terminal time T in years, > 0.
    breakpoints : ndarray, shape (S,)
        Left endpoints of the S coefficient segments; breakpoints[0] == 0.
        Segment s covers [breakpoints[s], breakpoints[s+1]) and the last
        segment is closed at T.
    rate : ndarray, shape (S,)
        Risk-free rate per year on each segment.
    drift : ndarray, shape (S, n)
        Asset drift vector per year on each segment.
    vol : ndarray, shape (S, n, n)
        Volatility matrix per sqrt-year on each segment.
    """

    horizon: float
    breakpoints: np.ndarray
    rate: np.ndarray
    drift: np.ndarray
    vol: np.ndarray

    @property
    def n_assets(self) -> int:
        return self.drift.shape[1]

    def segment_index(self, t: float) -> int:
        """Index of the segment containing time t (last segment at t = T)."""
        if not 0.0 <= t <= self.horizon:
            raise ValueError(f"time {t} outside [0, {self.horizon}]")
        return int(np.searchsorted(self.breakpoints, t, side="right") - 1)

    def segment_lengths_between(self, t0: float, t1: float) -> np.ndarray:
        """Overlap of [t0, t1] with each coefficient segment, in years."""
        edges = np.append(self.breakpoints, self.horizon)
        lo = np.clip(edges[:-1], t0, t1)
        hi = np.clip(edges[1:], t0, t1)
        return np.maximum(hi - lo, 0.0)


@dataclass(frozen=True, slots=True)
class DeflatorMoments:
    """Mean and standard deviation of ln(z(T)/z(t)) for a fixed t."""

    m: float
    nu: float
    t: float


def validate_market(horizon, rate, drift, vol, breakpoints=None):
    """Validate raw coefficients and return an immutable MarketModel.

    Scalar or single-segment input is promoted: ``validate_market(1.0, 0.06,
    0.12, 0.15)`` builds a one-asset constant-coefficient market. Multi
    segment input passes arrays whose leading axis indexes segments together
    with `breakpoints` (sorted, starting at 0).

    Raises NonpositiveHorizon, DimensionMismatch, or DegenerateVolatility
    when the smallest eigenvalue of vol vol' is below MIN_GRAM_EIGENVALUE.
    """
    horizon = float(horizon)
    if not math.isfinite(horizon) or horizon <= 0.0:
        raise NonpositiveHorizon(f"horizon must be positive, got {horizon}")

    rate = np.atleast_1d(np.asarray(rate, dtype=float))
    drift = np.asarray(drift, dtype=float)
    vol = np.asarray(vol, dtype=float)

    n_seg = rate.shape[0]
    if drift.ndim == 0:
        drift = drift.reshape(1, 1)
    elif drift.ndim == 1:
        # ambiguous: one segment with n assets when n_seg == 1, else
        # n_seg scalars for a single asset
        drift = drift.reshape(1, -1) if n_seg == 1 else drift.reshape(-1, 1)
    if drift.shape[0] != n_seg:
        raise DimensionMismatch(
            f"drift has {drift.shape[0]} segments, rate has {n_seg}"
        )
    n = drift.shape[1]

    if vol.ndim == 0:
        vol = vol.reshape(1, 1, 1)
    elif vol.ndim == 2 and n_seg == 1:
        vol = vol.reshape(1, *vol.shape)
    elif vol.ndim == 1 and n == 1:
        vol = vol.reshape(-1, 1, 1)
    if vol.shape != (n_seg, n, n):
        raise DimensionMismatch(
            f"vol shape {vol.shape} does not match {n_seg} segments x {n} assets"
        )

    if breakpoints is None:
        if n_seg != 1:
            raise DimensionMismatch("multi-segment coefficients need breakpoints")
        breakpoints = np.zeros(1)
    breakpoints = np.asarray(breakpoints, dtype=float)
    if breakpoints.shape != (n_seg,):
        raise DimensionMismatch(
            f"{breakpoints.shape[0]} breakpoints for {n_seg} segments"
        )
    if breakpoints[0] != 0.0 or np.any(np.diff(breakpoints) <= 0.0):
        raise DimensionMismatch("breakpoints must start at 0 and increase")
    if breakpoints[-1] >= horizon:
        raise DimensionMismatch("last breakpoint must lie before the horizon")

    for arr, name in ((rate, "rate"), (drift, "drift"), (vol, "vol")):
        if not np.all(np.isfinite(arr)):
            raise DimensionMismatch(f"non-finite value in {name}")

    for s in range(n_seg):
        gram = vol[s] @ vol[s].T
        lo_eig = float(np.linalg.eigvalsh(gram)[0])
        if lo_eig < MIN_GRAM_EIGENVALUE:
            raise DegenerateVolatility(
                f"segment {s}: min eigenvalue of vol vol' is {lo_eig:.3e}, "
                f"below the floor {MIN_GRAM_EIGENVALUE:.3e}"
            )

    rate.flags.writeable = False
    drift.flags.writeable = False
    vol.flags.writeable = False
    breakpoints.flags.writeable = False
    return MarketModel(horizon, breakpoints, rate, drift, vol)


def market_from_config(block: dict) -> MarketModel:
    """Build a MarketModel from the config schema.

    Expected shape::

        {"horizon": 1.0,
         "segments": [{"t_start": 0.0, "r": 0.06, "mu": [...], "sigma": [[...]]}]}

    A segment without "t_start" starts at 0, so a lone one covers [0, T].
    """
    segs = block["segments"]
    return validate_market(
        block["horizon"],
        [s["r"] for s in segs],
        [np.atleast_1d(s["mu"]) for s in segs],
        [np.atleast_2d(s["sigma"]) for s in segs],
        breakpoints=[s.get("t_start", 0.0) for s in segs],
    )


def market_price_of_risk(model: MarketModel, t: float) -> np.ndarray:
    """theta(t) = sigma(t)^{-1} (mu(t) - r(t) 1), by dense linear solve."""
    s = model.segment_index(t)
    return _segment_theta(model, s)


def _segment_theta(model: MarketModel, s: int) -> np.ndarray:
    excess = model.drift[s] - model.rate[s]
    try:
        theta = np.linalg.solve(model.vol[s], excess)
    except np.linalg.LinAlgError as exc:
        raise SingularVolatility(f"segment {s}: {exc}") from exc
    if not np.all(np.isfinite(theta)):
        raise SingularVolatility(f"segment {s}: non-finite market price of risk")
    return theta


def deflator_moments(model: MarketModel, t: float) -> DeflatorMoments:
    """Exact (m(t), nu(t)) of ln(z(T)/z(t)) by segment sums."""
    if not 0.0 <= t <= model.horizon:
        raise ValueError(f"time {t} outside [0, {model.horizon}]")
    lengths = model.segment_lengths_between(t, model.horizon)
    m = 0.0
    nu_sq = 0.0
    for s, length in enumerate(lengths):
        if length == 0.0:
            continue
        theta = _segment_theta(model, s)
        theta_sq = float(theta @ theta)
        m -= float(length * (model.rate[s] + 0.5 * theta_sq))
        nu_sq += float(length * theta_sq)
    return DeflatorMoments(m=m, nu=math.sqrt(nu_sq), t=t)


def deflator_context(model: MarketModel) -> PartialMomentContext:
    """Partial-moment context of the terminal deflator, ln z(T) ~ N(m(0), nu(0)^2)."""
    mom = deflator_moments(model, 0.0)
    return PartialMomentContext(m0=mom.m, nu0=mom.nu)


def gram_inverse_excess(model: MarketModel, t: float) -> np.ndarray:
    """(sigma sigma')^{-1} (mu - r 1) at time t, the direction of every policy."""
    s = model.segment_index(t)
    vol = model.vol[s]
    excess = model.drift[s] - model.rate[s]
    return np.linalg.solve(vol @ vol.T, excess)


def expected_deflator(model: MarketModel, t0: float, t1: float) -> float:
    """e^{-int_{t0}^{t1} r(s) ds}; equals E[z(t1)/z(t0)]."""
    if not 0.0 <= t0 <= t1 <= model.horizon:
        raise ValueError(f"need 0 <= t0 <= t1 <= horizon, got ({t0}, {t1})")
    lengths = model.segment_lengths_between(t0, t1)
    return math.exp(-float(lengths @ model.rate))
