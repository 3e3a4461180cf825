"""Deterministic market description and derived deflator quantities.

The market carries piecewise-constant coefficients r(t), mu(t), sigma(t) on
[0, T]. Piecewise-constant makes every integral below an exact segment sum,
which keeps the deflator moments free of quadrature error.

The pricing deflator z satisfies dz = -z (r dt + theta' dW) with
theta = sigma^{-1}(mu - r 1), so ln(z(T)/z(t)) is normal with

    m(t)    = -int_t^T (r(s) + 0.5 ||theta(s)||^2) ds
    nu(t)^2 =  int_t^T ||theta(s)||^2 ds

Both are evaluated exactly here. The model holds tuples of floats and does
its linear algebra on them, once per segment when it is validated: the
scalar path (solve, frontier) needs a few sums over segments and no arrays.
validate_market reads the coefficients under one shape rule, segment by
segment; the config block reaches it as per-segment lists.
"""
from __future__ import annotations

import math
import numbers
import sys
from bisect import bisect_right
from dataclasses import dataclass, fields

from .errors import (
    ConfigError,
    DegenerateVolatility,
    DimensionMismatch,
    DomainError,
)
from .kernels import PartialMomentContext

__all__ = [
    "MarketModel",
    "DeflatorMoments",
    "is_number",
    "require_numbers",
    "validate_market",
    "market_from_config",
    "deflator_moments",
    "deflator_context",
    "expected_deflator",
]

#: floor on the smallest eigenvalue of vol vol' in every segment
MIN_GRAM_EIGENVALUE = 1e-10
#: below this remaining deflator volatility nu(t) the wealth formulas switch
#: to their terminal limit and the policy is reported undefined
TERMINAL_NU = 1e-8


@dataclass(frozen=True, slots=True)
class MarketModel:
    """Validated piecewise-constant market on [0, horizon].

    Every coefficient is a tuple of floats; S is the number of segments and
    n the number of assets.

    Attributes
    ----------
    horizon : float
        Terminal time T in years, > 0.
    breakpoints : tuple, S floats
        Left endpoints of the coefficient segments; breakpoints[0] == 0.
        Segment s covers [breakpoints[s], breakpoints[s+1]) and the last
        segment is closed at T.
    rate : tuple, S floats
        Risk-free rate per year on each segment.
    drift : tuple, S tuples of n floats
        Asset drift vector per year on each segment.
    vol : tuple, S tuples of n rows of n floats
        Volatility matrix per sqrt-year on each segment.
    theta : tuple, S tuples of n floats
        Market price of risk sigma^{-1}(mu - r 1) on each segment.
    theta_sq : tuple, S floats
        ||theta||^2 on each segment.
    direction : tuple, S tuples of n floats
        Policy direction (sigma sigma')^{-1}(mu - r 1) = sigma'^{-1} theta.
    """

    horizon: float
    breakpoints: tuple
    rate: tuple
    drift: tuple
    vol: tuple
    theta: tuple
    theta_sq: tuple
    direction: tuple

    @property
    def n_assets(self) -> int:
        return len(self.drift[0])

    def segment_index(self, t: float) -> int:
        """Index of the segment containing time t (last segment at t = T)."""
        if not 0.0 <= t <= self.horizon:
            raise DomainError(f"time {t} outside [0, {self.horizon}]")
        return bisect_right(self.breakpoints, t) - 1

    def segment_lengths_between(self, t0: float, t1: float) -> tuple:
        """Overlap of [t0, t1] with each segment, in years; needs 0 <= t0 <= t1 <= T."""
        if not 0.0 <= t0 <= t1 <= self.horizon:
            raise DomainError(f"need 0 <= t0 <= t1 <= horizon, got ({t0}, {t1})")
        edges = (*self.breakpoints, self.horizon)
        return tuple(
            max(min(max(hi, t0), t1) - min(max(lo, t0), t1), 0.0)
            for lo, hi in zip(edges, edges[1:])
        )


@dataclass(frozen=True, slots=True)
class DeflatorMoments:
    """Mean and standard deviation of ln(z(T)/z(t)) for a fixed t."""

    m: float
    nu: float


def is_number(value) -> bool:
    """A finite real number within the float range (booleans excluded)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):  # numpy's too
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def require_numbers(problem) -> None:
    """Raise DomainError unless each field of a frozen problem is_number or a
    None default; store each number as a float."""
    for field in fields(problem):
        value = getattr(problem, field.name)
        if is_number(value):
            object.__setattr__(problem, field.name, float(value))
        elif not (value is None and field.default is None):
            raise DomainError(f"{field.name} must be a finite number, got {value!r}")


def _plain(value):
    """value, with a numpy array or scalar read through its `tolist`."""
    return value.tolist() if hasattr(value, "tolist") else value


def _per_segment(value, name, n_seg, read):
    """read(entry, where) of each entry of a list with one entry per segment."""
    value = _plain(value)
    if not (isinstance(value, (list, tuple)) and len(value) == n_seg):
        raise DimensionMismatch(f"{name} needs one entry per segment ({n_seg}), got {value!r}")
    return tuple(read(v, f"segment {s}: {name}") for s, v in enumerate(value))


def _float(value, where):
    value = _plain(value)
    if not is_number(value):
        raise DimensionMismatch(f"{where}: non-finite value or non-number {value!r}")
    return float(value)


def _segment_drift(value, where):
    """mu of a segment: a list of n numbers, or one number when n = 1."""
    value = _plain(value)
    mu = value if isinstance(value, (list, tuple)) else [value]
    if not mu:
        raise DimensionMismatch(f"{where} names no asset")
    return tuple(_float(v, where) for v in mu)


def _segment_vol(value, where, n):
    """sigma of a segment: an n x n list of numbers, or one number when n = 1."""
    value = _plain(value)
    rows = [_plain(row) for row in value] if isinstance(value, (list, tuple)) else [[value]]
    square = len(rows) == n and all(isinstance(r, (list, tuple)) and len(r) == n for r in rows)
    if not square:
        raise DimensionMismatch(f"{where} must be {n} x {n}, got {value!r}")
    return tuple(tuple(_float(v, where) for v in row) for row in rows)


def _solve(a, b, s):
    """x with a x = b, by Gaussian elimination with partial pivoting."""
    n = len(b)
    rows = [[*row, v] for row, v in zip(a, b)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))
        if rows[p][k] == 0.0:
            raise DegenerateVolatility(f"segment {s}: singular volatility matrix")
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k]
        for i in range(k + 1, n):
            f = rows[i][k] / pivot[k]
            rows[i] = [x - f * y for x, y in zip(rows[i], pivot)]
    x = [0.0] * n
    for k in reversed(range(n)):
        row = rows[k]
        x[k] = (row[n] - sum(row[j] * x[j] for j in range(k + 1, n))) / row[k]
    if not all(map(math.isfinite, x)):
        raise DomainError(f"segment {s}: non-finite market price of risk")
    return tuple(x)


def _above(gram, shift) -> bool:
    """Whether gram - shift I has a Cholesky factor, i.e. whether the
    smallest eigenvalue of the symmetric gram exceeds shift."""
    n = len(gram)
    low = [[0.0] * n for _ in range(n)]
    for j in range(n):
        d = gram[j][j] - shift - sum(v * v for v in low[j][:j])
        if not d > 0.0:
            return False
        low[j][j] = math.sqrt(d)
        for i in range(j + 1, n):
            dot = sum(x * y for x, y in zip(low[i][:j], low[j][:j]))
            low[i][j] = (gram[i][j] - dot) / low[j][j]
    return True


def validate_market(horizon, rate, drift, vol, breakpoints=None):
    """Validate raw coefficients and return an immutable MarketModel.

    A number `rate` is one segment: `drift` is its mu, a list of n numbers
    or, when n = 1, one number; `vol` its sigma, an n x n list or, when
    n = 1, one number; `breakpoints` None or [0.0]. So
    ``validate_market(1.0, 0.06, 0.12, 0.15)`` is a one-asset market. A
    list `rate` of S numbers gives `drift`, `vol` and `breakpoints` (from 0,
    increasing) S entries, each spelled as in the one-segment case;
    `breakpoints` may be left out only when S = 1. numpy arrays and scalars
    are read through their `tolist` at every level.

    Per segment it checks that vol vol' - MIN_GRAM_EIGENVALUE I has a
    Cholesky factor, which holds, up to rounding, when the smallest
    eigenvalue of vol vol' is above the floor, and solves theta =
    vol^{-1}(mu - r 1) and the policy direction vol'^{-1} theta by
    elimination with partial pivoting.

    Raises exactly DimensionMismatch for a misshapen or non-finite
    coefficient (the message names its segment), DegenerateVolatility when
    vol fails the floor test or, singular yet past it by rounding, meets a
    zero pivot, and DomainError for a horizon that is not a positive finite
    number, or when theta, the direction or the law of the terminal deflator
    is not representable: E[z(T)] is not a positive normal float, m(0) or
    nu(0) is not finite, or E[z(T)^2] = e^{2 m(0) + 2 nu(0)^2}, the highest
    partial moment a solve takes, overflows. That last check is the ceiling
    nu(0)^2 <= ln(max float) / 2 - m(0), about 354.9 - m(0).
    """
    if not (is_number(horizon) and horizon > 0.0):
        raise DomainError(f"horizon must be a positive finite number, got {horizon!r}")
    horizon = float(horizon)

    rate = _plain(rate)
    if not isinstance(rate, (list, tuple)):  # one segment, spelled bare
        rate, drift, vol = [rate], [drift], [vol]
    n_seg = len(rate)
    if n_seg == 0:
        raise DimensionMismatch("the market needs at least one segment")
    if breakpoints is None and n_seg == 1:
        breakpoints = [0.0]
    rate = _per_segment(rate, "rate", n_seg, _float)
    drift = _per_segment(drift, "drift", n_seg, _segment_drift)
    n = len(drift[0])
    for s, mu in enumerate(drift):
        if len(mu) != n:
            raise DimensionMismatch(f"segment {s}: drift has {len(mu)} assets, segment 0 has {n}")
    vol = _per_segment(vol, "vol", n_seg, lambda sigma, where: _segment_vol(sigma, where, n))
    breakpoints = _per_segment(breakpoints, "breakpoints", n_seg, _float)
    edges = (*breakpoints, horizon)
    if breakpoints[0] != 0.0 or any(b <= a for a, b in zip(edges, edges[1:])):
        raise DimensionMismatch("breakpoints must start at 0 and increase below the horizon")

    theta, theta_sq, direction = [], [], []
    for s, (r, mu, sigma) in enumerate(zip(rate, drift, vol)):
        gram = [[sum(a * b for a, b in zip(ri, rj)) for rj in sigma] for ri in sigma]
        if not _above(gram, MIN_GRAM_EIGENVALUE):
            raise DegenerateVolatility(
                f"segment {s}: the smallest eigenvalue of vol vol' is not above "
                f"the floor {MIN_GRAM_EIGENVALUE:.3e}"
            )
        th = _solve(sigma, [v - r for v in mu], s)
        theta.append(th)
        theta_sq.append(sum(v * v for v in th))
        direction.append(_solve(tuple(zip(*sigma)), th, s))

    model = MarketModel(
        horizon, breakpoints, rate, drift, vol, tuple(theta), tuple(theta_sq), tuple(direction)
    )
    mom = deflator_moments(model, 0.0)
    try:
        ez = expected_deflator(model, 0.0, horizon)
    except OverflowError:
        ez = math.inf
    if not (sys.float_info.min <= ez < math.inf and math.isfinite(mom.m) and math.isfinite(mom.nu)):
        raise DomainError(
            f"deflator law not representable: E[z(T)] = {ez!r}, "
            f"m(0) = {mom.m!r}, nu(0) = {mom.nu!r}"
        )
    if 2.0 * (mom.m + mom.nu * mom.nu) > math.log(sys.float_info.max):
        raise DomainError(
            f"deflator law not representable: E[z(T)^2] overflows, "
            f"m(0) = {mom.m!r}, nu(0) = {mom.nu!r} (nu(0)^2 + m(0) above 354.9)"
        )
    return model


def market_from_config(block: dict) -> MarketModel:
    """Build a MarketModel from the config schema.

    Expected shape::

        {"horizon": 1.0,
         "segments": [{"t_start": 0.0, "r": 0.06, "mu": [...], "sigma": [[...]]}]}

    `segments` is a non-empty list of objects, whose `r`, `mu`, `sigma` and
    `t_start` lists go to validate_market as one entry per segment, so each
    is spelled as a segment's entry there. A segment without "t_start"
    starts at 0, so a lone one covers [0, T].

    Raises ConfigError when the block or `segments` is not so structured or
    lacks a key, and the errors of validate_market, DimensionMismatch among
    them for a coefficient of the wrong shape.
    """
    if not isinstance(block, dict):
        raise ConfigError(f"market must be an object, got {block!r}")
    try:
        horizon, segs = block["horizon"], block["segments"]
        if not (isinstance(segs, list) and segs and all(isinstance(s, dict) for s in segs)):
            raise ConfigError(f"market.segments must be a non-empty list of objects, got {segs!r}")
        rate, drift, vol = ([s[key] for s in segs] for key in ("r", "mu", "sigma"))
    except KeyError as exc:
        raise ConfigError(f"market or one of its segments is missing the key {exc}") from None
    breakpoints = [s.get("t_start", 0.0) for s in segs]
    return validate_market(horizon, rate, drift, vol, breakpoints=breakpoints)


def deflator_moments(model: MarketModel, t: float) -> DeflatorMoments:
    """Exact (m(t), nu(t)) of ln(z(T)/z(t)) by segment sums."""
    lengths = model.segment_lengths_between(t, model.horizon)
    m = 0.0
    nu_sq = 0.0
    for length, rate, theta_sq in zip(lengths, model.rate, model.theta_sq):
        m -= length * (rate + 0.5 * theta_sq)
        nu_sq += length * theta_sq
    return DeflatorMoments(m=m, nu=math.sqrt(nu_sq))


def deflator_context(model: MarketModel, horizon: float) -> PartialMomentContext:
    """Partial-moment context of the terminal deflator, ln z(T) ~ N(m(0), nu(0)^2),
    for a problem posed on `horizon`: DomainError unless it is the market's to 1e-12."""
    if abs(horizon - model.horizon) > 1e-12:
        raise DomainError(f"problem horizon {horizon} != market horizon {model.horizon}")
    mom = deflator_moments(model, 0.0)
    return PartialMomentContext(m0=mom.m, nu0=mom.nu)


def expected_deflator(model: MarketModel, t0: float, t1: float) -> float:
    """e^{-int_{t0}^{t1} r(s) ds}; equals E[z(t1)/z(t0)]."""
    lengths = model.segment_lengths_between(t0, t1)
    return math.exp(-sum(length * rate for length, rate in zip(lengths, model.rate)))
