"""Exception types raised across the solver suite.

Everything derives from CapfolioError so callers can catch the whole family
with one clause, and each fault has one type. A spent iteration budget is
SolverDiverged where it happens; no solve re-wraps it.
"""


class CapfolioError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CapfolioError):
    """Coefficients are malformed or disagree on the number of assets or segments."""


class DegenerateVolatility(CapfolioError):
    """sigma(t) cannot be inverted: sigma sigma' is below its eigenvalue floor or a pivot is 0."""


class DomainError(CapfolioError):
    """Argument outside the domain of the function: a horizon not the market's,
    a time outside [0, T] or where the policy has no limit, too few samples."""


class TargetOutOfRange(CapfolioError):
    """Inversion target lies outside the attainable range of the function."""


class NoSignChange(CapfolioError):
    """Root bracket endpoints have the same sign."""


class InfeasibleBudget(CapfolioError):
    """Initial capital cannot be carried to the cap: x0 >= B * E[z(T)]."""


class TargetTooHigh(CapfolioError):
    """Expected-wealth target d is at or above the upper bound d_upper."""


class SolverDiverged(CapfolioError):
    """A numerical solve failed: a root or Newton iteration budget spent, a
    singular or non-finite Newton step or a stalled line search, a bracket
    without a sign change, a residual gate missed, the simplex's basis or
    iteration budget, or the cutting planes' gap or primal checks."""


class ConfigError(CapfolioError):
    """Run configuration is missing fields or has inconsistent values."""
