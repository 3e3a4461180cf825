"""The stated raise set of each public solve: every CapfolioError type it
may raise, as its docstring lists them.

`test_random_markets.py` holds the random sweeps to these sets, and
`test_raise_sets.py` checks that each docstring names exactly its set.
"""
from capfolio.errors import (
    DegenerateVolatility,
    DimensionMismatch,
    DomainError,
    InfeasibleBudget,
    SolverDiverged,
    TargetTooHigh,
)

#: "module.function" -> the CapfolioError types it raises
RAISES = {
    "market.validate_market": {DimensionMismatch, DegenerateVolatility, DomainError},
    "lpm.solve_lpm": {DomainError, InfeasibleBudget, TargetTooHigh, SolverDiverged},
    "cvar.solve_cvar": {DomainError, InfeasibleBudget, TargetTooHigh, SolverDiverged},
    "meanvar.solve_mv": {DomainError, SolverDiverged},
    "baseline.solve_static_cvar": {DomainError, SolverDiverged},
}
