"""Market validation, its shape rule, and deflator moment integrals."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capfolio import cvar, lpm, market, meanvar
from capfolio.errors import (
    ConfigError,
    DegenerateVolatility,
    DimensionMismatch,
    DomainError,
)

import markets


def test_scalar_promotion_builds_single_segment_model():
    model = market.validate_market(1.0, 0.06, 0.12, 0.15)
    assert model.n_assets == 1
    assert model.rate == (0.06,)
    assert model.drift == ((0.12,),)
    assert model.vol == (((0.15,),),)
    assert model.breakpoints == (0.0,)
    assert model.horizon == 1.0


def test_vector_promotion_single_segment(example2):
    assert example2.n_assets == 3
    assert [len(mu) for mu in example2.drift] == [3]
    assert [[len(row) for row in sigma] for sigma in example2.vol] == [[3, 3, 3]]


EX2_MU, EX2_SIGMA = (markets.EXAMPLE2["segments"][0][key] for key in ("mu", "sigma"))
# the canonical spelling: one entry per segment in every coefficient, mu a
# list and sigma a matrix in each
CANONICAL = {
    "scalars": (1.0, [0.06], [[0.12]], [[[0.15]]], [0.0]),
    "vector_matrix": (1.0, [0.016], [EX2_MU], [EX2_SIGMA], [0.0]),
    "segments": (2.0, [0.03, 0.07], [[0.10], [0.09]], [[[0.2]], [[0.25]]], [0.0, 0.8]),
}
# each accepted spelling and the canonical one it must build
SPELLINGS = {
    "scalars": ("scalars", (1.0, 0.06, 0.12, 0.15, None)),
    "scalars_with_breakpoint": ("scalars", (1.0, 0.06, 0.12, 0.15, [0.0])),
    "numpy_scalars": (
        "scalars", (1.0, np.float64(0.06), np.float64(0.12), np.array(0.15), None)
    ),
    "vector_matrix": ("vector_matrix", (1.0, 0.016, EX2_MU, EX2_SIGMA, None)),
    "vector_matrix_numpy": (
        "vector_matrix", (1.0, 0.016, np.array(EX2_MU), np.array(EX2_SIGMA), None)
    ),
    "numpy_rows": (
        "vector_matrix", (1.0, 0.016, EX2_MU, [np.array(row) for row in EX2_SIGMA], None)
    ),
    "one_segment_list": ("vector_matrix", (1.0, [0.016], [EX2_MU], [EX2_SIGMA], None)),
    "one_segment_numpy": (
        "vector_matrix",
        (1.0, np.array([0.016]), np.array([EX2_MU]), np.array([EX2_SIGMA]), np.array([0.0])),
    ),
    "one_segment_numpy_entries": (
        "vector_matrix", (1.0, [0.016], [np.array(EX2_MU)], [np.array(EX2_SIGMA)], None)
    ),
    "segments_numbers": ("segments", (2.0, [0.03, 0.07], [0.10, 0.09], [0.2, 0.25], [0.0, 0.8])),
    "segments_numpy": (
        "segments", (2.0, *(np.array(v) for v in CANONICAL["segments"][1:]))
    ),
    "segments_tuples": (
        "segments", (2.0, (0.03, 0.07), ((0.10,), (0.09,)), (((0.2,),), ((0.25,),)), (0.0, 0.8))
    ),
    "segments_mixed": (
        "segments", (2.0, [0.03, np.float64(0.07)], [0.10, [0.09]], [[[0.2]], 0.25], [0.0, 0.8])
    ),
}


def _leaves(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


@pytest.mark.parametrize("name", sorted(SPELLINGS))
def test_each_spelling_builds_the_canonical_model(name):
    canonical, spelling = SPELLINGS[name]
    model = market.validate_market(*spelling)
    assert model == market.validate_market(*CANONICAL[canonical])
    coefficients = (model.breakpoints, model.rate, model.drift, model.vol)
    assert {type(v) for v in _leaves(coefficients)} == {float}


M2 = [[0.2, 0.0], [0.0, 0.2]]
# a number rate is one segment, so drift and vol carry no segment axis; a
# rate list gives every coefficient one, entry by entry
MISSHAPEN = {
    "drift_segment_axis_on_number_rate": ((0.05, [[0.1]], 0.2, None), "segment 0: drift"),
    "vol_list_on_number_rate": ((0.05, 0.1, [0.2], None), "segment 0: vol must be 1 x 1"),
    "vol_segment_axis_on_number_rate": ((0.05, 0.1, [[[0.2]]], None), "segment 0: vol"),
    "vector_drift_on_rate_list": (
        ([0.05], [0.1, 0.2], M2, None), "drift needs one entry per segment (1)"
    ),
    "number_vol_on_rate_list": (
        ([0.05], [0.1], 0.2, None), "vol needs one entry per segment (1)"
    ),
    "asset_count_changes": (
        ([0.03, 0.07], [0.1, [0.1, 0.2]], [0.2, M2], [0.0, 0.5]),
        "segment 1: drift has 2 assets, segment 0 has 1",
    ),
    "no_segment": (([], [], [], None), "the market needs at least one segment"),
}


@pytest.mark.parametrize("name", sorted(MISSHAPEN))
def test_misshapen_coefficients_name_their_segment(name):
    (rate, drift, vol, breakpoints), message = MISSHAPEN[name]
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}"):
        market.validate_market(1.0, rate, drift, vol, breakpoints=breakpoints)


def test_arrays_are_frozen(example1):
    with pytest.raises(TypeError):
        example1.rate[0] = 0.0
    with pytest.raises(TypeError):
        example1.vol[0][0][0] = 0.0
    with pytest.raises(AttributeError):  # dataclasses.FrozenInstanceError
        example1.rate = (0.0,)


# a string, a boolean, bytes or an int beyond the float range is no horizon,
# even where float() would take it
@pytest.mark.parametrize(
    "horizon",
    [
        0.0, -1.0, math.nan, math.inf,
        pytest.param("1.0", id="str"),
        pytest.param(True, id="bool"),
        pytest.param(b"1", id="bytes"),
        pytest.param(10**400, id="int_1e400"),
    ],
)
def test_bad_horizon(horizon):
    with pytest.raises(DomainError):
        market.validate_market(horizon, 0.06, 0.12, 0.15)


def test_segment_count_mismatch():
    with pytest.raises(DimensionMismatch):
        market.validate_market(
            2.0, [0.03, 0.05], [[0.1]], [[[0.2]], [[0.2]]], breakpoints=[0.0, 1.0]
        )


def test_vol_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        market.validate_market(1.0, 0.05, [0.1, 0.2], [[0.2, 0.0]])


def test_multi_segment_requires_breakpoints():
    with pytest.raises(DimensionMismatch):
        market.validate_market(2.0, [0.03, 0.05], [0.1, 0.1], [0.2, 0.2])


@pytest.mark.parametrize(
    "breakpoints",
    [[0.5, 1.0], [0.0, 0.0], [0.0, 2.0], [0.0, 2.5]],
)
def test_bad_breakpoints(breakpoints):
    with pytest.raises(DimensionMismatch):
        market.validate_market(
            2.0, [0.03, 0.05], [0.1, 0.1], [0.2, 0.2], breakpoints=breakpoints
        )


def test_nonfinite_coefficient_rejected():
    with pytest.raises(DimensionMismatch):
        market.validate_market(1.0, 0.05, math.nan, 0.2)


def test_degenerate_volatility_rejected():
    with pytest.raises(DegenerateVolatility) as err:
        market.validate_market(1.0, 0.05, 0.1, 0.0)
    assert "segment 0" in str(err.value)
    assert "1.000e-10" in str(err.value)
    # rank-deficient 2x2: second row is a multiple of the first
    with pytest.raises(DegenerateVolatility):
        market.validate_market(
            1.0, 0.05, [0.1, 0.1], [[0.2, 0.1], [0.4, 0.2]]
        )


@pytest.mark.parametrize("sigma", [[[1000.0, 3000.0], [1000.0, 3000.0]], [[1e8, 1e8], [1e8, 1e8]]])
def test_singular_volatility_past_the_floor_is_degenerate(sigma):
    # exactly singular, yet the Cholesky test of the eigenvalue floor passes
    # by rounding; elimination then meets a zero pivot
    with pytest.raises(DegenerateVolatility, match="singular volatility matrix"):
        market.validate_market(1.0, 0.0, [0.1, 0.1], sigma)


@pytest.mark.parametrize(
    "mu, sigma",
    [(1e308, 1e-4), (1e300, 1.1e-5)],
    ids=["theta", "direction"],
)
def test_overflowing_market_price_of_risk_is_a_domain_error(mu, sigma):
    # theta = mu / sigma, or the direction theta / sigma, overflows
    with pytest.raises(DomainError, match="non-finite market price of risk"):
        market.validate_market(1.0, 0.0, mu, sigma)


def test_market_price_of_risk_example1(example1):
    # by hand: (0.12 - 0.06) / 0.15 = 0.4 exactly
    theta = example1.theta[example1.segment_index(0.0)]
    assert len(theta) == 1
    assert theta[0] == pytest.approx(0.4, abs=1e-15)


def test_market_price_of_risk_example2(example2):
    # frozen independent route: dense solve of sigma theta = mu - r 1 at r = 0.016
    theta = example2.theta[example2.segment_index(0.5)]
    np.testing.assert_allclose(
        theta, [0.48575847, 0.42630011, 0.45136197], atol=1e-7
    )


def test_deflator_moments_example1(example1):
    # by hand: m = -(r + theta^2/2) T, nu = theta sqrt(T)
    mom = market.deflator_moments(example1, 0.0)
    assert mom.m == pytest.approx(-0.14, abs=1e-15)
    assert mom.nu == pytest.approx(0.4, abs=1e-15)
    part = market.deflator_moments(example1, 0.25)
    assert part.m == pytest.approx(-0.14 * 0.75, abs=1e-15)
    assert part.nu == pytest.approx(0.4 * math.sqrt(0.75), rel=1e-15)
    end = market.deflator_moments(example1, 1.0)
    assert end.m == 0.0
    assert end.nu == 0.0


def test_deflator_moments_example2(example2):
    # frozen independent route: segment sums with theta from the dense solve
    mom = market.deflator_moments(example2, 0.0)
    assert mom.m == pytest.approx(-0.326710, abs=1e-6)
    assert mom.nu == pytest.approx(0.788302, abs=1e-6)


def _two_segment_model():
    return market.validate_market(
        2.0,
        [0.03, 0.07],
        [0.10, 0.09],
        [0.2, 0.25],
        breakpoints=[0.0, 0.8],
    )


def test_deflator_moments_piecewise_hand_integral():
    model = _two_segment_model()
    th1 = (0.10 - 0.03) / 0.2
    th2 = (0.09 - 0.07) / 0.25
    # full horizon: tau1 = 0.8 years of segment 1, tau2 = 1.2 of segment 2
    mom = market.deflator_moments(model, 0.0)
    m_hand = -(0.8 * (0.03 + 0.5 * th1**2) + 1.2 * (0.07 + 0.5 * th2**2))
    nu_hand = math.sqrt(0.8 * th1**2 + 1.2 * th2**2)
    assert mom.m == pytest.approx(m_hand, rel=1e-14)
    assert mom.nu == pytest.approx(nu_hand, rel=1e-14)
    # starting mid-segment keeps 0.3 years of segment 1
    mid = market.deflator_moments(model, 0.5)
    m_mid = -(0.3 * (0.03 + 0.5 * th1**2) + 1.2 * (0.07 + 0.5 * th2**2))
    assert mid.m == pytest.approx(m_mid, rel=1e-14)


def test_expected_deflator_piecewise():
    model = _two_segment_model()
    assert market.expected_deflator(model, 0.0, 2.0) == pytest.approx(
        math.exp(-(0.8 * 0.03 + 1.2 * 0.07)), rel=1e-14
    )
    assert market.expected_deflator(model, 0.5, 0.5) == 1.0
    with pytest.raises(DomainError):
        market.expected_deflator(model, 1.0, 0.5)


def test_expected_deflator_example1(example1):
    assert market.expected_deflator(example1, 0.0, 1.0) == pytest.approx(
        math.exp(-0.06), rel=1e-15
    )


def test_segment_index_boundaries():
    model = _two_segment_model()
    assert model.segment_index(0.0) == 0
    assert model.segment_index(0.79) == 0
    assert model.segment_index(0.8) == 1
    assert model.segment_index(2.0) == 1
    with pytest.raises(DomainError):
        model.segment_index(2.1)
    with pytest.raises(DomainError):
        model.segment_index(-0.1)


@pytest.mark.parametrize("t", [-0.1, 2.1, math.nan])
def test_deflator_moments_outside_the_horizon_is_a_domain_error(t):
    with pytest.raises(DomainError, match=r"need 0 <= t0 <= t1 <= horizon"):
        market.deflator_moments(_two_segment_model(), t)


_LPM = dict(x0=1.0, d=1.3, gamma=1.05, cap=10.0, q=1.0)


@pytest.mark.parametrize(
    "solve, problem",
    [
        (lpm.d_bounds, lpm.LpmProblem(**_LPM, horizon=2.0)),
        (lpm.solve_lpm, lpm.LpmProblem(**_LPM, horizon=2.0)),
        (cvar.solve_cvar, cvar.CvarProblem(x0=1.0, d=1.2, cap=10.0, beta=0.95, horizon=2.0)),
        (meanvar.solve_mv, meanvar.MvProblem(x0=1.0, d=1.3, horizon=0.5)),
    ],
    ids=["lpm.d_bounds", "lpm.solve_lpm", "cvar.solve_cvar", "meanvar.solve_mv"],
)
def test_horizon_mismatch_is_a_domain_error(example1, solve, problem):
    # every solve builds its deflator context through the one horizon check
    with pytest.raises(DomainError, match=r"problem horizon \S+ != market horizon 1\.0"):
        solve(problem, example1)


@pytest.mark.parametrize("block", [None, 1.0, "market", [{"horizon": 1.0}]])
def test_market_from_config_needs_an_object(block):
    with pytest.raises(ConfigError, match="market must be an object"):
        market.market_from_config(block)


def test_market_from_config_single_segment(example1):
    model = market.market_from_config(
        {
            "horizon": 1.0,
            "segments": [{"t_start": 0.0, "r": 0.06, "mu": 0.12, "sigma": 0.15}],
        }
    )
    assert model.rate[0] == example1.rate[0]
    assert model.drift[0][0] == example1.drift[0][0]
    assert model.vol[0][0][0] == example1.vol[0][0][0]


def test_market_from_config_multi_segment():
    model = market.market_from_config(
        {
            "horizon": 2.0,
            "segments": [
                {"t_start": 0.0, "r": 0.03, "mu": 0.10, "sigma": 0.2},
                {"t_start": 0.8, "r": 0.07, "mu": 0.09, "sigma": 0.25},
            ],
        }
    )
    hand = _two_segment_model()
    assert model.breakpoints == hand.breakpoints
    assert market.deflator_moments(model, 0.3).m == pytest.approx(
        market.deflator_moments(hand, 0.3).m, rel=1e-15
    )


@pytest.mark.parametrize(
    "block, key",
    [
        ({"horizon": 1.0, "segments": [{"r": 0.06, "sigma": 0.15}]}, "'mu'"),
        ({"segments": [{"r": 0.06, "mu": 0.12, "sigma": 0.15}]}, "'horizon'"),
        ({"horizon": 1.0}, "'segments'"),
    ],
)
def test_market_from_config_names_a_missing_key(block, key):
    with pytest.raises(ConfigError, match=key):
        market.market_from_config(block)


@settings(max_examples=40, deadline=None)
@given(
    r=st.floats(-0.02, 0.10),
    mu=st.floats(-0.1, 0.3),
    sigma=st.floats(0.05, 0.6),
    t_mid=st.floats(0.1, 0.9),
)
def test_expected_deflator_multiplies_over_subintervals(r, mu, sigma, t_mid):
    model = market.validate_market(1.0, r, mu, sigma)
    whole = market.expected_deflator(model, 0.0, 1.0)
    split = market.expected_deflator(model, 0.0, t_mid) * market.expected_deflator(
        model, t_mid, 1.0
    )
    assert whole == pytest.approx(split, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    r=st.floats(-0.02, 0.10),
    mu=st.floats(-0.1, 0.3),
    sigma=st.floats(0.05, 0.6),
    t=st.floats(0.0, 1.0),
)
def test_deflator_moment_identity_single_segment(r, mu, sigma, t):
    # nu(t)^2 scales with remaining time; m(t) = -(r + nu0^2/2)(T - t)
    model = market.validate_market(1.0, r, mu, sigma)
    mom = market.deflator_moments(model, t)
    theta = (mu - r) / sigma
    rem = 1.0 - t
    assert mom.nu**2 == pytest.approx(theta**2 * rem, abs=1e-12)
    assert mom.m == pytest.approx(-(r + 0.5 * theta**2) * rem, abs=1e-12)


@pytest.mark.parametrize(
    "kind, numbers",
    [
        (lpm.LpmProblem, dict(x0=1.0, d=1.3, gamma=1.06, cap=10.0, q=2.0, horizon=1.0)),
        (cvar.CvarProblem, dict(x0=1.0, d=1.3, cap=10.0, beta=0.95, horizon=1.0, xbar=1.06)),
        (meanvar.MvProblem, dict(x0=1.0, d=1.3, horizon=1.0)),
    ],
    ids=["lpm", "cvar", "mv"],
)
def test_problem_types_take_only_finite_numbers(kind, numbers):
    # NaN passes every x <= 0 test and an int beyond the float range
    # overflows only inside the solve, so both are named at construction
    for name in numbers:
        for bad in (math.nan, math.inf, -math.inf, 10**400, True, "1.0"):
            with pytest.raises(DomainError, match=f"^{name} must be a finite number"):
                kind(**{**numbers, name: bad})
    # ints and numpy scalars are numbers, each stored as the Python float
    # that float() gives
    for name, good in [*((name, np.float32(v)) for name, v in numbers.items()),
                       ("x0", 1), ("x0", np.int64(1)), ("horizon", 1), ("horizon", np.int64(1))]:
        value = getattr(kind(**{**numbers, name: good}), name)
        assert type(value) is float and value == float(good)
    if kind is cvar.CvarProblem:
        assert kind(**{**numbers, "xbar": None}).xbar is None
