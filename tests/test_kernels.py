"""Special-function kernels against high-precision and quadrature oracles."""
import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtri

from capfolio import cvar, kernels, lpm, market, meanvar, surface
from capfolio.errors import DomainError, TargetOutOfRange

import markets

# Standard normal CDF at 64 fixed probes, frozen from a 50-digit
# arbitrary-precision evaluation and rounded to the nearest double.
_PHI_TABLE = [
    (-8.0, 6.220960574271784e-16),
    (-7.703703703703704, 6.608906554744675e-15),
    (-7.407407407407407, 6.439617242243066e-14),
    (-7.111111111111111, 5.755620834873267e-13),
    (-6.814814814814815, 4.719263406649425e-12),
    (-6.518518518518519, 3.5502586309973055e-11),
    (-6.222222222222222, 2.4508105073986857e-10),
    (-5.925925925925926, 1.5527127830881854e-09),
    (-5.62962962962963, 9.02984997284803e-09),
    (-5.333333333333334, 4.821303365114105e-08),
    (-5.037037037037037, 2.363966623189092e-07),
    (-4.7407407407407405, 1.0646913451288307e-06),
    (-4.444444444444445, 4.405963702589195e-06),
    (-4.148148148148149, 1.6758774242052274e-05),
    (-3.851851851851852, 5.8613969991680845e-05),
    (-3.5555555555555554, 0.00018859061491912903),
    (-3.2592592592592595, 0.0005585176905233222),
    (-2.9629629629629637, 0.0015234661419998496),
    (-2.666666666666667, 0.003830380567589732),
    (-2.3703703703703702, 0.008885137067733317),
    (-2.0740740740740744, 0.019036215977654803),
    (-1.7777777777777786, 0.037720179813400166),
    (-1.4814814814814818, 0.06923915803341024),
    (-1.1851851851851851, 0.1179721180612391),
    (-0.8888888888888893, 0.18703139874544114),
    (-0.5925925925925934, 0.2767269188077989),
    (-0.2962962962962967, 0.38350190708293186),
    (0.0, 0.5),
    (0.29629629629629584, 0.6164980929170678),
    (0.5925925925925917, 0.7232730811922005),
    (0.8888888888888893, 0.8129686012545588),
    (1.1851851851851851, 0.8820278819387609),
    (1.481481481481481, 0.9307608419665896),
    (1.7777777777777768, 0.9622798201865997),
    (2.0740740740740726, 0.9809637840223451),
    (2.3703703703703702, 0.9911148629322667),
    (2.666666666666666, 0.9961696194324102),
    (2.962962962962962, 0.9984765338580002),
    (3.2592592592592595, 0.9994414823094767),
    (3.5555555555555554, 0.9998114093850808),
    (3.851851851851851, 0.9999413860300084),
    (4.148148148148147, 0.999983241225758),
    (4.444444444444443, 0.9999955940362975),
    (4.7407407407407405, 0.9999989353086549),
    (5.037037037037036, 0.9999997636033376),
    (5.333333333333332, 0.9999999517869663),
    (5.62962962962963, 0.99999999097015),
    (5.925925925925926, 0.9999999984472873),
    (6.222222222222221, 0.9999999997549189),
    (6.518518518518517, 0.9999999999644974),
    (6.814814814814813, 0.9999999999952808),
    (7.111111111111111, 0.9999999999994245),
    (7.4074074074074066, 0.9999999999999356),
    (7.703703703703702, 0.9999999999999933),
    (8.0, 0.9999999999999993),
    (-37.5, 4.605353009581955e-308),
    (-30.0, 4.906713927148187e-198),
    (-17.25, 5.594968394904885e-67),
    (-12.0, 1.776482112077679e-33),
    (0.00015, 0.5000598413418358),
    (12.0, 1.0),
    (17.25, 1.0),
    (30.0, 1.0),
    (37.5, 1.0),
]

_CTX = kernels.PartialMomentContext(m0=-0.14, nu0=0.4)


def test_normal_cdf_against_frozen_reference():
    for y, ref in _PHI_TABLE:
        assert abs(kernels.std_normal_cdf(y) - ref) <= 1e-14, y


def test_normal_cdf_vectorized_matches_scalar():
    ys = np.array([y for y, _ in _PHI_TABLE])
    refs = np.array([v for _, v in _PHI_TABLE])
    vec = surface.std_normal_cdf_array(ys)
    np.testing.assert_allclose(vec, refs, atol=1e-14)
    for y, got in zip(ys, vec):
        want = kernels.std_normal_cdf(float(y))
        assert want == pytest.approx(got, rel=1e-13, abs=0.0), y


def test_normal_cdf_deep_tail_relative_accuracy():
    # erfc keeps ~1e-13 relative accuracy far into the left tail
    for y, ref in _PHI_TABLE:
        if ref > 0.0 and y < -4.0:
            assert abs(kernels.std_normal_cdf(y) / ref - 1.0) < 1e-12


# The normal quantile `kernels.invert_H` takes: the standard library's.
_QUANTILE = NormalDist().inv_cdf


def test_quantile_round_trip():
    for y in np.linspace(-5.0, 5.0, 41):
        p = kernels.std_normal_cdf(y)
        assert _QUANTILE(p) == pytest.approx(y, abs=1e-9)


def test_quantile_matches_ndtri_into_both_tails():
    # log-spaced lower tails down to 1e-300, and their mirror images 1 - p
    lower = np.geomspace(1e-300, 0.5, 20001)
    upper = 1.0 - lower
    for p in np.concatenate([lower, upper[upper < 1.0]]).tolist():
        want = float(ndtri(p))
        assert abs(_QUANTILE(p) - want) <= 2e-15 * abs(want), p


def test_pdf_values():
    assert kernels.std_normal_pdf(0.0) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), rel=1e-15
    )
    assert kernels.std_normal_pdf(2.0) == pytest.approx(
        math.exp(-2.0) / math.sqrt(2.0 * math.pi), rel=1e-14
    )


def _quad_truncated(a, mu, v, dcut):
    def integrand(y):
        return math.exp(a * y) * math.exp(-0.5 * ((y - mu) / v) ** 2) / (
            v * math.sqrt(2.0 * math.pi)
        )

    lo = mu - 12.0 * max(v, v * abs(a) * v)
    val, err = quad(integrand, min(lo, dcut - 1.0), dcut, limit=400)
    return val, err


def test_truncated_exp_moment_against_quadrature():
    rng = np.random.default_rng(42)
    for _ in range(60):
        a = rng.uniform(-3.0, 3.0)
        mu = rng.uniform(-2.0, 2.0)
        v = rng.uniform(0.05, 2.0)
        dcut = mu + rng.uniform(-3.5, 3.5) * v
        want, err = _quad_truncated(a, mu, v, dcut)
        got = kernels.truncated_exp_moment(a, mu, v, dcut)
        assert abs(got - want) <= max(1e-9, 20.0 * err), (a, mu, v, dcut)


def test_truncated_exp_moment_limits():
    full = math.exp(0.3 * 0.1 + 0.5 * 0.3**2 * 0.5**2)
    assert kernels.truncated_exp_moment(0.3, 0.1, 0.5, math.inf) == pytest.approx(
        full, rel=1e-15
    )
    assert kernels.truncated_exp_moment(0.3, 0.1, 0.5, -math.inf) == 0.0
    # a = 0 reduces to the plain CDF
    assert kernels.truncated_exp_moment(0.0, 0.1, 0.5, 0.6) == pytest.approx(
        kernels.std_normal_cdf(1.0), rel=1e-15
    )


def test_truncated_exp_moment_point_mass():
    # no caller passes a law without volatility, so both kernels reject it
    for v in (0.0, -0.1):
        with pytest.raises(DomainError):
            kernels.truncated_exp_moment(2.0, 0.3, v, 0.4)
        with pytest.raises(DomainError):
            surface.truncated_exp_moment_array(2.0, 0.3, v, [0.4])


def test_truncated_exp_moment_broadcasts():
    cuts = np.array([-math.inf, 0.0, 1.0, math.inf])
    out = surface.truncated_exp_moment_array(1.0, 0.0, 1.0, cuts)
    assert out.shape == (4,)
    assert out[0] == 0.0
    assert np.all(np.diff(out) > 0.0)


def test_truncated_exp_moment_scalar_matches_array():
    # math.erfc and scipy's erfc differ by at most ~7e-14 relative, in the
    # tails; below 1e-300 the two may round a subnormal result differently
    rng = np.random.default_rng(7)
    for _ in range(40):
        a = rng.uniform(-3.0, 3.0)
        mu = rng.uniform(-2.0, 2.0)
        v = rng.choice([0.0, rng.uniform(0.01, 3.0)])
        z = np.concatenate([rng.uniform(-30.0, 30.0, 20), [-8.0, 8.0]])
        cuts = np.concatenate([mu + z * max(v, 0.1), [-math.inf, math.inf, mu]])
        if v == 0.0:  # the point mass is rejected; drawn anyway, so no other draw moves
            continue
        vec = surface.truncated_exp_moment_array(a, mu, v, cuts)
        for cut, got in zip(cuts, vec):
            want = kernels.truncated_exp_moment(a, mu, v, float(cut))
            assert want == pytest.approx(got, rel=1e-13, abs=1e-300), (a, mu, v, cut)


def test_partial_moment_h_scalar_matches_array():
    rng = np.random.default_rng(11)
    for _ in range(20):
        ctx = kernels.PartialMomentContext(
            m0=rng.uniform(-4.5, 0.5), nu0=rng.uniform(0.05, 3.0)
        )
        p = rng.choice([0.0, 1.0, 2.0, rng.uniform(0.0, 3.0)])
        u = np.concatenate([rng.uniform(-12.0, 12.0, 20), [-38.0, 38.0]])
        ys = np.concatenate([np.exp(ctx.m0 + ctx.nu0 * u), [math.inf]])
        vec = surface.truncated_exp_moment_array(p, ctx.m0, ctx.nu0, np.log(ys))
        for y, got in zip(ys, vec):
            want = kernels.partial_moment_H(ctx, p, float(y))
            assert want == pytest.approx(got, rel=1e-13, abs=1e-300), (ctx, p, y)


def test_context_rejects_degenerate_sd():
    with pytest.raises(DomainError):
        kernels.PartialMomentContext(m0=0.0, nu0=0.0)
    with pytest.raises(DomainError):
        kernels.PartialMomentContext(m0=0.0, nu0=-0.4)


def test_context_mean_and_standardize():
    assert _CTX.mean == pytest.approx(math.exp(-0.14 + 0.08), rel=1e-15)
    assert _CTX.standardize(math.exp(-0.14)) == pytest.approx(0.0, abs=1e-15)
    assert _CTX.standardize(math.exp(-0.14 + 0.4)) == pytest.approx(1.0, rel=1e-12)


def test_partial_moment_h_is_cdf_at_p0():
    for y in [0.2, 0.8, 1.0, 1.5]:
        want = kernels.std_normal_cdf(_CTX.standardize(y))
        assert kernels.partial_moment_H(_CTX, 0.0, y) == pytest.approx(
            want, rel=1e-14
        )


def test_partial_moment_h_full_moments():
    for p in [0.0, 1.0, 2.0, 3.0]:
        want = math.exp(p * _CTX.m0 + 0.5 * p * p * _CTX.nu0**2)
        assert kernels.partial_moment_H(_CTX, p, math.inf) == pytest.approx(
            want, rel=1e-14
        )


def test_partial_moment_h_against_quadrature():
    def integrand(u, p):
        # z = e^{m0 + nu0 u}, standard normal density in u
        return math.exp(p * (_CTX.m0 + _CTX.nu0 * u)) * math.exp(-0.5 * u * u) / (
            math.sqrt(2.0 * math.pi)
        )

    for p in [0.5, 1.0, 2.0]:
        for y in [0.5, 0.9, 1.2]:
            cut = _CTX.standardize(y)
            want, err = quad(integrand, -14.0, cut, args=(p,), limit=300)
            got = kernels.partial_moment_H(_CTX, p, y)
            assert abs(got - want) <= max(1e-11, 20.0 * err)


def test_extended_partial_moment_is_zero_below_the_positive_levels():
    for p in (0.0, 1.0, 2.0):
        assert kernels.partial_moment_H(_CTX, p, 0.0) == 0.0
        assert kernels.partial_moment_H(_CTX, p, -1.0) == 0.0
        for y in (1e-3, 0.7, 3.0, math.inf):
            want = kernels.truncated_exp_moment(p, _CTX.m0, _CTX.nu0, math.log(y))
            assert kernels.partial_moment_H(_CTX, p, y) == want


def test_invert_h1_round_trip():
    for y0 in [0.3, 0.7, 0.95, 1.3, 2.5]:
        target = kernels.partial_moment_H(_CTX, 1.0, y0)
        assert kernels.invert_H(_CTX, 1.0, target) == pytest.approx(y0, rel=1e-9)


def _contexts():
    """Deflator laws of examples 1 and 2 and of the high-Sharpe stress market."""
    blocks = (markets.EXAMPLE1, markets.EXAMPLE2, markets.STRESS)
    models = [market.market_from_config(b) for b in blocks]
    return [_CTX] + [market.deflator_context(m, m.horizon) for m in models]


def _fractions():
    """Shares of the range of H_p, log-spaced toward both of its ends."""
    return np.concatenate(
        [np.geomspace(1e-6, 0.5, 25), 1.0 - np.geomspace(0.5, 1e-9, 25)[1:]]
    ).tolist()


def test_invert_round_trip_to_rounding():
    # the error of H_p(y) relative to the smaller tail mass: below the
    # midpoint H_p(y) itself, above it the upper moment E[z^p 1{z > y}]
    for ctx in _contexts():
        for p in (0.0, 1.0):
            sup = ctx.mean if p == 1.0 else 1.0
            for u in [-4.0, -2.0, -0.5, 0.0, 1.0, 2.0, 4.0]:
                y0 = math.exp(ctx.m0 + ctx.nu0 * u)
                target = kernels.partial_moment_H(ctx, p, y0)
                assert kernels.invert_H(ctx, p, target) == pytest.approx(y0, rel=1e-12)
            for frac in _fractions():
                target = frac * sup
                x = math.log(kernels.invert_H(ctx, p, target))
                if frac <= 0.5:
                    err = kernels.truncated_exp_moment(p, ctx.m0, ctx.nu0, x) / target - 1.0
                else:
                    upper = kernels.truncated_exp_moment(-p, -ctx.m0, ctx.nu0, -x)
                    err = upper / (sup - target) - 1.0
                assert abs(err) <= 1e-13, (ctx, p, frac, err)


def test_invert_kernel_evaluations_per_inversion(monkeypatch):
    calls = []
    original = kernels.truncated_exp_moment

    def counted(*args):
        calls.append(args)
        return original(*args)

    # every H_p evaluation runs through this kernel; the closed-form inverse
    # evaluates none
    monkeypatch.setattr(kernels, "truncated_exp_moment", counted)
    for ctx in _contexts()[1:]:
        for p in (0.0, 1.0):
            for frac in _fractions():
                kernels.invert_H(ctx, p, frac * (ctx.mean if p == 1.0 else 1.0))
    assert calls == []


def _lpm_example1(d, q):
    return lpm.LpmProblem(x0=1.0, d=d, gamma=math.exp(0.06), cap=10.0, q=q, horizon=1.0)


@pytest.mark.parametrize(
    "problem, expected",
    [
        (_lpm_example1(1.3, 1.0), 70),
        (_lpm_example1(1.3, 2.0), 203),
        (_lpm_example1(1.0627595, 2.0), 667),
        (cvar.CvarProblem(x0=10.0, d=12.0, cap=100.0, beta=0.95, horizon=1.0), 395),
        (meanvar.MvProblem(x0=1.0, d=1.1, horizon=1.0), 39),
    ],
    ids=["lpm q=1", "lpm q=2", "lpm q=2 near d_lower", "cvar", "mv"],
)
def test_kernel_evaluations_per_solve(problem, expected, example1, example2, monkeypatch):
    # calls of truncated_exp_moment and invert_H in one solve on example 1
    # (example 2 for cvar), pinned so that a partial moment or a curve point
    # evaluated a second time shows as a changed count
    solve = {
        lpm.LpmProblem: lpm.solve_lpm,
        cvar.CvarProblem: cvar.solve_cvar,
        meanvar.MvProblem: meanvar.solve_mv,
    }[type(problem)]
    calls = []
    # wrapped at every binding site, so a call through any module is counted
    for module in (kernels, lpm, cvar, meanvar, market):
        for attr in ("truncated_exp_moment", "invert_H"):
            if attr in vars(module):

                def counted(*args, _original=vars(module)[attr]):
                    calls.append(args)
                    return _original(*args)

                monkeypatch.setattr(module, attr, counted)
    solve(problem, example2 if type(problem) is cvar.CvarProblem else example1)
    assert len(calls) == expected


def test_invert_h1_where_the_start_mass_rounds_to_an_end():
    # E[z] = 3.08: the tail mass 5e-324 / E[z] rounds to 0, where the
    # quantile is infinite; ln y is clamped to the level range, not an error
    ctx = kernels.PartialMomentContext(m0=1.0, nu0=0.5)
    assert ctx.mean >= 2.0
    for target in (5e-324, math.nextafter(ctx.mean, 0.0)):
        y = kernels.invert_H(ctx, 1.0, target)
        assert 0.0 < y < math.inf, target


def test_invert_rejects_out_of_range_targets():
    for p, sup in ((0.0, 1.0), (1.0, _CTX.mean)):
        for target in (0.0, sup, -0.5, sup * 1.01, math.nan):
            with pytest.raises(TargetOutOfRange):
                kernels.invert_H(_CTX, p, target)
    with pytest.raises(DomainError):
        kernels.invert_H(_CTX, 2.0, 0.5)


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(-2.5, 2.5),
    mu=st.floats(-1.5, 1.5),
    v=st.floats(0.05, 1.5),
    d1=st.floats(-4.0, 4.0),
    width=st.floats(0.0, 3.0),
)
def test_truncated_moment_monotone_in_cut(a, mu, v, d1, width):
    lo = kernels.truncated_exp_moment(a, mu, v, d1)
    hi = kernels.truncated_exp_moment(a, mu, v, d1 + width)
    assert hi >= lo - 1e-13 * max(1.0, abs(hi))


@settings(max_examples=50, deadline=None)
@given(
    m0=st.floats(-1.0, 0.5),
    nu0=st.floats(0.05, 1.2),
    p=st.floats(0.25, 3.0),
    y=st.floats(0.05, 20.0),
)
def test_partial_moment_bounds(m0, nu0, p, y):
    ctx = kernels.PartialMomentContext(m0=m0, nu0=nu0)
    h1 = kernels.partial_moment_H(ctx, 1.0, y)
    assert 0.0 <= h1 <= ctx.mean * (1.0 + 1e-12)
    hp = kernels.partial_moment_H(ctx, p, y)
    assert 0.0 <= hp <= kernels.partial_moment_H(ctx, p, math.inf) * (1.0 + 1e-12)
