"""Bounded-variable simplex: hand-checked toys, random sweep, live programs."""
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from capfolio import simplex
from capfolio.errors import DimensionMismatch


def _lp(cost, a_eq, b_eq, lower=None, upper=None):
    """A LinearProgram from array-likes; bounds default to [0, inf)."""
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    return simplex.LinearProgram(
        cost,
        np.atleast_2d(np.asarray(a_eq, dtype=float)),
        np.asarray(b_eq, dtype=float),
        np.zeros(n) if lower is None else np.asarray(lower, dtype=float),
        np.full(n, math.inf) if upper is None else np.asarray(upper, dtype=float),
    )


def test_two_variable_assignment():
    lp = _lp(
        cost=[-1.0, -2.0],
        a_eq=[[1.0, 1.0]],
        b_eq=[1.0],
        lower=[0.0, 0.0],
        upper=[1.0, 1.0],
    )
    res = simplex.Program(lp).solve()
    assert res.status == simplex.OPTIMAL
    np.testing.assert_allclose(res.x, [0.0, 1.0], atol=1e-10)
    assert res.objective == pytest.approx(-2.0, abs=1e-10)


def test_three_variable_blend():
    # cheapest mix meeting two linear balances; solved by hand: eliminating
    # x2 = 8 - 2 x3 and x1 = 2 + x3 leaves objective 28 + x3, so x3 = 0
    lp = _lp(
        cost=[2.0, 3.0, 5.0],
        a_eq=[[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]],
        b_eq=[10.0, 8.0],
    )
    res = simplex.Program(lp).solve()
    assert res.status == simplex.OPTIMAL
    assert res.objective == pytest.approx(28.0, abs=1e-9)
    np.testing.assert_allclose(res.x, [2.0, 8.0, 0.0], atol=1e-9)


def test_infeasible_detected():
    lp = _lp(cost=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[-1.0])
    res = simplex.Program(lp).solve()
    assert res.status == simplex.INFEASIBLE
    assert res.x is None


def test_unbounded_detected():
    lp = _lp(cost=[-1.0, 0.0], a_eq=[[1.0, -1.0]], b_eq=[0.0])
    res = simplex.Program(lp).solve()
    assert res.status == simplex.UNBOUNDED


def test_free_variable():
    lp = _lp(
        cost=[1.0, 0.0],
        a_eq=[[1.0, 1.0]],
        b_eq=[3.0],
        lower=[-math.inf, 0.0],
        upper=[math.inf, 1.0],
    )
    res = simplex.Program(lp).solve()
    assert res.status == simplex.OPTIMAL
    np.testing.assert_allclose(res.x, [2.0, 1.0], atol=1e-10)


def test_negative_lower_bounds():
    lp = _lp(
        cost=[1.0, 1.0],
        a_eq=[[1.0, 1.0]],
        b_eq=[0.0],
        lower=[-2.0, -3.0],
        upper=[5.0, 5.0],
    )
    res = simplex.Program(lp).solve()
    assert res.status == simplex.OPTIMAL
    assert res.objective == pytest.approx(0.0, abs=1e-10)
    assert res.x.sum() == pytest.approx(0.0, abs=1e-10)


def test_upper_bounds_bind():
    # maximize x1 + x2 under a shared resource: both saturate their boxes
    lp = _lp(
        cost=[-1.0, -1.0, 0.0],
        a_eq=[[1.0, 1.0, 1.0]],
        b_eq=[10.0],
        lower=[0.0, 0.0, 0.0],
        upper=[3.0, 4.0, math.inf],
    )
    res = simplex.Program(lp).solve()
    assert res.objective == pytest.approx(-7.0, abs=1e-10)
    np.testing.assert_allclose(res.x[:2], [3.0, 4.0], atol=1e-10)


def test_complementary_slackness_of_duals():
    lp = _lp(
        cost=[3.0, 1.0, 4.0, 1.0],
        a_eq=[[1.0, 2.0, 1.0, 0.0], [0.0, 1.0, 2.0, 1.0]],
        b_eq=[4.0, 3.0],
    )
    res = simplex.Program(lp).solve()
    assert res.status == simplex.OPTIMAL
    rc = lp.cost - res.duals @ lp.a_eq
    for j in range(4):
        if res.x[j] > 1e-9:  # interior of the box, so the column is priced out
            assert abs(rc[j]) < 1e-8
        else:
            assert rc[j] > -1e-8


def test_fixed_variables():
    lp = _lp(
        cost=[1.0, 2.0],
        a_eq=[[1.0, 1.0]],
        b_eq=[4.0],
        lower=[1.5, 0.0],
        upper=[1.5, 10.0],
    )
    res = simplex.Program(lp).solve()
    np.testing.assert_allclose(res.x, [1.5, 2.5], atol=1e-10)


def test_program_shape_validation():
    with pytest.raises(DimensionMismatch):
        simplex.LinearProgram(
            cost=np.ones(3),
            a_eq=np.ones((1, 2)),
            b_eq=np.ones(1),
            lower=np.zeros(2),
            upper=np.ones(2),
        )
    with pytest.raises(DimensionMismatch):
        _lp([1.0], [[1.0]], [1.0], lower=[2.0], upper=[1.0])


def _random_instance(rng):
    m = rng.integers(1, 6)
    n = rng.integers(2, 10)
    a = rng.normal(size=(m, n)).round(3)
    lower = np.where(rng.random(n) < 0.3, -rng.uniform(0.0, 3.0, n), 0.0)
    upper = np.where(rng.random(n) < 0.6, lower + rng.uniform(0.5, 5.0, n), math.inf)
    lower = np.where(rng.random(n) < 0.1, -math.inf, lower)
    # anchor feasibility (usually) at a random box point
    anchor = np.where(
        np.isfinite(lower), lower, 0.0
    ) + rng.random(n) * np.where(
        np.isfinite(upper - lower), np.maximum(upper - lower, 0.0), 1.0
    )
    b = a @ anchor
    cost = rng.normal(size=n).round(3)
    if rng.random() < 0.15:
        b = b + rng.normal(size=m)  # allow genuinely infeasible cases too
    return _lp(cost, a, b, lower, upper)


def test_random_sweep_against_reference_solver():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(60):
        lp = _random_instance(rng)
        res = simplex.Program(lp).solve()
        ref = linprog(
            lp.cost,
            A_eq=lp.a_eq,
            b_eq=lp.b_eq,
            bounds=list(zip(lp.lower, lp.upper)),
            method="highs",
        )
        if ref.status == 2:
            assert res.status == simplex.INFEASIBLE
        elif ref.status == 3:
            assert res.status == simplex.UNBOUNDED
        else:
            assert ref.status == 0
            assert res.status == simplex.OPTIMAL
            assert res.objective == pytest.approx(ref.fun, abs=1e-7)
            np.testing.assert_allclose(lp.a_eq @ res.x, lp.b_eq, atol=1e-8)
            assert np.all(res.x >= lp.lower - 1e-9)
            assert np.all(res.x <= lp.upper + 1e-9)
            checked += 1
    assert checked >= 25


def _resumed_rounds(rng, redundant=False):
    """A cutting-plane-like sequence on one live Program: each round appends
    a column x_j >= 0 and changes two costs, past the initial column
    capacity 2 (m + n).  Yields (program, result, lp) per round, lp being
    the same program built from scratch."""
    m, n, k = 3, 6, 14
    a = rng.normal(size=(m, n + k))
    if redundant:
        a[2] = a[0] + a[1]  # a dependent row keeps an artificial basic at zero
    upper = np.where(rng.random(n + k) < 0.5, rng.uniform(0.5, 2.0, n + k), math.inf)
    upper[n:] = math.inf
    b = a[:, :n] @ (rng.random(n) * np.minimum(upper[:n], 1.0))
    cost = rng.uniform(0.1, 2.0, n + k) * rng.choice([-1.0, 1.0], n + k)
    lp = _lp(cost[:n], a[:, :n], b, upper=upper[:n])
    program = simplex.Program(lp)
    yield program, program.solve(), lp
    for j in range(n, n + k):
        program.add_column(a[:, j], cost[j])
        cost[:2] = rng.uniform(-2.0, 2.0, 2)
        program.set_cost(slice(0, 2), cost[:2])
        lp = _lp(cost[: j + 1], a[:, : j + 1], b, upper=upper[: j + 1])
        yield program, program.solve(), lp


@pytest.mark.parametrize("redundant", [False, True])
def test_program_resumes_to_the_cold_optimum(redundant):
    # appending a column at its lower bound or changing costs leaves the
    # basis feasible: every resumed solve must reach the cold solve's optimum
    rng = np.random.default_rng(99)
    optimal = 0
    for _ in range(20):
        for program, res, lp in _resumed_rounds(rng, redundant):
            cold = simplex.Program(lp).solve()
            assert res.status == cold.status
            if cold.status != simplex.OPTIMAL:
                continue
            optimal += 1
            assert res.objective == pytest.approx(cold.objective, abs=1e-8)
            np.testing.assert_allclose(lp.a_eq @ res.x, lp.b_eq, atol=1e-8)
            assert np.all(res.x >= lp.lower - 1e-9) and np.all(res.x <= lp.upper + 1e-9)
            assert res.x.shape == (program.n,)
    assert optimal >= 40


def test_program_duals_solve_the_final_basis():
    # the duals of the last pricing pass are B^-T c_B of the final basis
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(20):
        for program, res, lp in _resumed_rounds(rng):
            if res.status != simplex.OPTIMAL:
                continue
            basis = program.basis
            fresh = np.linalg.solve(lp.a_eq[:, basis].T, lp.cost[basis])
            np.testing.assert_array_equal(res.duals, fresh)
            rc = lp.cost - res.duals @ lp.a_eq
            # priced out: no column can move into its box and lower the cost
            assert np.all((rc > -1e-8) | (res.x >= lp.upper - 1e-9))
            assert np.all((rc < 1e-8) | (res.x <= lp.lower + 1e-9))
            checked += 1
    assert checked >= 40


def test_iteration_count_reported():
    lp = _lp([-1.0, -2.0], [[1.0, 1.0]], [1.0], upper=[1.0, 1.0])
    res = simplex.Program(lp).solve()
    assert res.iterations >= 1
