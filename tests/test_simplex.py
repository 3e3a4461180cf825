"""Bounded-variable simplex: hand-checked toys, random sweep, live programs."""
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

from capfolio import simplex
from capfolio.errors import DimensionMismatch, NumericalBreakdown


def _lp(cost, a_eq, b_eq, lower=None, upper=None):
    """The program's arrays from array-likes; bounds default to [0, inf)."""
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    return SimpleNamespace(
        cost=cost,
        a_eq=np.atleast_2d(np.asarray(a_eq, dtype=float)),
        b_eq=np.asarray(b_eq, dtype=float),
        lower=np.zeros(n) if lower is None else np.asarray(lower, dtype=float),
        upper=np.full(n, math.inf) if upper is None else np.asarray(upper, dtype=float),
    )


def _program(lp, basis):
    return simplex.Program(
        lp.cost, lp.a_eq, lp.b_eq, lp.lower, lp.upper, np.asarray(basis, dtype=np.intp)
    )


def test_two_variable_assignment():
    lp = _lp(
        cost=[-1.0, -2.0],
        a_eq=[[1.0, 1.0]],
        b_eq=[1.0],
        lower=[0.0, 0.0],
        upper=[1.0, 1.0],
    )
    res = _program(lp, [0]).solve()  # from x = (1, 0)
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
    res = _program(lp, [0, 2]).solve()  # from x = (6, 0, 4), objective 32
    assert res.status == simplex.OPTIMAL
    assert res.objective == pytest.approx(28.0, abs=1e-9)
    np.testing.assert_allclose(res.x, [2.0, 8.0, 0.0], atol=1e-9)


def test_unbounded_detected():
    lp = _lp(cost=[-1.0, 0.0], a_eq=[[1.0, -1.0]], b_eq=[0.0])
    res = _program(lp, [1]).solve()
    assert res.status == simplex.UNBOUNDED
    assert res.x is None


def test_free_variable():
    lp = _lp(
        cost=[1.0, 0.0],
        a_eq=[[1.0, 1.0]],
        b_eq=[3.0],
        lower=[-math.inf, 0.0],
        upper=[math.inf, 1.0],
    )
    res = _program(lp, [0]).solve()  # from x = (3, 0)
    assert res.status == simplex.OPTIMAL
    np.testing.assert_allclose(res.x, [2.0, 1.0], atol=1e-10)


def test_negative_lower_bounds():
    # every feasible point costs 0, so the start (3, -3) is optimal already
    lp = _lp(
        cost=[1.0, 1.0],
        a_eq=[[1.0, 1.0]],
        b_eq=[0.0],
        lower=[-2.0, -3.0],
        upper=[5.0, 5.0],
    )
    res = _program(lp, [0]).solve()
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
    res = _program(lp, [2]).solve()  # from x = (0, 0, 10)
    assert res.objective == pytest.approx(-7.0, abs=1e-10)
    np.testing.assert_allclose(res.x[:2], [3.0, 4.0], atol=1e-10)


def test_complementary_slackness_of_duals():
    lp = _lp(
        cost=[3.0, 1.0, 4.0, 1.0],
        a_eq=[[1.0, 2.0, 1.0, 0.0], [0.0, 1.0, 2.0, 1.0]],
        b_eq=[4.0, 3.0],
    )
    res = _program(lp, [0, 3]).solve()  # from x = (4, 0, 0, 3), objective 15
    assert res.status == simplex.OPTIMAL
    assert res.objective < 15.0
    rc = lp.cost - res.duals @ lp.a_eq
    for j in range(4):
        if res.x[j] > 1e-9:  # interior of the box, so the column is priced out
            assert abs(rc[j]) < 1e-8
        else:
            assert rc[j] > -1e-8


def test_fixed_variables():
    # x1 is pinned, so x2 = 2.5 is the only feasible point
    lp = _lp(
        cost=[1.0, 2.0],
        a_eq=[[1.0, 1.0]],
        b_eq=[4.0],
        lower=[1.5, 0.0],
        upper=[1.5, 10.0],
    )
    res = _program(lp, [1]).solve()
    np.testing.assert_allclose(res.x, [1.5, 2.5], atol=1e-10)


def test_program_shape_validation():
    with pytest.raises(DimensionMismatch):
        simplex.Program(
            np.ones(3), np.ones((1, 2)), np.ones(1), np.zeros(2), np.ones(2), np.zeros(1, int)
        )
    with pytest.raises(DimensionMismatch):
        _program(_lp([1.0], [[1.0]], [1.0], lower=[2.0], upper=[1.0]), [0])
    with pytest.raises(DimensionMismatch):
        _program(_lp([1.0, 1.0], [[1.0, 1.0]], [1.0]), [0, 1])


def test_infeasible_start_rejected():
    # x1 = -1 with x2 at its lower bound breaks x1 >= 0; x2 = 3 breaks x2 <= 2
    lp = _lp([1.0, 1.0], [[1.0, 1.0]], [-1.0])
    with pytest.raises(NumericalBreakdown, match="infeasible"):
        _program(lp, [0])
    lp = _lp([1.0, 1.0], [[1.0, 1.0]], [3.0], upper=[math.inf, 2.0])
    with pytest.raises(NumericalBreakdown, match="infeasible"):
        _program(lp, [1])
    _program(lp, [0])  # x = (3, 0) is a feasible start of the same program


def test_singular_start_rejected():
    lp = _lp([1.0, 1.0, 1.0], [[1.0, 2.0, 0.0], [2.0, 4.0, 1.0]], [1.0, 2.0])
    with pytest.raises(NumericalBreakdown, match="singular"):
        _program(lp, [0, 1])


def _random_instance(rng):
    """A random program whose last m columns are a slack block, with the
    other columns on their bounds (zero when free) and the slacks at
    random values inside theirs, so the slack basis is a feasible start."""
    m = rng.integers(1, 6)
    n = rng.integers(2, 10)
    a = rng.normal(size=(m, n)).round(3)
    lower = np.where(rng.random(n) < 0.3, -rng.uniform(0.0, 3.0, n), 0.0)
    upper = np.where(rng.random(n) < 0.6, lower + rng.uniform(0.5, 5.0, n), math.inf)
    lower = np.where(rng.random(n) < 0.1, -math.inf, lower)
    start = np.where(np.isfinite(lower), lower, np.where(np.isfinite(upper), upper, 0.0))
    slack = rng.uniform(0.0, 2.0, m)
    slack_upper = np.where(rng.random(m) < 0.3, slack + rng.uniform(0.0, 2.0, m), math.inf)
    cost = np.append(rng.normal(size=n).round(3), rng.normal(size=m).round(3))
    return _lp(
        cost,
        np.column_stack([a, np.eye(m)]),
        a @ start + slack,
        np.append(lower, np.zeros(m)),
        np.append(upper, slack_upper),
    ), np.arange(n, n + m)


def _highs(lp):
    return linprog(
        lp.cost,
        A_eq=lp.a_eq,
        b_eq=lp.b_eq,
        bounds=list(zip(lp.lower, lp.upper)),
        method="highs",
    )


def test_random_sweep_against_reference_solver():
    rng = np.random.default_rng(2024)
    checked = unbounded = 0
    for _ in range(60):
        lp, basis = _random_instance(rng)
        res = _program(lp, basis).solve()
        ref = _highs(lp)
        if ref.status == 3:
            assert res.status == simplex.UNBOUNDED
            unbounded += 1
        else:
            assert ref.status == 0
            assert res.status == simplex.OPTIMAL
            assert res.objective == pytest.approx(ref.fun, abs=1e-7)
            np.testing.assert_allclose(lp.a_eq @ res.x, lp.b_eq, atol=1e-8)
            assert np.all(res.x >= lp.lower - 1e-9)
            assert np.all(res.x <= lp.upper + 1e-9)
            checked += 1
    assert checked >= 25 and unbounded >= 1


def _resumed_rounds(rng):
    """A cutting-plane-like sequence on one live Program: each round appends
    a column x_j >= 0 and changes two costs, past the initial column
    capacity 2 n.  The first m columns are a unit block at values in
    (0.1, 0.5), the start.  Yields (program, result, lp) per round, lp
    holding the same program's arrays."""
    m, n, k = 3, 6, 14
    a = rng.normal(size=(m, n + k))
    a[:, :m] = np.eye(m)
    upper = np.where(rng.random(n + k) < 0.5, rng.uniform(0.5, 2.0, n + k), math.inf)
    upper[n:] = math.inf
    b = rng.uniform(0.1, 0.5, m)
    cost = rng.uniform(0.1, 2.0, n + k) * rng.choice([-1.0, 1.0], n + k)
    lp = _lp(cost[:n], a[:, :n], b, upper=upper[:n])
    program = _program(lp, np.arange(m))
    yield program, program.solve(), lp
    for j in range(n, n + k):
        program.add_column(a[:, j], cost[j])
        cost[:2] = rng.uniform(-2.0, 2.0, 2)
        program.cost[:2] = cost[:2]
        lp = _lp(cost[: j + 1], a[:, : j + 1], b, upper=upper[: j + 1])
        yield program, program.solve(), lp


def test_program_resumes_to_the_reference_optimum():
    # appending a column at its lower bound or changing costs leaves the
    # basis feasible: every resumed solve must reach HiGHS's optimum
    rng = np.random.default_rng(99)
    optimal = 0
    for _ in range(20):
        for program, res, lp in _resumed_rounds(rng):
            ref = _highs(lp)
            assert res.status == {0: simplex.OPTIMAL, 3: simplex.UNBOUNDED}[ref.status]
            if ref.status != 0:
                continue
            optimal += 1
            assert res.objective == pytest.approx(ref.fun, abs=1e-8)
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
    res = _program(lp, [0]).solve()
    # one move flips x2 to its upper bound, then a pricing pass finds no gain
    assert res.iterations == 2
