"""Simplex on nonnegative and free columns: hand-checked toys, random sweeps
against HiGHS (under Dantzig pricing and under Bland's rule), live programs."""
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

from capfolio import simplex
from capfolio.errors import DimensionMismatch, SolverDiverged


def _lp(cost, a_eq, b_eq, free=()):
    """The program's arrays from array-likes; the columns listed in free are
    free, every other one is x_j >= 0."""
    cost = np.asarray(cost, dtype=float)
    mask = np.zeros(cost.shape[0], dtype=bool)
    mask[list(free)] = True
    return SimpleNamespace(
        cost=cost,
        a_eq=np.atleast_2d(np.asarray(a_eq, dtype=float)),
        b_eq=np.asarray(b_eq, dtype=float),
        free=mask,
    )


def _program(lp, basis):
    return simplex.Program(lp.cost, lp.a_eq, lp.b_eq, lp.free, np.asarray(basis, dtype=np.intp))


def test_two_variable_assignment():
    lp = _lp(cost=[-1.0, -2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
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
    # a free column entering going down with no basic column to stop it
    lp = _lp(cost=[1.0, 0.0, 0.0], a_eq=[[1.0, 1.0, -1.0]], b_eq=[1.0], free=[0])
    assert _program(lp, [1]).solve().status == simplex.UNBOUNDED


def test_free_variable():
    # x2 <= 1 as a row with its slack; the free x1 is basic and is never
    # the column that leaves, so it falls from 3 to 2 as x2 rises
    lp = _lp(
        cost=[1.0, 0.0, 0.0],
        a_eq=[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
        b_eq=[3.0, 1.0],
        free=[0],
    )
    res = _program(lp, [0, 2]).solve()  # from x = (3, 0, 1)
    assert res.status == simplex.OPTIMAL
    np.testing.assert_allclose(res.x, [2.0, 1.0, 0.0], atol=1e-10)


def test_free_column_enters_going_down():
    # the free x1 starts outside the basis at 0 and its cost falls as it
    # falls: it enters going down until the slack s = 2 + x1 reaches 0
    lp = _lp(
        cost=[1.0, 0.0, 0.0],
        a_eq=[[1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]],
        b_eq=[3.0, 2.0],
        free=[0],
    )
    res = _program(lp, [1, 2]).solve()  # from x = (0, 3, 2)
    assert res.status == simplex.OPTIMAL
    assert res.objective == pytest.approx(-2.0, abs=1e-10)
    np.testing.assert_allclose(res.x, [-2.0, 5.0, 0.0], atol=1e-10)


def test_upper_bounds_bind():
    # maximize x1 + x2 under a shared resource, with x1 <= 3 and x2 <= 4
    # written as rows with their slacks: both caps bind
    lp = _lp(
        cost=[-1.0, -1.0, 0.0, 0.0, 0.0],
        a_eq=[[1.0, 1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0, 1.0]],
        b_eq=[10.0, 3.0, 4.0],
    )
    res = _program(lp, [2, 3, 4]).solve()  # from x = (0, 0, 10, 3, 4)
    assert res.objective == pytest.approx(-7.0, abs=1e-10)
    np.testing.assert_allclose(res.x, [3.0, 4.0, 3.0, 0.0, 0.0], atol=1e-10)


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
        if res.x[j] > 1e-9:  # off its bound, so the column is priced out
            assert abs(rc[j]) < 1e-8
        else:
            assert rc[j] > -1e-8


def test_fixed_variables():
    # the free x1 is pinned by a row of its own, below zero, so x2 = 5.5 is
    # the only feasible point
    lp = _lp(cost=[1.0, 2.0], a_eq=[[1.0, 1.0], [1.0, 0.0]], b_eq=[4.0, -1.5], free=[0])
    res = _program(lp, [0, 1]).solve()
    np.testing.assert_allclose(res.x, [-1.5, 5.5], atol=1e-10)


def test_program_shape_validation():
    a, b, basis = np.ones((1, 2)), np.ones(1), np.zeros(1, dtype=np.intp)
    with pytest.raises(DimensionMismatch, match="cost"):
        simplex.Program(np.ones(3), a, b, np.zeros(2, dtype=bool), basis)
    with pytest.raises(DimensionMismatch, match="free"):
        simplex.Program(np.ones(2), a, b, np.zeros(3, dtype=bool), basis)
    with pytest.raises(DimensionMismatch, match="basis"):
        _program(_lp([1.0, 1.0], [[1.0, 1.0]], [1.0]), [0, 1])


def test_infeasible_start_rejected():
    # x1 = -1 with x2 at zero breaks x1 >= 0, but not once x1 is free
    lp = _lp([1.0, 1.0], [[1.0, 1.0]], [-1.0])
    with pytest.raises(SolverDiverged, match="infeasible"):
        _program(lp, [0])
    _program(_lp([1.0, 1.0], [[1.0, 1.0]], [-1.0], free=[0]), [0])
    # x2 = 3 leaves the slack of x2 <= 2 at -1
    lp = _lp([1.0, 1.0, 0.0], [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]], [3.0, 2.0])
    with pytest.raises(SolverDiverged, match="infeasible"):
        _program(lp, [1, 2])
    _program(lp, [0, 2])  # x = (3, 0, 2) is a feasible start of the same program


def test_singular_start_rejected():
    lp = _lp([1.0, 1.0, 1.0], [[1.0, 2.0, 0.0], [2.0, 4.0, 1.0]], [1.0, 2.0])
    with pytest.raises(SolverDiverged, match="singular"):
        _program(lp, [0, 1])


def _random_instance(rng):
    """A random program whose last m columns are a slack block at random
    values, some at zero, with the other columns at zero, so the slack basis
    is a feasible, often degenerate, start.  About a third of the columns
    are free, slacks included; a free slack may start below zero.  Most
    costs are priced by a random dual point, at or above it on the columns
    x_j >= 0 and on it on the free ones, which keeps the program bounded;
    the rest are drawn at random and mostly leave it unbounded."""
    m = rng.integers(1, 6)
    n = rng.integers(2, 10)
    a = np.column_stack([rng.normal(size=(m, n)).round(3), np.eye(m)])
    free = rng.random(n + m) < 0.3
    slack = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0.0, 2.0, m)) - 2.0 * free[n:]
    if rng.random() < 0.2:
        cost = rng.normal(size=n + m)
    else:
        cost = rng.normal(size=m) @ a + np.where(free, 0.0, rng.uniform(0.0, 1.0, n + m))
    return _lp(cost, a, slack, np.flatnonzero(free)), np.arange(n, n + m)


def _highs(lp):
    bounds = [(None, None) if free else (0.0, None) for free in lp.free]
    return linprog(lp.cost, A_eq=lp.a_eq, b_eq=lp.b_eq, bounds=bounds, method="highs")


def _assert_feasible(lp, x):
    np.testing.assert_allclose(lp.a_eq @ x, lp.b_eq, atol=1e-8)
    assert np.all(x[~lp.free] >= -1e-9)


def _bland_passes(monkeypatch):
    """Price under Bland's rule from the first pass that does not lower the
    objective, and log whether each pass priced under it."""
    passes = []
    pick = simplex.Program._pick_entering

    def recorded(program, rc, bland, tol):
        passes.append(bland)
        return pick(program, rc, bland, tol)

    monkeypatch.setattr(simplex, "_STALL_LIMIT", 0)
    monkeypatch.setattr(simplex.Program, "_pick_entering", recorded)
    return passes


def _random_sweep():
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
            _assert_feasible(lp, res.x)
            checked += 1
    assert checked >= 25 and unbounded >= 1


def test_random_sweep_against_reference_solver():
    _random_sweep()


def test_random_sweep_against_reference_solver_under_bland(monkeypatch):
    passes = _bland_passes(monkeypatch)
    _random_sweep()
    # Bland prices after every degenerate pivot, Dantzig again once the
    # objective moves
    assert 20 <= sum(passes) < len(passes)


def _resumed_rounds(rng):
    """A cutting-plane-like sequence on one live Program: each round appends
    a column x_j >= 0 and changes two costs.  The first m columns are a unit block at values in
    (0.1, 0.5), some at zero, the start; about a third of the other n - m
    are free.  Costs are priced by a random dual point as in
    `_random_instance`, and a changed cost may fall below it, which can
    leave the program unbounded.  Yields (program, result, lp) per round,
    lp holding the same program's arrays."""
    m, n, k = 3, 6, 14
    a = rng.normal(size=(m, n + k))
    a[:, :m] = np.eye(m)
    free = np.arange(n + k) >= m
    free &= (np.arange(n + k) < n) & (rng.random(n + k) < 0.3)
    b = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0.1, 0.5, m))
    priced = rng.normal(size=m) @ a
    cost = priced + np.where(free, 0.0, rng.uniform(0.0, 1.0, n + k))
    lp = _lp(cost[:n], a[:, :n], b, np.flatnonzero(free))
    program = _program(lp, np.arange(m))
    yield program, program.solve(), lp
    for j in range(n, n + k):
        program.add_column(a[:, j], cost[j])
        cost[:2] = priced[:2] + rng.uniform(-0.5, 1.5, 2)
        program.cost[:2] = cost[:2]
        lp = _lp(cost[: j + 1], a[:, : j + 1], b, np.flatnonzero(free[: j + 1]))
        yield program, program.solve(), lp


def _resumed_sweep():
    # appending a column x_j >= 0 or changing costs leaves the basis
    # feasible: every resumed solve must reach HiGHS's optimum
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
            _assert_feasible(lp, res.x)
            assert res.x.shape == (program.n,)
    assert optimal >= 40


def test_program_resumes_to_the_reference_optimum():
    _resumed_sweep()


def test_program_resumes_to_the_reference_optimum_under_bland(monkeypatch):
    passes = _bland_passes(monkeypatch)
    _resumed_sweep()
    assert 20 <= sum(passes) < len(passes)


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
            # priced out: no column x_j >= 0 lowers the cost going up, and
            # no free column going either way
            assert np.all(rc > -1e-8)
            assert np.all(np.abs(rc[lp.free]) < 1e-8)
            checked += 1
    assert checked >= 40


def test_iteration_count_reported():
    lp = _lp([-1.0, -2.0], [[1.0, 1.0]], [1.0])
    res = _program(lp, [0]).solve()
    # one pivot brings x2 in for x1, then a pricing pass finds no gain
    assert res.iterations == 2


def test_non_finite_basic_values_are_a_breakdown():
    # B^-1 b = 1e308 / 1e-308 overflows
    lp = _lp(cost=[1.0], a_eq=[[1e-308]], b_eq=[1e308])
    with pytest.raises(SolverDiverged, match="non-finite basic values"):
        _program(lp, [0])


def test_iteration_budget_exhausted_is_a_breakdown():
    lp = _lp(cost=[-1.0, -2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    program = _program(lp, [0])
    program.iterations = 0
    with pytest.raises(SolverDiverged, match="exceeded 0 iterations"):
        program._iterate(0)
