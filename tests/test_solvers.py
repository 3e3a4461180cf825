"""Root finding and 2-D Newton behavior."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capfolio import solvers
from capfolio.errors import NoSignChange, SolverDiverged


def test_find_root_cosine():
    rep = solvers.find_root_1d(math.cos, 0.0, 3.0)
    assert rep.root == pytest.approx(math.pi / 2.0, abs=1e-10)


def test_find_root_cubic_with_flat_region():
    rep = solvers.find_root_1d(lambda x: x**3 - 2.0 * x - 5.0, 1.0, 3.0)
    assert rep.root == pytest.approx(2.0945514815423265, abs=1e-9)


def test_find_root_exact_endpoint():
    rep = solvers.find_root_1d(lambda x: x - 1.0, 1.0, 2.0)
    assert rep.root == 1.0
    assert rep.iterations == 0


def test_find_root_requires_sign_change():
    with pytest.raises(NoSignChange):
        solvers.find_root_1d(lambda x: x * x + 1.0, -1.0, 1.0)


def test_find_root_iteration_budget():
    with pytest.raises(SolverDiverged, match="no root after 2 iterations"):
        solvers.find_root_1d(lambda x: math.tanh(x) - 0.5, -40.0, 60.0, max_iter=2)


def test_find_root_stays_inside_bracket():
    seen = []

    def f(x):
        seen.append(x)
        return math.expm1(x) - 0.5

    solvers.find_root_1d(f, -2.0, 2.0)
    assert all(-2.0 <= x <= 2.0 for x in seen)


def test_solve_2d_linear_systems_converge_fast():
    rng = np.random.default_rng(7)
    solved = 0
    for _ in range(100):
        jac = rng.uniform(-2.0, 2.0, size=(2, 2))
        if abs(np.linalg.det(jac)) < 0.1:
            continue
        root = rng.uniform(-3.0, 3.0, size=2)

        def F(u, jac=jac, root=root):
            return jac @ (u - root)

        rep = solvers.solve_2d(F, root + rng.uniform(-1.0, 1.0, size=2))
        assert rep.iterations <= 3
        np.testing.assert_allclose(rep.root, root, atol=1e-7)
        solved += 1
    assert solved >= 80


def test_solve_2d_nonlinear():
    def F(u):
        return np.array([u[0] ** 2 + u[1] ** 2 - 4.0, u[0] - u[1]])

    rep = solvers.solve_2d(F, np.array([1.0, 0.5]))
    np.testing.assert_allclose(rep.root, [math.sqrt(2.0)] * 2, atol=1e-8)


def test_solve_2d_singular_jacobian():
    def F(u):
        s = u[0] + u[1]
        return np.array([s, s + 1.0])

    with pytest.raises(SolverDiverged, match="singular Jacobian"):
        solvers.solve_2d(F, np.array([0.0, 0.0]))


def test_solve_2d_budget_exhausted_is_solver_diverged():
    def F(u):
        return np.array([math.exp(u[0]) - 2.0, u[1] ** 3 - 8.0])

    with pytest.raises(SolverDiverged, match="after 2 iterations"):
        solvers.solve_2d(F, np.array([10.0, 10.0]), max_iter=2)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.2, 3.0),
    b=st.floats(-2.0, 2.0),
    c=st.floats(-1.0, 1.0),
)
def test_find_root_monotone_cubic(a, b, c):
    # strictly increasing cubic a x^3 + a x + b has one real root
    def f(x):
        return a * x**3 + a * x + b + c * math.tanh(x)

    rep = solvers.find_root_1d(f, -10.0, 10.0)
    assert abs(f(rep.root)) < 1e-6

