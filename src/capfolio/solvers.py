"""Generic numeric kernels: 1-D bracketed roots and damped 2-D Newton.
Nothing in here knows about portfolios; the policy modules feed in their
residual functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MaxIterations, NoSignChange, SingularJacobian

__all__ = ["SolveReport", "find_root_1d", "solve_2d"]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, slots=True)
class SolveReport:
    """Outcome of a solve. `root` is a float for the 1-D routines and a
    length-2 array for solve_2d. `converged` means the stopping rule of the
    routine was met (residual small, or bracket narrower than tolerance)."""

    root: object
    residual_norm: float
    iterations: int
    converged: bool


def find_root_1d(f, bracket_lo, bracket_hi, tol=1e-12, max_iter=200):
    """Brent-style root finding on a sign-changing bracket.

    Stops when |f(x)| <= tol or the bracket width falls below
    tol * max(1, |x|). The iterate never leaves [bracket_lo, bracket_hi].

    Raises NoSignChange if f has the same sign at both ends, MaxIterations
    if the budget runs out.
    """
    a, b = float(bracket_lo), float(bracket_hi)
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return SolveReport(a, 0.0, 0, True)
    if fb == 0.0:
        return SolveReport(b, 0.0, 0, True)
    if (fa > 0.0) == (fb > 0.0):
        raise NoSignChange(
            f"f({a}) = {fa} and f({b}) = {fb} have the same sign"
        )

    c, fc = a, fa
    d = e = b - a
    for it in range(1, max_iter + 1):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol * max(1.0, abs(b))
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0 or abs(fb) <= tol:
            return SolveReport(b, abs(fb), it, True)
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            # interpolation step: secant, or inverse quadratic when a, b, c
            # are distinct
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        if abs(d) > tol1:
            b += d
        else:
            b += tol1 if xm > 0.0 else -tol1
        fb = f(b)
    raise MaxIterations(
        f"no root after {max_iter} iterations, last |f| = {abs(fb):.3e}",
        report=SolveReport(b, abs(fb), max_iter, False),
    )


def _fd_jacobian(F, x, fx):
    jac = np.empty((2, 2))
    for i in range(2):
        h = 1e-6 * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (np.asarray(F(xp)) - np.asarray(F(xm))) / (2.0 * h)
    return jac


def solve_2d(F, x_init, tol=1e-10, max_iter=100):
    """Damped Newton for a 2-D system with central-difference Jacobian.

    Backtracks by halving (at most 30 times) until the residual sup-norm
    drops; converged when ||F||_inf <= tol.

    Raises SingularJacobian if a Newton step cannot be computed and
    MaxIterations when the budget runs out (best iterate in the report).
    """
    x = np.asarray(x_init, dtype=float).copy()
    fx = np.asarray(F(x), dtype=float)
    norm = float(np.max(np.abs(fx)))
    for it in range(1, max_iter + 1):
        if norm <= tol:
            return SolveReport(x, norm, it - 1, True)
        jac = _fd_jacobian(F, x, fx)
        try:
            step = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(
                f"Jacobian singular at iterate {x.tolist()}"
            ) from exc
        if not np.all(np.isfinite(step)):
            raise SingularJacobian(f"non-finite Newton step at {x.tolist()}")
        scale = 1.0
        for _ in range(30):
            trial = x + scale * step
            f_trial = np.asarray(F(trial), dtype=float)
            trial_norm = float(np.max(np.abs(f_trial)))
            if math.isfinite(trial_norm) and trial_norm < norm:
                break
            scale *= 0.5
        else:
            raise MaxIterations(
                f"line search stalled at residual {norm:.3e}",
                report=SolveReport(x, norm, it, False),
            )
        x, fx, norm = trial, f_trial, trial_norm
    if norm <= tol:
        return SolveReport(x, norm, max_iter, True)
    raise MaxIterations(
        f"residual {norm:.3e} > {tol} after {max_iter} iterations",
        report=SolveReport(x, norm, max_iter, False),
    )

