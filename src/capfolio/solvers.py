"""Generic numeric kernels on floats: 1-D bracketed roots and damped 2-D
Newton. Nothing in here knows about portfolios; the policy modules feed in
their residual functions. Every routine returns only a converged answer and
raises SolverDiverged where it fails, so no caller re-wraps a spent budget.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import NoSignChange, SolverDiverged

__all__ = ["SolveReport", "find_root_1d", "solve_2d"]

_EPS = sys.float_info.epsilon


@dataclass(frozen=True, slots=True)
class SolveReport:
    """A converged solve: `root` is a float for find_root_1d and a pair of
    floats for solve_2d, reached after `iterations` steps."""

    root: object
    iterations: int


def find_root_1d(f, bracket_lo, bracket_hi, tol=1e-12, max_iter=200):
    """Brent-style root finding on a sign-changing bracket.

    Stops when |f(x)| <= tol or the bracket width falls below
    tol * max(1, |x|). The iterate never leaves [bracket_lo, bracket_hi].

    Raises NoSignChange if f has the same sign at both ends, SolverDiverged
    if the budget runs out.
    """
    a, b = float(bracket_lo), float(bracket_hi)
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return SolveReport(a, 0)
    if fb == 0.0:
        return SolveReport(b, 0)
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
            return SolveReport(b, it)
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
    raise SolverDiverged(f"no root after {max_iter} iterations, last |f| = {abs(fb):.3e}")


def _sup_norm(f) -> float:
    """max(|f_0|, |f_1|), NaN when either component is NaN."""
    a, b = abs(f[0]), abs(f[1])
    return math.nan if math.isnan(a + b) else max(a, b)


def _evaluate(F, x):
    f = F(x)
    return float(f[0]), float(f[1])


def _fd_jacobian(F, x):
    """Central-difference Jacobian of F at the pair x, as rows (a, b), (c, d)."""
    columns = []
    for i in range(2):
        h = 1e-6 * max(1.0, abs(x[i]))
        xp, xm = list(x), list(x)
        xp[i] += h
        xm[i] -= h
        fp, fm = _evaluate(F, tuple(xp)), _evaluate(F, tuple(xm))
        columns.append(((fp[0] - fm[0]) / (2.0 * h), (fp[1] - fm[1]) / (2.0 * h)))
    (a, c), (b, d) = columns
    return a, b, c, d


def solve_2d(F, x_init, tol=1e-10, max_iter=100):
    """Damped Newton for a 2-D system with central-difference Jacobian.

    F maps a pair of floats to a pair of residuals. The 2x2 Newton step is
    solved on floats by Cramer's rule. Backtracks by halving (at most 30
    times) until the residual sup-norm drops; converged when
    ||F||_inf <= tol.

    Raises SolverDiverged on a zero or non-finite Jacobian determinant, a
    non-finite step, a stalled line search, or when the budget runs out.
    """
    x = (float(x_init[0]), float(x_init[1]))
    fx = _evaluate(F, x)
    norm = _sup_norm(fx)
    for it in range(1, max_iter + 1):
        if norm <= tol:
            return SolveReport(x, it - 1)
        a, b, c, d = _fd_jacobian(F, x)
        det = a * d - b * c
        if det == 0.0 or not math.isfinite(det):
            raise SolverDiverged(f"singular Jacobian: determinant {det} at iterate {list(x)}")
        step = ((b * fx[1] - d * fx[0]) / det, (c * fx[0] - a * fx[1]) / det)
        if not (math.isfinite(step[0]) and math.isfinite(step[1])):
            raise SolverDiverged(f"non-finite Newton step at {list(x)}")
        scale = 1.0
        for _ in range(30):
            trial = (x[0] + scale * step[0], x[1] + scale * step[1])
            f_trial = _evaluate(F, trial)
            trial_norm = _sup_norm(f_trial)
            if math.isfinite(trial_norm) and trial_norm < norm:
                break
            scale *= 0.5
        else:
            raise SolverDiverged(f"line search stalled at residual {norm:.3e}")
        x, fx, norm = trial, f_trial, trial_norm
    if norm <= tol:
        return SolveReport(x, max_iter)
    raise SolverDiverged(f"residual {norm:.3e} > {tol} after {max_iter} iterations")
