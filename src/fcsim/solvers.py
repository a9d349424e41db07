"""Scalar root finding and small nonlinear least squares, with numpy only.

brentq is Brent's method in the operation order of scipy's brentq.c, so it
returns the same iterates bit for bit; evaluated_once keeps a solve's
values for one call, so brentq gets back bracket ends its caller has
already evaluated without evaluating them again; least_squares is plain
Levenberg-Marquardt (Marquardt's damping, no trust region) for fits of a
few parameters. None of them imports scipy. The package imports this module
inside the functions that solve, so a command that solves nothing does not
compile it at start-up.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NoConvergence

EPS = float(np.finfo(float).eps)
BRENTQ_XTOL = 2e-12
BRENTQ_RTOL = 4 * EPS


def evaluated_once(f):
    """f of one argument, with each value it gives kept for the life of the returned
    function, in its dict `values` (argument -> value).

    A solve that asks for a point twice, as brentq does for bracket ends its
    caller has already evaluated, then computes it once; keys are the exact
    arguments, so each value is the one f gives there.
    """
    values = {}

    def once(x):
        if x not in values:
            values[x] = f(x)
        return values[x]

    once.values = values
    return once


def brentq(f, a: float, b: float, xtol: float = BRENTQ_XTOL, rtol: float = BRENTQ_RTOL,
           maxiter: int = 100) -> float:
    """Root of f in [a, b], to within xtol + rtol * |root|.

    ValueError if f(a) and f(b) have the same sign or f returns NaN;
    NoConvergence (best: the last iterate) after maxiter iterations.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < BRENTQ_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {BRENTQ_RTOL:g})")

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x:f} is NaN; solver cannot continue")
        return fx

    xtol, rtol = float(xtol), float(rtol)
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):  # signbit in C; both are nonzero and not NaN here
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gets inf or nan, and bisects below on either
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise NoConvergence(f"brentq did not converge in {maxiter} iterations", best=xcur)


class LeastSquaresResult(NamedTuple):
    x: np.ndarray
    fun: np.ndarray    # residuals at x
    jac: np.ndarray    # forward-difference jacobian at x
    success: bool      # False if max_nfev ran out first
    nfev: int          # residual evaluations, jacobian columns included


def _jacobian(resid, x, f):
    """Forward differences with step sqrt(eps) * max(1, |x|), away from zero."""
    h = math.sqrt(EPS) * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    h = (x + h) - x  # the step as represented
    jac = np.empty((f.size, x.size))
    for j in range(x.size):
        xj = x.copy()
        xj[j] += h[j]
        jac[:, j] = (resid(xj) - f) / h[j]
    return jac


def least_squares(resid, x0, xtol: float, ftol: float, max_nfev: int) -> LeastSquaresResult:
    """Minimise sum(resid(x)**2) from x0 by Levenberg-Marquardt.

    Each step minimises |J dx + f|^2 + lam |D dx|^2, with D the column norms
    of J, as one linear least-squares problem; a parameter that moves
    nothing gets no step. lam starts at 1e-3 and falls tenfold after a step
    that lowers the cost, rises tenfold after one that does not (non-finite
    residuals included). It stops when a step is shorter than
    xtol * (xtol + |x|), or when an accepted step lowers the cost by less
    than ftol times the cost; success is False if another step and its
    jacobian would pass max_nfev residual evaluations.
    """
    x = np.array(x0, dtype=float)
    f = np.asarray(resid(x), dtype=float)
    jac = _jacobian(resid, x, f)
    nfev = 1 + x.size
    cost = float(f @ f)
    lam = 1e-3
    while nfev + 1 + x.size <= max_nfev:
        damping = np.diag(math.sqrt(lam) * np.linalg.norm(jac, axis=0))
        step = np.linalg.lstsq(np.vstack([jac, damping]), np.concatenate([-f, np.zeros(x.size)]),
                               rcond=None)[0]
        if np.linalg.norm(step) < xtol * (xtol + np.linalg.norm(x)):
            return LeastSquaresResult(x, f, jac, True, nfev)
        x_new = x + step
        f_new = np.asarray(resid(x_new), dtype=float)
        nfev += 1
        cost_new = float(f_new @ f_new) if np.all(np.isfinite(f_new)) else math.inf
        if cost_new >= cost:
            lam *= 10.0
            continue
        lam /= 10.0
        converged = cost - cost_new < ftol * cost
        x, f, cost = x_new, f_new, cost_new
        jac = _jacobian(resid, x, f)
        nfev += x.size
        if converged:
            return LeastSquaresResult(x, f, jac, True, nfev)
    return LeastSquaresResult(x, f, jac, False, nfev)
