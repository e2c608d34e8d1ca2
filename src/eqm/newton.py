"""Damped Newton iteration for the 2x2 endpoint systems.

The residual callables may raise a feasibility error (NegativeRadicand,
InvalidInterval, DomainError) at points outside the domain of the
square-root equations; that is the only way a point is rejected.  The
line search treats it exactly like a residual increase and halves the
step, and the Jacobian falls back to a one-sided difference.  An
infeasible starting point propagates the error to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInterval, NegativeRadicand

__all__ = ["NewtonResult", "damped_newton"]

_FEASIBILITY_ERRORS = (NegativeRadicand, InvalidInterval, DomainError)
_MAX_HALVINGS = 30  # line-search step halvings per Newton iteration


@dataclass
class NewtonResult:
    x: np.ndarray
    residual: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int
    message: str


def _norm(f):
    return float(np.max(np.abs(f)))


def _jacobian(fun, x, f0, h):
    """Central-difference Jacobian with one-sided fallback at domain edges."""
    n = len(x)
    jac = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        fp = fm = None
        try:
            fp = fun(x + e)
        except _FEASIBILITY_ERRORS:
            pass
        try:
            fm = fun(x - e)
        except _FEASIBILITY_ERRORS:
            pass
        if fp is not None and fm is not None:
            jac[:, j] = (fp - fm) / (2.0 * h)
        elif fp is not None:
            jac[:, j] = (fp - f0) / h
        elif fm is not None:
            jac[:, j] = (f0 - fm) / h
        else:
            return None
    return jac


def damped_newton(fun, x0, tol=1e-10, max_iter=100, step_scale=None):
    """Minimize ||fun(x)||_inf to below tol by damped Newton steps.

    Parameters
    ----------
    fun : callable
        x (ndarray) -> residual ndarray of the same length.  May raise a
        feasibility error off the domain.
    x0 : array_like
        Starting point; a feasibility error here propagates.
    tol : float
        Convergence threshold on the max-norm of the residual.
    max_iter : int
        Newton iteration budget.
    step_scale : callable, optional
        x -> finite-difference step h for the Jacobian (default 1e-6).

    Returns
    -------
    NewtonResult
        converged is False when the budget or the line search is
        exhausted.  A step is accepted only if it lowers the residual
        norm (or reaches tol), so the last iterate is also the best.
        iterations counts the Newton steps taken: ``max_iter`` when the
        budget ran out, fewer when the Jacobian or the line search
        stopped the solve early.
    """
    x = np.asarray(x0, dtype=float).copy()
    f = np.asarray(fun(x), dtype=float)
    fnorm = _norm(f)
    message = "iteration budget exhausted"

    for it in range(max_iter):
        if fnorm <= tol:
            return NewtonResult(x, f, fnorm, True, it, "converged")
        h = float(step_scale(x)) if step_scale is not None else 1e-6
        jac = _jacobian(fun, x, f, h)
        if jac is None or not np.all(np.isfinite(jac)):
            message = "Jacobian unavailable at the current iterate"
            break
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            message = "singular Jacobian"
            break
        lam = 1.0
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            trial = x + lam * step
            try:
                ftrial = np.asarray(fun(trial), dtype=float)
            except _FEASIBILITY_ERRORS:
                lam *= 0.5
                continue
            tnorm = _norm(ftrial)
            if not np.isfinite(tnorm):
                lam *= 0.5
                continue
            if tnorm < fnorm or tnorm <= tol:
                x, f, fnorm = trial, ftrial, tnorm
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            message = "line search stalled"
            break
    else:
        it = max_iter

    if fnorm <= tol:
        return NewtonResult(x, f, fnorm, True, it, "converged")
    return NewtonResult(x, f, fnorm, False, it, message)
