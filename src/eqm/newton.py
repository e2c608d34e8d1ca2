"""Damped Newton iteration for the 2x2 endpoint systems.

The caller supplies the residual and its Jacobian; no derivative is
taken by differences here.  The residual may raise a feasibility error
(NegativeRadicand, InvalidInterval, DomainError) at points outside the
domain of the square-root equations; that is the only way a point is
rejected.  The line search treats it exactly like a residual increase
and halves the step.  The Jacobian is only asked for at iterates whose
residual was evaluated; if it raises a feasibility error there (a
derivative of a non-smooth field that does not exist), or is not
finite, the solve stops.  An infeasible starting point propagates the
error to the caller.  A converged solve takes one full step more, so
its result sits at the residual's rounding floor, not at the stopping
tolerance; an infeasible or worse final step is dropped.
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


def damped_newton(fun, x0, tol, max_iter, jac):
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
    jac : callable
        x -> the (n, n) Jacobian of fun at x, row per residual.

    Returns
    -------
    NewtonResult
        converged is False when the budget or the line search is
        exhausted.  A step is accepted only if it lowers the residual
        norm (or reaches tol), so the last iterate is also the best.
        Once the norm is at most tol, one more full step is taken and
        kept unless the norm rises.  iterations does not count that
        final step; it counts the Newton steps taken before it:
        ``max_iter`` when the budget ran out, fewer when the Jacobian or
        the line search stopped the solve early.
    """
    x = np.asarray(x0, dtype=float).copy()
    f = np.asarray(fun(x), dtype=float)
    fnorm = _norm(f)
    message = "iteration budget exhausted"

    for it in range(max_iter):
        if fnorm <= tol:
            break
        try:
            jmat = np.asarray(jac(x), dtype=float)
        except _FEASIBILITY_ERRORS:  # a derivative that does not exist here
            jmat = None
        if jmat is None or not np.all(np.isfinite(jmat)):
            message = "Jacobian unavailable at the current iterate"
            break
        try:
            step = np.linalg.solve(jmat, -f)
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
        # a Jacobian that is not finite makes a non-finite trial: dropped
        try:
            trial = x + np.linalg.solve(np.asarray(jac(x), dtype=float), -f)
            ftrial = np.asarray(fun(trial), dtype=float)
            if _norm(ftrial) <= fnorm:
                x, f, fnorm = trial, ftrial, _norm(ftrial)
        except (*_FEASIBILITY_ERRORS, np.linalg.LinAlgError):
            pass
        return NewtonResult(x, f, fnorm, True, it, "converged")
    return NewtonResult(x, f, fnorm, False, it, message)
