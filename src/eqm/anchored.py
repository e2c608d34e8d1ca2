"""Anchored Newton solve and Chebyshev sampling shared by both ansätze.

Endpoints are carried as u1 = anchor + dm + half, u2 = anchor + dm -
half, with the anchor frozen in extended precision at the well of V.
Deep wells push the support width many orders of magnitude below its
location; keeping the Newton unknowns (dm, half) as small offsets lets
the residuals resolve far below what a single rounded float per
endpoint allows.  An ``Ansatz`` record supplies what differs between
the one-band and the mirrored two-band construction; its density
sampler takes Phi from the principal-value kernels of ``epd`` at every
Chebyshev node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .density import chebyshev_angles
from .errors import InvalidInterval, NegativeDensity, PrecisionLoss
from .field import LONG, LocalField
from .newton import damped_newton
from .wells import global_minimizer

INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_COLLAPSE = 1e-12
_LAGRANGE_GRID = 201


@dataclass
class AnchoredSolution:
    """Band endpoints u2 < u1 with solve diagnostics.

    anchor/dm/half record the split-precision form u1 = anchor+dm+half,
    u2 = anchor+dm-half the solver worked in; density evaluation reuses
    it so narrow bands keep their full relative resolution.  iterations
    and message are the Newton step count and stop reason
    (``NewtonResult``).
    """

    u1: float
    u2: float
    converged: bool
    residual_norm: float
    anchor: object = None
    dm: float = 0.0
    half: float = 0.0
    iterations: int = 0
    message: str = ""
    _lagrange: Callable = dc_field(default=None, repr=False, compare=False)

    @cached_property
    def lagrange_l(self):
        """L(psi) - V at the band midpoint, nan unless converged.

        Computed on first read, from a density sampled in the solve's
        own local expansion: a sweep row never reads it.
        """
        return math.nan if self._lagrange is None else self._lagrange()


@dataclass(frozen=True)
class Ansatz:
    """What a band shape supplies: residual(field, lf) -> pair(dm, half)
    of endpoint residuals; psi(lf, dm, half, dxi) -> density at offsets
    dxi inside the band; table(lo, hi, psis); mirror, for the positive
    band of a mirror pair (u2 > 0); the words of its density errors; the
    AnchoredSolution subclass it returns."""

    residual: Callable
    psi: Callable
    table: Callable
    mirror: bool
    name: str
    mass_name: str
    solution: type


def endpoints_long(anchor, dm, half):
    """(u1, u2) in extended precision."""
    u1 = anchor + LONG(dm) + LONG(half)
    u2 = anchor + LONG(dm) - LONG(half)
    return u1, u2


def _prepare(field, center, dm, half):
    """Local expansion around center covering the working band.

    Returns the LocalField and dm re-expressed against its center (the
    two differ only when absolute-power terms force direct evaluation).
    """
    cf = float(center)
    r = max(8.0 * (abs(dm) + half), 1e-3 * max(1.0, abs(cf)))
    lf = LocalField(field, cf - r, cf + r, max_order=4, center=center)
    dm2 = float(LONG(center) + LONG(dm) - lf.center_long)
    return lf, dm2


def _split(sol):
    """Anchored coordinates of a solution, reconstructed if absent."""
    if sol.anchor is not None:
        return LONG(sol.anchor), float(sol.dm), float(sol.half)
    mid = 0.5 * (LONG(sol.u1) + LONG(sol.u2))
    half = float(0.5 * (LONG(sol.u1) - LONG(sol.u2)))
    return mid, 0.0, half


def _seed(ansatz, field, guess):
    """Well, starting midpoint and half width."""
    well, vpp = global_minimizer(field, positive=ansatz.mirror)
    if guess is not None:
        u1g, u2g = float(guess[0]), float(guess[1])
        if ansatz.mirror and not 0.0 < u2g < u1g:
            raise InvalidInterval("guess must satisfy 0 < u2 < u1")
        if not u1g > u2g:
            raise InvalidInterval("guess must be ordered with u1 > u2")
        mid = 0.5 * (LONG(u1g) + LONG(u2g))
        return well, mid, float(0.5 * (LONG(u1g) - LONG(u2g)))
    if vpp > 0.0:
        half0 = 1.0 / math.sqrt(math.pi * vpp)
    elif ansatz.mirror:
        half0 = 0.05 * float(well)
    else:
        half0 = 0.5 * max(1.0, abs(float(well)))
    if ansatz.mirror:
        half0 = min(half0, 0.9 * float(well))
    return well, well, half0


def solve(ansatz, field, guess, tol, max_iter):
    """Solve the ansatz's endpoint pair by damped Newton in (dm, half).

    Without a guess the seed brackets the well of V (the positive one
    for a mirror pair) with the local harmonic width.  converged is
    False, with the best iterate, when Newton stalls or the band
    collapses below 1e-12 relative width.
    """
    well, mid, half0 = _seed(ansatz, field, guess)
    lf, dm0 = _prepare(field, well, float(mid - well), half0)
    anchor = lf.center_long
    af = abs(float(anchor))
    pair = ansatz.residual(field, lf)

    def fun(x):
        dm, half = float(x[0]), float(x[1])
        if not half > 0.0:
            raise InvalidInterval("half width must be positive")
        return np.array(pair(dm, half))

    def validate(x):
        dm, half = float(x[0]), float(x[1])
        if not half > 0.0:
            return False
        if ansatz.mirror and not float(anchor + LONG(dm) - LONG(half)) > 0.0:
            return False
        return 2.0 * half >= _COLLAPSE * max(1.0, af + abs(dm) + half)

    def step_scale(x):
        dm, half = float(x[0]), float(x[1])
        umax = af + abs(dm) + abs(half)
        return 1e-6 * max(2.0 * abs(half), 1e-6 * max(1.0, umax))

    res = damped_newton(fun, np.array([dm0, half0]), tol=tol,
                        max_iter=max_iter, step_scale=step_scale,
                        validate=validate)
    dm, half = float(res.x[0]), float(res.x[1])
    u1, u2 = endpoints_long(anchor, dm, half)
    lagrange = None
    if res.converged:
        lagrange = partial(_solve_lagrange, ansatz, field, lf, dm, half)
    return ansatz.solution(float(u1), float(u2), res.converged,
                           res.residual_norm, anchor=anchor, dm=dm, half=half,
                           iterations=res.iterations, message=res.message,
                           _lagrange=lagrange)


def _solve_lagrange(ansatz, field, lf, dm, half):
    """Lagrange constant of a _LAGRANGE_GRID-node density sampled in lf.

    lf is the expansion the solve itself worked in: the one _local()
    rebuilds is sized from the final (dm, half), not the seed, and
    moves the last bits.
    """
    psis = _sample(ansatz, lf, dm, half, _LAGRANGE_GRID)
    return _lagrange(_table(ansatz, lf, dm, half, psis), field, lf, dm)


def _sample(ansatz, lf, dm, half, n):
    """Density at the band's first-kind Chebyshev nodes, by ascending angle."""
    dxi = dm + half * np.cos(chebyshev_angles(n))
    return ansatz.psi(lf, dm, half, dxi)


def _table(ansatz, lf, dm, half, psis):
    u1, u2 = endpoints_long(lf.center_long, dm, half)
    return ansatz.table(float(u2), float(u1), psis)


def _local(sol, field):
    """LocalField and anchored (dm, half) that density() samples in."""
    anchor, dm, half = _split(sol)
    lf, dm = _prepare(field, anchor, dm, half)
    return lf, dm, half


def support(sol, field):
    """Descending edges (u1, u2) of the one-band table density() builds
    for sol, found without sampling it."""
    lf, dm, half = _local(sol, field)
    return tuple(float(u) for u in endpoints_long(lf.center_long, dm, half))


def _lagrange(table, field, lf, dm):
    """L(psi) - V at the band midpoint."""
    mid = float(lf.center_long + LONG(dm))
    return table.log_potential(mid) - float(field.eval(mid, 0))


def density(ansatz, sol, field, grid_n):
    """Sampled density table of a converged solution.

    Samples below -1e-6 raise NegativeDensity (wrong-ansatz signal);
    smaller negative roundoff is clamped to zero.  A quadrature mass
    straying from 1 by more than 1e-8 raises PrecisionLoss.
    """
    if not sol.converged:
        raise ValueError("density requires a converged solution")
    lf, dm, half = _local(sol, field)
    psis = _sample(ansatz, lf, dm, half, int(grid_n))
    low = float(np.min(psis))
    if low < -1e-6:
        raise NegativeDensity(
            f"density reaches {low:.3e}; {ansatz.name} ansatz violated")
    table = _table(ansatz, lf, dm, half, np.maximum(psis, 0.0))
    mass = table.mass()
    if abs(mass - 1.0) > 1e-8:
        raise PrecisionLoss(f"{ansatz.mass_name} mass {mass:.12f} deviates from 1")
    table.lagrange_l = _lagrange(table, field, lf, dm)
    return table
