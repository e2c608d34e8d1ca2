"""Symmetric two-band equilibrium measures for even fields (g = 1).

The support is [-u1, -u2] u [u2, u1]; evenness reduces the four
endpoint equations to two, solved in anchored offsets around the
positive well of V (see ``anchored``).  This module supplies the g = 1
residual pair, its Jacobian and the mirrored table; the right band's
density is sampled by ``anchored`` through ``rhp.band_factor``.  The pair is the one-band pair of 2 W(x), V(mu) =
W(mu^2), on the right band: f2 = int V'/sqrt((u1^2-mu^2)(mu^2-u2^2)),
f1 = sqrt(m) - 1/sqrt(pi) with m = (2/pi) int (mu^2 - (u1^2 + u2^2)/2)
V'/sqrt(...) = (2 half)^2 2 (u1 + u2) dPsi_1/du_2.
"""

from __future__ import annotations

import functools
import math

from . import anchored
from .density import Band, DensityTable
from .errors import InvalidInterval, NotEven
from .field import LONG
from .quadrature import (field_symmetric_band_integral_delta,
                         field_symmetric_band_integral_partials_delta)

__all__ = ["solve_endpoints_symmetric", "density_symmetric"]


def _residual_fun(field, lf):
    anchor = lf.center_long

    def integrals(d1, d2):
        if not anchor + LONG(d2) > 0.0:
            raise InvalidInterval("inner endpoint must stay positive")
        return field_symmetric_band_integral_delta(lf, d1, d2)

    return anchored.moment_residual(
        integrals, functools.partial(field_symmetric_band_integral_partials_delta, lf),
        2.0 / math.pi)


def _mirrored_table(lo, hi, psis):
    right = Band.from_angles(lo, hi, psis)
    left = Band(-hi, -lo, (-right.xs[::-1]).copy(), right.psis[::-1].copy())
    return DensityTable(bands=[left, right])


_ANSATZ = anchored.Ansatz(_residual_fun, _mirrored_table, mirror=True,
                          name="two-band", mass_name="total")


def solve_endpoints_symmetric(field, tol=1e-10, max_iter=100):
    """Solve the symmetric two-band endpoint equations by damped Newton.

    The seed brackets the positive well of V with the local harmonic
    width.

    Parameters
    ----------
    field : FieldSpec
        Must be even (structurally) and satisfy the growth condition.
    tol : float
        Convergence threshold on the max-norm of the residual pair.

    Returns
    -------
    AnchoredSolution
        Positive-band endpoints 0 < u2 < u1, mirror True: the support is
        [-u1, -u2] u [u2, u1] and anchor/dm/half describe the right band.

    Raises
    ------
    NotEven
        If any field term is odd.
    """
    if not field.is_even:
        raise NotEven("symmetric two-band solve requires an even field")
    return anchored.solve(_ANSATZ, field, tol, max_iter)


def density_symmetric(sol, field, grid_n):
    """Two-band equilibrium density, sampled and mirrored exactly.

    The right band carries grid_n Chebyshev samples of psi =
    2 sqrt((u1^2-xi^2)(xi^2-u2^2)) Phi_1(xi), with Phi_1 from
    ``rhp.band_factor`` on all four edges: a closed-form polynomial for a
    polynomial field, else principal values of V' over both bands at
    every node.  The left band is the right one's exact mirror image, so
    psi(-xi) = psi(xi) holds identically.

    Raises
    ------
    NegativeDensity
        If any sample falls below -1e-6 (ansatz-violation signal).
    PrecisionLoss
        If the total quadrature mass strays from 1 by more than 1e-8.
    """
    return anchored.density(_ANSATZ, sol, field, grid_n)
