"""One-band equilibrium measures: endpoint solve and density for g = 0.

The two endpoint equations are solved in anchored offsets around the
global minimizer of V (see ``anchored``); this module supplies the
g = 0 residual pair, its Jacobian and the one-band table; the
density is sampled by ``anchored`` through ``rhp.band_factor``.  The pair
is f2, the band integral of V', and f1 = sqrt(m) - 1/sqrt(pi), m =
(1/pi) int (mu - mid) V'/sqrt((u1-mu)(mu-u2)) dmu: Chebyshev band means
(Deift, Kriecherbauer & McLaughlin 1998), m = (2 half)^2 dPsi_0/du_2.
"""

from __future__ import annotations

import functools
import math

from . import anchored
from .density import Band, DensityTable
from .quadrature import field_band_integral_delta, field_band_integral_partials_delta

__all__ = ["solve_endpoints", "density"]


def _residual_fun(field, lf):
    return anchored.moment_residual(
        functools.partial(field_band_integral_delta, lf),
        functools.partial(field_band_integral_partials_delta, lf), 1.0 / math.pi)


def _table(lo, hi, psis):
    return DensityTable(bands=[Band.from_angles(lo, hi, psis)])


_ANSATZ = anchored.Ansatz(_residual_fun, _table, mirror=False,
                          name="one-band", mass_name="band")


def solve_endpoints(field, tol=1e-10, max_iter=100):
    """Solve the two one-band endpoint equations by damped Newton.

    The seed brackets the global minimizer of V with the local harmonic
    width.

    Parameters
    ----------
    field : FieldSpec
        Must satisfy the growth condition (see validate_growth).
    tol : float
        Convergence threshold on the max-norm of the residual pair.

    Returns
    -------
    AnchoredSolution
        u2 < u1, mirror False; converged False (with the best iterate)
        when Newton stalls or the band collapses below 1e-12 relative width.
    """
    return anchored.solve(_ANSATZ, field, tol, max_iter)


def density(sol, field, grid_n):
    """Equilibrium density on [u2, u1] sampled at Chebyshev nodes.

    psi = 2 sqrt((u1-xi)(xi-u2)) Phi_0(xi), with Phi_0 from
    ``rhp.band_factor``: a closed-form polynomial for a polynomial
    field, else a principal value of V' over the band at every node.
    The result carries the Lagrange constant L(psi) - V at the band
    midpoint.

    Raises
    ------
    NegativeDensity
        If any sample falls below -1e-6 (wrong-ansatz signal); smaller
        negative roundoff is clamped to zero.
    PrecisionLoss
        If the quadrature mass of the samples strays from 1 by more
        than 1e-8.
    """
    return anchored.density(_ANSATZ, sol, field, grid_n)
