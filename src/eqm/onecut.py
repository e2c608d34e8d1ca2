"""One-band equilibrium measures: endpoint solve and density for g = 0.

The two endpoint equations are solved in anchored offsets around the
global minimizer of V (see ``anchored``); this module supplies the
g = 0 residual pair, its Jacobian and the density sampler.  The pair
is f2, the band integral of V', and f1 = sqrt(m) - 1/sqrt(pi), m =
(1/pi) int (mu - mid) V'/sqrt((u1-mu)(mu-u2)) dmu: Chebyshev band means
(Deift, Kriecherbauer & McLaughlin 1998), m = (2 half)^2 dPsi_0/du_2.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import anchored
from .density import Band, DensityTable
from .epd import phi0_band
from .quadrature import field_band_integral_delta, field_band_integral_partials_delta
from .rhp import band_factor_coeffs

__all__ = ["solve_endpoints", "density"]


def _residual_fun(field, lf):
    return anchored.moment_residual(
        functools.partial(field_band_integral_delta, lf),
        functools.partial(field_band_integral_partials_delta, lf), 1.0 / math.pi)


def _psi_values(lf, dm, half, dxi):
    """psi = 2 sqrt((u1-xi)(xi-u2)) Phi_0(xi): Phi_0 in closed form for a
    polynomial field, else by one principal-value call over all nodes."""
    d1 = dm + half
    d2 = dm - half
    rad = (d1 - dxi) * (dxi - d2)
    if lf.field.is_polynomial:
        phi = np.polynomial.polynomial.polyval(dxi, band_factor_coeffs(lf, (d1, d2)))
    else:
        phi = phi0_band(lf, d1, d2, dxi)
    return 2.0 * np.sqrt(np.maximum(rad, 0.0)) * phi


def _table(lo, hi, psis):
    return DensityTable(bands=[Band.from_angles(lo, hi, psis)])


_ANSATZ = anchored.Ansatz(_residual_fun, _psi_values, _table, mirror=False,
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

    psi = 2 sqrt((u1-xi)(xi-u2)) Phi_0(xi).  For a polynomial field
    Phi_0 is a polynomial in closed form (``rhp.band_factor_coeffs``);
    otherwise it comes from its principal-value form (``epd.phi0_band``)
    at every node.  The result carries the Lagrange constant L(psi) - V
    at the band midpoint.

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
