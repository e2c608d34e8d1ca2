"""One-band equilibrium measures: endpoint solve and density for g = 0.

The two endpoint equations are solved in anchored offsets around the
global minimizer of V (see ``anchored``); this module supplies the
g = 0 residual pair, its Jacobian and the density sampler.
"""

from __future__ import annotations

import math

import numpy as np

from . import anchored
from .anchored import INV_SQRT_PI
from .density import Band, DensityTable
from .epd import EpdSpec, phi0_band, phi_eval_anchored
from .errors import NegativeRadicand
from .quadrature import field_band_integral_delta, field_band_integral_partials_delta
from .rhp import band_factor_coeffs

__all__ = ["solve_endpoints", "density"]


def _residual_fun(field, lf):
    spec = EpdSpec(0, "psi", field)

    def pair(dm, half):
        d1 = dm + half
        d2 = dm - half
        g2 = float(phi_eval_anchored(spec, lf, d1, (d1, d2), slot=2))
        if not g2 > 0.0:
            raise NegativeRadicand("dPsi0/du2 is not positive at the iterate")
        f1 = 2.0 * half * math.sqrt(g2) - INV_SQRT_PI
        f2 = float(field_band_integral_delta(lf, d1, d2))
        return f1, f2

    def jacobian(dm, half):
        # g2 sees (xi, u1, u2) = (d1, d1, d2): d/d dm moves all three
        # slots by 1, d/d half moves them by (1, 1, -1)
        d1 = dm + half
        d2 = dm - half
        g2, h = phi_eval_anchored(spec, lf, d1, (d1, d2), slot=2, second=True)
        dg_dm, dg_dhalf = h[0] + h[1] + h[2], h[0] + h[1] - h[2]
        # f1 = 2 half root - 1/sqrt(pi)
        root = math.sqrt(float(g2))
        f1 = [half * dg_dm / root, 2.0 * root + half * dg_dhalf / root]
        return [f1, field_band_integral_partials_delta(lf, d1, d2)]

    return pair, jacobian


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
