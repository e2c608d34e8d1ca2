"""One-band equilibrium measures: endpoint solve and density for g = 0.

The two endpoint equations are solved in anchored offsets around the
global minimizer of V (see ``anchored``); this module supplies the
g = 0 residual pair and density sampler.
"""

from __future__ import annotations

import math

import numpy as np

from . import anchored
from .anchored import INV_SQRT_PI, AnchoredSolution
from .density import Band, DensityTable
from .epd import EpdSpec, phi0_band, phi_slope_anchored
from .errors import NegativeRadicand
from .field import LONG
from .quadrature import field_band_integral_delta
from .rhp import EndpointVector

__all__ = ["OneCutSolution", "solve_endpoints", "density", "support"]


class OneCutSolution(AnchoredSolution):
    """Support endpoints u2 < u1 with solve diagnostics."""

    def endpoint_vector(self):
        if self.anchor is not None:
            return EndpointVector.pair_anchored(
                self.anchor, self.dm + self.half, self.dm - self.half
            )
        return EndpointVector.pair(self.u1, self.u2)


def _residual_fun(field, lf):
    spec = EpdSpec(0, "psi", field)

    def pair(dm, half):
        d1 = dm + half
        d2 = dm - half
        g2 = float(phi_slope_anchored(spec, lf, d1, (d1, d2), slot=2))
        if not g2 > 0.0:
            raise NegativeRadicand("dPsi0/du2 is not positive at the iterate")
        f1 = 2.0 * half * math.sqrt(g2) - INV_SQRT_PI
        f2 = float(field_band_integral_delta(lf, d1, d2, order=1, dtype=LONG))
        return f1, f2

    return pair


def _psi_values(lf, dm, half, dxi):
    """psi = 2 sqrt((u1-xi)(xi-u2)) Phi_0(xi), Phi_0 by one
    principal-value call over all nodes."""
    d1 = dm + half
    d2 = dm - half
    rad = (d1 - dxi) * (dxi - d2)
    return 2.0 * np.sqrt(np.maximum(rad, 0.0)) * phi0_band(lf, d1, d2, dxi)


def _table(lo, hi, psis):
    return DensityTable(bands=[Band.from_angles(lo, hi, psis)])


_ANSATZ = anchored.Ansatz(_residual_fun, _psi_values, _table, mirror=False,
                          name="one-band", mass_name="band",
                          solution=OneCutSolution)


def solve_endpoints(field, guess=None, tol=1e-10, max_iter=100):
    """Solve the two one-band endpoint equations by damped Newton.

    Parameters
    ----------
    field : FieldSpec
        Must satisfy the growth condition (see validate_growth).
    guess : (u1, u2), optional
        Ordered starting endpoints; without it the seed brackets the
        global minimizer of V with the local harmonic width.
    tol : float
        Convergence threshold on the max-norm of the residual pair.

    Returns
    -------
    OneCutSolution
        converged False (with the best iterate) when Newton stalls or
        the band collapses below 1e-12 relative width.
    """
    return anchored.solve(_ANSATZ, field, guess, tol, max_iter)


def density(sol, field, grid_n):
    """Equilibrium density on [u2, u1] sampled at Chebyshev nodes.

    psi = 2 sqrt((u1-xi)(xi-u2)) Phi_0(xi), with Phi_0 from its
    principal-value form (``epd.phi0_band``) at every node.  The result
    carries the Lagrange constant L(psi) - V at the band midpoint.

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


def support(sol, field):
    """Descending edges (u1, u2) of the band density() tabulates."""
    return anchored.support(sol, field)
