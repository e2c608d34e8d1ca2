"""Symmetric two-band equilibrium measures for even fields (g = 1).

The support is [-u1, -u2] u [u2, u1]; evenness reduces the four
endpoint equations to two, solved in anchored offsets around the
positive well of V (see ``anchored``).  This module supplies the g = 1
residual pair, its Jacobian, the right-band density sampler and the
mirrored table.
"""

from __future__ import annotations

import math

import numpy as np

from . import anchored
from .anchored import INV_SQRT_PI, endpoints_long
from .density import Band, DensityTable
from .epd import EpdSpec, phi1_symmetric_band, phi_eval_anchored
from .errors import InvalidInterval, NegativeRadicand, NotEven
from .field import LONG, LocalField
from .quadrature import (field_symmetric_band_integral_delta,
                         field_symmetric_band_integral_partials_delta)
from .rhp import band_factor_coeffs

__all__ = ["solve_endpoints_symmetric", "density_symmetric"]


def _residual_fun(field, lf):
    spec = EpdSpec(1, "psi", field)
    anchor = lf.center_long
    # (u1; u1, u2, -u2, -u1) spans [-u1, u1]: centred at 0 for every iterate
    mirror_lf = LocalField(field, -1.0, 1.0, center=0.0)

    def slope_args(dm, half):
        u1, u2 = endpoints_long(anchor, dm, half)
        return u1, np.array([u1, u2, -u2, -u1], dtype=LONG)

    def pair(dm, half):
        u1, uvec = slope_args(dm, half)
        if not uvec[1] > 0.0:
            raise InvalidInterval("inner endpoint must stay positive")
        g2 = float(phi_eval_anchored(spec, mirror_lf, u1, uvec, slot=2))
        if not g2 > 0.0:
            raise NegativeRadicand("dPsi1/du2 is not positive at the iterate")
        s = 4.0 * float(anchor + LONG(dm))  # 2 (u1 + u2)
        f1 = 2.0 * half * math.sqrt(s) * math.sqrt(g2) - INV_SQRT_PI
        f2 = float(field_symmetric_band_integral_delta(lf, dm + half, dm - half))
        return f1, f2

    def jacobian(dm, half):
        # g2 sees (xi; u) = (u1; u1, u2, -u2, -u1): d/d dm moves the five
        # slots by (1, 1, 1, -1, -1), d/d half by (1, 1, -1, 1, -1)
        u1, uvec = slope_args(dm, half)
        g2, h = phi_eval_anchored(spec, mirror_lf, u1, uvec, slot=2, second=True)
        dg_dm = h[0] + h[1] + h[2] - h[3] - h[4]
        dg_dhalf = h[0] + h[1] - h[2] + h[3] - h[4]
        # f1 = 2 half rs root - 1/sqrt(pi), rs^2 = s moving by 4 along dm
        root, rs = math.sqrt(float(g2)), math.sqrt(4.0 * float(anchor + LONG(dm)))
        f1 = [2.0 * half * (2.0 * root / rs + rs * dg_dm / (2.0 * root)),
              2.0 * rs * root + half * rs * dg_dhalf / root]
        f2 = field_symmetric_band_integral_partials_delta(lf, dm + half, dm - half)
        return [f1, f2]

    return pair, jacobian


def _psi_values_right(lf, dm, half, dxi):
    """Right-band psi = 2 sqrt((u1^2-xi^2)(xi^2-u2^2)) Phi_1(xi): Phi_1 in
    closed form for a polynomial field, its roots in offsets d1, d2 and
    the mirror band's -2a - d2, -2a - d1; else by one principal-value
    call over all nodes."""
    d1 = dm + half
    d2 = dm - half
    twoc = float(2.0 * lf.center_long)
    if lf.field.is_polynomial:
        a2 = -2.0 * lf.center_long
        coeffs = band_factor_coeffs(lf, (d1, d2, a2 - d2, a2 - d1))
        phi = np.polynomial.polynomial.polyval(dxi, coeffs)
    else:
        phi = phi1_symmetric_band(lf, d1, d2, dxi)
    rad = (d1 - dxi) * (dxi - d2)
    plus_xi = (twoc + dxi + d1) * (twoc + dxi + d2)
    return 2.0 * np.sqrt(np.maximum(rad, 0.0) * plus_xi) * phi


def _mirrored_table(lo, hi, psis):
    right = Band.from_angles(lo, hi, psis)
    left = Band(-hi, -lo, (-right.xs[::-1]).copy(), right.psis[::-1].copy())
    return DensityTable(bands=[left, right])


_ANSATZ = anchored.Ansatz(_residual_fun, _psi_values_right, _mirrored_table,
                          mirror=True, name="two-band", mass_name="total")


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
    2 sqrt((u1^2-xi^2)(xi^2-u2^2)) Phi_1(xi).  For a polynomial field
    Phi_1 is a polynomial in closed form (``rhp.band_factor_coeffs``);
    otherwise it comes from its principal-value form
    (``epd.phi1_symmetric_band``) at every node.  The left band is the
    right one's exact mirror image, so psi(-xi) = psi(xi) holds
    identically.

    Raises
    ------
    NegativeDensity
        If any sample falls below -1e-6 (ansatz-violation signal).
    PrecisionLoss
        If the total quadrature mass strays from 1 by more than 1e-8.
    """
    return anchored.density(_ANSATZ, sol, field, grid_n)
