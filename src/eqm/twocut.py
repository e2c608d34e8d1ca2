"""Symmetric two-band equilibrium measures for even fields (g = 1).

The support is [-u1, -u2] u [u2, u1]; evenness reduces the four
endpoint equations to two, solved in anchored offsets around the
positive well of V (see ``anchored``).  This module supplies the g = 1
residual pair, the right-band density sampler and the mirrored table.
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
from .quadrature import field_symmetric_band_integral_delta

__all__ = ["solve_endpoints_symmetric", "density_symmetric"]


def _residual_fun(field, lf):
    spec = EpdSpec(1, "psi", field)
    anchor = lf.center_long
    # (u1; u1, u2, -u2, -u1) spans [-u1, u1]: centred at 0 for every iterate
    mirror_lf = LocalField(field, -1.0, 1.0, center=0.0)

    def pair(dm, half):
        u1, u2 = endpoints_long(anchor, dm, half)
        if not u2 > 0.0:
            raise InvalidInterval("inner endpoint must stay positive")
        uvec = np.array([u1, u2, -u2, -u1], dtype=LONG)
        g2 = float(phi_eval_anchored(spec, mirror_lf, u1, uvec, slot=2))
        if not g2 > 0.0:
            raise NegativeRadicand("dPsi1/du2 is not positive at the iterate")
        s = 4.0 * float(anchor + LONG(dm))  # 2 (u1 + u2)
        f1 = 2.0 * half * math.sqrt(s) * math.sqrt(g2) - INV_SQRT_PI
        f2 = float(field_symmetric_band_integral_delta(lf, dm + half, dm - half))
        return f1, f2

    return pair


def _psi_values_right(lf, dm, half, dxi):
    """Right-band psi = 2 sqrt((u1^2-xi^2)(xi^2-u2^2)) Phi_1(xi), Phi_1
    by one principal-value call over all nodes."""
    d1 = dm + half
    d2 = dm - half
    twoc = float(2.0 * lf.center_long)
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
    2 sqrt((u1^2-xi^2)(xi^2-u2^2)) Phi_1(xi), with Phi_1 from its
    principal-value form (``epd.phi1_symmetric_band``) at every node;
    the left band is its exact mirror image, so psi(-xi) = psi(xi)
    holds identically.

    Raises
    ------
    NegativeDensity
        If any sample falls below -1e-6 (ansatz-violation signal).
    PrecisionLoss
        If the total quadrature mass strays from 1 by more than 1e-8.
    """
    return anchored.density(_ANSATZ, sol, field, grid_n)
