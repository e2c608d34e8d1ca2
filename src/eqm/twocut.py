"""Symmetric two-band equilibrium measures for even fields (g = 1).

The support is [-u1, -u2] u [u2, u1]; evenness reduces the four
endpoint equations to two, solved in anchored offset coordinates
(dm, half) around the positive well of V: u1 = anchor + dm + half,
u2 = anchor + dm - half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import Band, DensityTable, chebyshev_angles
from .epd import EpdSpec, phi_eval, phi_eval_grad
from .errors import (
    InvalidInterval,
    NegativeDensity,
    NegativeRadicand,
    NotEven,
    PrecisionLoss,
)
from .field import LONG, LocalField
from .newton import damped_newton
from .quadrature import (
    field_symmetric_band_integral_delta,
    pv_band_integral_delta,
)
from .rhp import EndpointVector
from .wells import global_minimizer

__all__ = ["TwoCutSolution", "solve_endpoints_symmetric", "density_symmetric"]

_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_MAX_ITER = 100
_COLLAPSE = 1e-12
_EDGE_WINDOW = 1e-6  # band widths; the tensor evaluator takes over inside


@dataclass
class TwoCutSolution:
    """Positive-band endpoints 0 < u2 < u1 with solve diagnostics.

    The support is the mirror pair [-u1, -u2] u [u2, u1]; anchor/dm/half
    record the split-precision form u1 = anchor+dm+half, u2 =
    anchor+dm-half of the right band.
    """

    u1: float
    u2: float
    lagrange_l: float
    converged: bool
    residual_norm: float
    anchor: object = None
    dm: float = 0.0
    half: float = 0.0

    def endpoint_vector(self):
        if self.anchor is not None:
            return EndpointVector.symmetric_anchored(
                self.anchor, self.dm + self.half, self.dm - self.half
            )
        return EndpointVector.symmetric(self.u1, self.u2)


def _prepare(field, center, dm, half):
    """Local expansion of V around the positive-band center."""
    cf = float(center)
    r = max(8.0 * (abs(dm) + half), 1e-3 * max(1.0, abs(cf)))
    lf = LocalField(field, cf - r, cf + r, max_order=4, center=center)
    dm2 = float(LONG(center) + LONG(dm) - lf.center_long)
    return lf, dm2


def _split(sol):
    if sol.anchor is not None:
        return LONG(sol.anchor), float(sol.dm), float(sol.half)
    mid = 0.5 * (LONG(sol.u1) + LONG(sol.u2))
    half = float(0.5 * (LONG(sol.u1) - LONG(sol.u2)))
    return mid, 0.0, half


def _endpoints_long(anchor, dm, half):
    u1 = anchor + LONG(dm) + LONG(half)
    u2 = anchor + LONG(dm) - LONG(half)
    return u1, u2


def _residual_fun(field, lf):
    spec = EpdSpec(1, "psi", field)
    anchor = lf.center_long

    def fun(x):
        dm, half = float(x[0]), float(x[1])
        if not half > 0.0:
            raise InvalidInterval("half width must be positive")
        u1, u2 = _endpoints_long(anchor, dm, half)
        if not u2 > 0.0:
            raise InvalidInterval("inner endpoint must stay positive")
        uvec = np.array([u1, u2, -u2, -u1], dtype=LONG)
        _, grads = phi_eval_grad(spec, u1, uvec)
        g2 = float(grads[2])
        if not g2 > 0.0:
            raise NegativeRadicand("dPsi1/du2 is not positive at the iterate")
        s = 4.0 * float(anchor + LONG(dm))  # 2 (u1 + u2)
        f1 = 2.0 * half * math.sqrt(s) * math.sqrt(g2) - _INV_SQRT_PI
        f2 = float(
            field_symmetric_band_integral_delta(
                lf, dm + half, dm - half, order=1, dtype=LONG
            )
        )
        return np.array([f1, f2])

    return fun


def solve_endpoints_symmetric(field, guess=None, tol=1e-10, max_iter=_MAX_ITER):
    """Solve the symmetric two-band endpoint equations by damped Newton.

    Parameters
    ----------
    field : FieldSpec
        Must be even (structurally) and satisfy the growth condition.
    guess : (u1, u2), optional
        Ordered positive starting endpoints; without it the seed
        brackets the positive well of V with the local harmonic width.
    tol : float
        Convergence threshold on the max-norm of the residual pair.

    Returns
    -------
    TwoCutSolution

    Raises
    ------
    NotEven
        If any field term is odd.
    """
    if not field.is_even:
        raise NotEven("symmetric two-band solve requires an even field")
    well, vpp = global_minimizer(field, positive=True)
    if guess is not None:
        u1g, u2g = float(guess[0]), float(guess[1])
        if not 0.0 < u2g < u1g:
            raise InvalidInterval("guess must satisfy 0 < u2 < u1")
        mid = 0.5 * (LONG(u1g) + LONG(u2g))
        half0 = float(0.5 * (LONG(u1g) - LONG(u2g)))
    else:
        mid = well
        if vpp > 0.0:
            half0 = 1.0 / math.sqrt(math.pi * vpp)
        else:
            half0 = 0.05 * float(well)
        half0 = min(half0, 0.9 * float(well))
    lf, dm0 = _prepare(field, well, float(mid - well), half0)
    anchor = lf.center_long
    af = abs(float(anchor))
    fun = _residual_fun(field, lf)

    def validate(x):
        dm, half = float(x[0]), float(x[1])
        if not half > 0.0:
            return False
        if not float(anchor + LONG(dm) - LONG(half)) > 0.0:
            return False
        return 2.0 * half >= _COLLAPSE * max(1.0, af + abs(dm) + half)

    def step_scale(x):
        dm, half = float(x[0]), float(x[1])
        umax = af + abs(dm) + abs(half)
        return 1e-6 * max(2.0 * abs(half), 1e-6 * max(1.0, umax))

    res = damped_newton(
        fun,
        np.array([dm0, half0]),
        tol=tol,
        max_iter=max_iter,
        step_scale=step_scale,
        validate=validate,
    )
    dm, half = float(res.x[0]), float(res.x[1])
    u1l, u2l = _endpoints_long(anchor, dm, half)
    lagrange_l = math.nan
    if res.converged:
        psis = _psi_values_right(field, lf, dm, half, 201)
        table = _table_from_psis(lf, dm, half, psis)
        mid = float(anchor + LONG(dm))
        lagrange_l = table.log_potential(mid) - float(field.eval(mid, 0))
    return TwoCutSolution(
        float(u1l),
        float(u2l),
        lagrange_l,
        res.converged,
        res.residual_norm,
        anchor=anchor,
        dm=dm,
        half=half,
    )


def _psi_values_right(field, lf, dm, half, n):
    """Right-band density samples at Chebyshev nodes, by ascending angle.

    One principal-value call covers the interior nodes and one tensor
    call the nodes within the edge window.
    """
    spec = EpdSpec(1, "phi", field)
    anchor = lf.center_long
    d1 = dm + half
    d2 = dm - half
    twoc = float(2.0 * anchor)
    dxi = dm + half * np.cos(chebyshev_angles(n))
    edge = np.minimum(d1 - dxi, dxi - d2) < _EDGE_WINDOW * 2.0 * half
    phi = np.empty(n)
    if np.any(edge):
        u1l, u2l = _endpoints_long(anchor, dm, half)
        uvec = np.array([u1l, u2l, -u2l, -u1l], dtype=LONG)
        phi[edge] = phi_eval(spec, anchor + dxi[edge].astype(LONG), uvec)

    def gdelta(d, x):
        plus = (twoc + d + d1) * (twoc + d + d2)
        return lf.deriv(d, 1) / ((twoc + d + x) * np.sqrt(plus))

    inner = dxi[~edge]
    xi = (anchor + inner.astype(LONG)).astype(float)
    phi[~edge] = -(xi / math.pi) * pv_band_integral_delta(gdelta, d1, d2, inner)
    rad = (d1 - dxi) * (dxi - d2)
    plus_xi = (twoc + dxi + d1) * (twoc + dxi + d2)
    return 2.0 * np.sqrt(np.maximum(rad, 0.0) * plus_xi) * phi


def _table_from_psis(lf, dm, half, psis):
    anchor = lf.center_long
    u1l, u2l = _endpoints_long(anchor, dm, half)
    lo, hi = float(u2l), float(u1l)
    right = Band.from_angles(lo, hi, psis)
    left = Band(-hi, -lo, (-right.xs[::-1]).copy(), right.psis[::-1].copy())
    return DensityTable(bands=[left, right], lagrange_l=None)


def density_symmetric(sol, field, grid_n):
    """Two-band equilibrium density, sampled and mirrored exactly.

    The right band carries grid_n Chebyshev samples of psi =
    2 sqrt((u1^2-xi^2)(xi^2-u2^2)) Phi_1(xi); the left band is its
    exact mirror image, so psi(-xi) = psi(xi) holds identically.

    Raises
    ------
    NegativeDensity
        If any sample falls below -1e-6 (ansatz-violation signal).
    PrecisionLoss
        If the total quadrature mass strays from 1 by more than 1e-8.
    """
    if not sol.converged:
        raise ValueError("density requires a converged solution")
    anchor, dm, half = _split(sol)
    lf, dm = _prepare(field, anchor, dm, half)
    psis = _psi_values_right(field, lf, dm, half, int(grid_n))
    if float(np.min(psis)) < -1e-6:
        raise NegativeDensity(
            f"density reaches {float(np.min(psis)):.3e}; "
            "two-band ansatz violated"
        )
    table = _table_from_psis(lf, dm, half, np.maximum(psis, 0.0))
    mass = table.mass()
    if abs(mass - 1.0) > 1e-8:
        raise PrecisionLoss(f"total mass {mass:.12f} deviates from 1")
    mid = float(lf.center_long + LONG(dm))
    table.lagrange_l = table.log_potential(mid) - float(field.eval(mid, 0))
    return table
