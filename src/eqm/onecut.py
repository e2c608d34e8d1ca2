"""One-band equilibrium measures: endpoint solve and density for g = 0.

Endpoints are carried as anchor + (dm +- half), with the anchor frozen
in extended precision at the global minimizer of V.  Deep wells push
the support width many orders of magnitude below its location; keeping
the Newton unknowns (dm, half) as small offsets lets the residuals
resolve far below what a single rounded float per endpoint allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import Band, DensityTable, chebyshev_angles
from .epd import EpdSpec, phi_eval_anchored
from .errors import (
    InvalidInterval,
    NegativeDensity,
    NegativeRadicand,
    PrecisionLoss,
)
from .field import LONG, LocalField
from .newton import damped_newton
from .quadrature import field_band_integral_delta, field_pv_band_integral_delta
from .rhp import EndpointVector
from .wells import global_minimizer

__all__ = ["OneCutSolution", "solve_endpoints", "density"]

_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_MAX_ITER = 100
_COLLAPSE = 1e-12
_EDGE_WINDOW = 1e-6  # band widths; the tensor evaluator takes over inside


@dataclass
class OneCutSolution:
    """Support endpoints u2 < u1 with solve diagnostics.

    anchor/dm/half record the split-precision form u1 = anchor+dm+half,
    u2 = anchor+dm-half the solver worked in; density evaluation reuses
    it so narrow bands keep their full relative resolution.
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
            return EndpointVector.pair_anchored(
                self.anchor, self.dm + self.half, self.dm - self.half
            )
        return EndpointVector.pair(self.u1, self.u2)


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


def _residual_fun(field, lf):
    spec = EpdSpec(0, "psi", field)

    def fun(x):
        dm, half = float(x[0]), float(x[1])
        if not half > 0.0:
            raise InvalidInterval("half width must be positive")
        d1 = dm + half
        d2 = dm - half
        _, grads = phi_eval_anchored(spec, lf, d1, (d1, d2), want_grad=True)
        g2 = float(grads[2])
        if not g2 > 0.0:
            raise NegativeRadicand("dPsi0/du2 is not positive at the iterate")
        f1 = 2.0 * half * math.sqrt(g2) - _INV_SQRT_PI
        f2 = float(field_band_integral_delta(lf, d1, d2, order=1, dtype=LONG))
        return np.array([f1, f2])

    return fun


def solve_endpoints(field, guess=None, tol=1e-10, max_iter=_MAX_ITER):
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
    well, vpp = global_minimizer(field)
    if guess is not None:
        u1g, u2g = float(guess[0]), float(guess[1])
        if not u1g > u2g:
            raise InvalidInterval("guess must be ordered with u1 > u2")
        mid = 0.5 * (LONG(u1g) + LONG(u2g))
        half0 = float(0.5 * (LONG(u1g) - LONG(u2g)))
    else:
        mid = well
        if vpp > 0.0:
            half0 = 1.0 / math.sqrt(math.pi * vpp)
        else:
            half0 = 0.5 * max(1.0, abs(float(well)))
    lf, dm0 = _prepare(field, well, float(mid - well), half0)
    anchor = lf.center_long
    af = abs(float(anchor))
    fun = _residual_fun(field, lf)

    def validate(x):
        dm, half = float(x[0]), float(x[1])
        if not half > 0.0:
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
    u1 = float(anchor + LONG(dm) + LONG(half))
    u2 = float(anchor + LONG(dm) - LONG(half))
    lagrange_l = math.nan
    if res.converged:
        band = _sample_band(field, lf, dm, half, 201)
        mid = float(anchor + LONG(dm))
        lagrange_l = band.log_potential(mid) - float(field.eval(mid, 0))
    return OneCutSolution(
        u1,
        u2,
        lagrange_l,
        res.converged,
        res.residual_norm,
        anchor=anchor,
        dm=dm,
        half=half,
    )


def _psi_values(field, lf, dm, half, n):
    """Density samples at first-kind Chebyshev nodes, by ascending angle.

    One principal-value call covers the interior nodes and one tensor
    call the nodes within the edge window.
    """
    spec = EpdSpec(0, "phi", field)
    d1 = dm + half
    d2 = dm - half
    dxi = dm + half * np.cos(chebyshev_angles(n))
    edge = np.minimum(d1 - dxi, dxi - d2) < _EDGE_WINDOW * 2.0 * half
    phi = np.empty(n)
    if np.any(edge):
        phi[edge] = phi_eval_anchored(spec, lf, dxi[edge], (d1, d2))
    pv = field_pv_band_integral_delta(lf, d1, d2, dxi[~edge], order=1)
    phi[~edge] = -pv / (2.0 * math.pi)
    rad = (d1 - dxi) * (dxi - d2)
    return 2.0 * np.sqrt(np.maximum(rad, 0.0)) * phi


def _sample_band(field, lf, dm, half, n, clamp=False):
    psis = _psi_values(field, lf, dm, half, n)
    if clamp:
        psis = np.maximum(psis, 0.0)
    lo = float(lf.center_long + LONG(dm) - LONG(half))
    hi = float(lf.center_long + LONG(dm) + LONG(half))
    return Band.from_angles(lo, hi, psis)


def density(sol, field, grid_n):
    """Equilibrium density on [u2, u1] sampled at Chebyshev nodes.

    psi = 2 sqrt((u1-xi)(xi-u2)) Phi_0(xi); the principal-value form is
    used in the interior and the tensor evaluator within 1e-6 band
    widths of the endpoints.  The result carries the Lagrange constant
    L(psi) - V at the band midpoint.

    Raises
    ------
    NegativeDensity
        If any sample falls below -1e-6 (wrong-ansatz signal); smaller
        negative roundoff is clamped to zero.
    PrecisionLoss
        If the quadrature mass of the samples strays from 1 by more
        than 1e-8.
    """
    if not sol.converged:
        raise ValueError("density requires a converged solution")
    anchor, dm, half = _split(sol)
    lf, dm = _prepare(field, anchor, dm, half)
    psis = _psi_values(field, lf, dm, half, int(grid_n))
    if float(np.min(psis)) < -1e-6:
        raise NegativeDensity(
            f"density reaches {float(np.min(psis)):.3e}; "
            "one-band ansatz violated"
        )
    lo = float(lf.center_long + LONG(dm) - LONG(half))
    hi = float(lf.center_long + LONG(dm) + LONG(half))
    band = Band.from_angles(lo, hi, np.maximum(psis, 0.0))
    mass = band.mass()
    if abs(mass - 1.0) > 1e-8:
        raise PrecisionLoss(f"band mass {mass:.12f} deviates from 1")
    mid = float(lf.center_long + LONG(dm))
    lagrange_l = band.log_potential(mid) - float(field.eval(mid, 0))
    return DensityTable(bands=[band], lagrange_l=lagrange_l)
