"""Anchored Newton solve and Chebyshev sampling shared by both ansätze.

Endpoints are carried as u1 = anchor + dm + half, u2 = anchor + dm -
half, with the anchor frozen in extended precision at the well of V.
Deep wells push the support width many orders of magnitude below its
location; keeping the Newton unknowns (dm, half) as small offsets lets
the residuals resolve far below what a single rounded float per
endpoint allows.  An ``Ansatz`` record supplies what differs between
the one-band and the mirrored two-band construction: the residual pair
with its analytic Jacobian (both built by ``moment_residual`` from the
ansatz's band integrals), the table, and the mirror flag that places
the support's other edges.  One sampler serves both: psi = 2 sqrt|R|
Phi_g at every Chebyshev node, with Phi_g from ``rhp.band_factor`` on
the ansatz's edge offsets.  A solution carries no Lagrange constant:
the density table ``density`` builds holds it, with the edges it was
sampled on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .density import chebyshev_angles
from .errors import InvalidInterval, NegativeDensity, NegativeRadicand, PrecisionLoss
from .field import LONG, LocalField
from .newton import damped_newton
from .rhp import EndpointVector, band_factor
from .wells import global_minimizer

INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_COLLAPSE = 1e-12


@dataclass
class AnchoredSolution:
    """Band endpoints u2 < u1 with solve diagnostics.

    anchor/dm/half record the split-precision form u1 = anchor+dm+half,
    u2 = anchor+dm-half the solver worked in, anchor in extended
    precision; density evaluation reuses it so narrow bands keep their
    full relative resolution.  mirror marks the right band of the mirror
    pair [-u1, -u2] u [u2, u1].  iterations and message are the Newton
    step count and stop reason (``NewtonResult``).
    """

    u1: float
    u2: float
    converged: bool
    residual_norm: float
    anchor: object
    dm: float
    half: float
    mirror: bool
    iterations: int = 0
    message: str = ""

    def endpoint_vector(self):
        """The support's edges u1, u2 (and -u2, -u1 for a mirror pair),
        in the split precision of the solve."""
        base, off = _edges(self.anchor, self.dm + self.half, self.dm - self.half,
                           self.mirror)
        return EndpointVector(len(base) // 2 - 1, (), base, off)


@dataclass(frozen=True)
class Ansatz:
    """What a band shape supplies: residual(field, lf) -> (pair,
    jacobian), pair(dm, half) the two endpoint residuals and
    jacobian(dm, half) their 2x2 partials, row per residual and column
    per unknown (dm, half); table(lo, hi, psis); mirror, for the
    positive band of a mirror pair (u2 > 0), which also places the
    support's other edges; the words of its density errors."""

    residual: Callable
    table: Callable
    mirror: bool
    name: str
    mass_name: str


def _edges(anchor, o1, o2, mirror):
    """Bases and offsets of the support's edges, descending: anchor + o1,
    anchor + o2, and for a mirror pair -anchor - o2, -anchor - o1."""
    a = LONG(anchor)
    if mirror:
        return (a, a, -a, -a), (o1, o2, -o2, -o1)
    return (a, a), (o1, o2)


def endpoints_long(anchor, dm, half):
    """(u1, u2) in extended precision."""
    u1 = anchor + LONG(dm) + LONG(half)
    u2 = anchor + LONG(dm) - LONG(half)
    return u1, u2


def moment_residual(integrals, partials, weight):
    """(pair, jacobian) of endpoint conditions read off band integrals.

    integrals(d1, d2) gives (f2, m) at the band's offsets, partials(d1,
    d2) those and their 2x2 partials along (dm, half); the pair is
    (sqrt(weight m) - 1/sqrt(pi), f2), and m <= 0 raises NegativeRadicand.
    """
    def root(moment):
        if not moment > 0.0:
            raise NegativeRadicand("the band's mass moment is not positive")
        return math.sqrt(weight * moment)

    def pair(dm, half):
        f2, moment = integrals(dm + half, dm - half)
        return root(moment) - INV_SQRT_PI, f2

    def jacobian(dm, half):
        (_, moment), (df2, dmoment) = partials(dm + half, dm - half)
        return [0.5 * weight * dmoment / root(moment), df2]

    return pair, jacobian


def _prepare(field, center, dm, half):
    """Local expansion around center covering the working band.

    Returns the LocalField and dm re-expressed against its center (the
    two differ only when absolute-power terms force direct evaluation).
    """
    cf = float(center)
    r = max(8.0 * (abs(dm) + half), 1e-3 * max(1.0, abs(cf)))
    lf = LocalField(field, cf - r, cf + r, center=center)
    dm2 = float(LONG(center) + LONG(dm) - lf.center_long)
    return lf, dm2


def _seed(ansatz, field):
    """Well and starting half width: the band starts centred on the well."""
    well, vpp = global_minimizer(field, positive=ansatz.mirror)
    if vpp > 0.0:
        half0 = 1.0 / math.sqrt(math.pi * vpp)
    elif ansatz.mirror:
        half0 = 0.05 * float(well)
    else:
        half0 = 0.5 * max(1.0, abs(float(well)))
    if ansatz.mirror:
        half0 = min(half0, 0.9 * float(well))
    return well, half0


def solve(ansatz, field, tol, max_iter):
    """Solve the ansatz's endpoint pair by damped Newton in (dm, half).

    The seed brackets the well of V (the positive one for a mirror pair)
    with the local harmonic width.  converged is False, with the best
    iterate, when Newton stalls or the band collapses below 1e-12
    relative width.
    """
    well, half0 = _seed(ansatz, field)
    lf, dm0 = _prepare(field, well, 0.0, half0)
    anchor = lf.center_long
    af = abs(float(anchor))
    pair, jacobian = ansatz.residual(field, lf)

    def fun(x):
        dm, half = float(x[0]), float(x[1])
        if not 2.0 * half >= _COLLAPSE * max(1.0, af + abs(dm) + half):
            raise InvalidInterval("band width must be at least 1e-12 relative")
        return np.array(pair(dm, half))

    def jac(x):
        return np.array(jacobian(float(x[0]), float(x[1])), dtype=float)

    res = damped_newton(fun, np.array([dm0, half0]), tol, max_iter, jac)
    dm, half = float(res.x[0]), float(res.x[1])
    u1, u2 = endpoints_long(anchor, dm, half)
    return AnchoredSolution(float(u1), float(u2), res.converged,
                            res.residual_norm, anchor=anchor, dm=dm, half=half,
                            mirror=ansatz.mirror, iterations=res.iterations,
                            message=res.message)


def _sample(ansatz, lf, dm, half, n):
    """Density psi = 2 sqrt|R| Phi_g at the band's first-kind Chebyshev
    nodes, by ascending angle.

    Every edge is an offset from the center c of lf: the band's own
    d1, d2 and, for a mirror pair, -2c - d2 and -2c - d1.  Phi_g takes
    them in longdouble (``rhp.band_factor``); |R| is the band's
    (d1 - xi)(xi - d2) times the product of the other edges' distances,
    each formed as (xi - base) - offset in float.
    """
    d1, d2 = dm + half, dm - half
    dxi = dm + half * np.cos(chebyshev_angles(n))
    base, off = _edges(lf.center_long, d1, d2, ansatz.mirror)
    base = [b - lf.center_long for b in base]  # 0 on the band, -2c on its mirror
    phi = band_factor(lf, [b + LONG(o) for b, o in zip(base, off)], dxi)
    rad = (d1 - dxi) * (dxi - d2)
    rest = 1.0
    for b, o in zip(base[2:], off[2:]):
        rest = rest * ((dxi - float(b)) - o)
    return 2.0 * np.sqrt(np.maximum(rad, 0.0) * np.abs(rest)) * phi


def _local(sol, field):
    """LocalField and anchored (dm, half) that density() samples in."""
    lf, dm = _prepare(field, sol.anchor, sol.dm, sol.half)
    return lf, dm, sol.half


def density(ansatz, sol, field, grid_n):
    """Sampled density table of a converged solution.

    The table's edges u2, u1 are summed in extended precision and
    rounded once; its lagrange_l is L(psi) - V at the band midpoint.
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
    u1, u2 = endpoints_long(lf.center_long, dm, half)
    table = ansatz.table(float(u2), float(u1), np.maximum(psis, 0.0))
    mass = table.mass()
    if abs(mass - 1.0) > 1e-8:
        raise PrecisionLoss(f"{ansatz.mass_name} mass {mass:.12f} deviates from 1")
    mid = float(lf.center_long + LONG(dm))
    table.lagrange_l = table.log_potential(mid) - float(field.eval(mid, 0))
    return table
