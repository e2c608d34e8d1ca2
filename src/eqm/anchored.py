"""Anchored Newton solve and Chebyshev sampling for both ansätze.

Endpoints are carried as u1 = anchor + dm + half, u2 = anchor + dm -
half, with the anchor frozen in extended precision at the well of V.
Deep wells push the support width many orders of magnitude below its
location; keeping the Newton unknowns (dm, half) as small offsets lets
the residuals resolve far below what a single rounded float per
endpoint allows.  The mirror flag is all that tells the two ansätze
apart: one band [u2, u1], or the mirror pair [-u1, -u2] u [u2, u1]
solved on its right band.  Both read their endpoint pair and its
Jacobian off the same band integrals of V'
(``quadrature.field_band_integral_delta``), and one sampler serves
both: psi = 2 sqrt|R| Phi_g at every Chebyshev node, with Phi_g from
``rhp.band_factor`` on the support's edge offsets.  A solution carries
no Lagrange constant: the density table ``density`` builds holds it,
with the edges it was sampled on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import Band, DensityTable, chebyshev_angles
from .errors import InvalidInterval, NegativeDensity, NegativeRadicand, PrecisionLoss
from .field import LONG, LocalField
from .newton import damped_newton
from .quadrature import field_band_integral_delta, field_band_integral_partials_delta
from .rhp import EndpointVector, band_factor
from .wells import global_minimizer

INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_COLLAPSE = 1e-12


@dataclass
class AnchoredSolution:
    """Band endpoints u2 < u1 with solve diagnostics.

    The endpoints are stored in the split-precision form u1 =
    anchor+dm+half, u2 = anchor+dm-half the solver worked in, anchor in
    extended precision; density evaluation reuses it so narrow bands
    keep their full relative resolution.  mirror marks the right band of
    the mirror pair [-u1, -u2] u [u2, u1].  iterations and message are
    the Newton step count and stop reason (``NewtonResult``).
    """

    converged: bool
    residual_norm: float
    anchor: object
    dm: float
    half: float
    mirror: bool
    iterations: int = 0
    message: str = ""

    @property
    def u1(self):
        return float(endpoints_long(self.anchor, self.dm, self.half)[0])

    @property
    def u2(self):
        return float(endpoints_long(self.anchor, self.dm, self.half)[1])

    def endpoint_vector(self):
        """The support's edges u1, u2 (and -u2, -u1 for a mirror pair),
        in the split precision of the solve."""
        base, off = _edges(self.anchor, self.dm + self.half, self.dm - self.half,
                           self.mirror)
        return EndpointVector(len(base) // 2 - 1, (), base, off)


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


def _residual(lf, mirror):
    """(pair, jacobian) of the endpoint conditions around lf's center.

    pair(dm, half) is (sqrt(weight m) - 1/sqrt(pi), f2) for the band
    integrals (f2, m) of ``field_band_integral_delta``, weight (1 +
    mirror)/pi, and jacobian(dm, half) their 2x2 partials, a row per
    residual and a column per unknown (dm, half).  m <= 0 raises
    NegativeRadicand, and a mirror pair's inner endpoint at or below 0
    InvalidInterval.
    """
    weight = (1 + mirror) / math.pi
    anchor = lf.center_long

    def root(moment):
        if not moment > 0.0:
            raise NegativeRadicand("the band's mass moment is not positive")
        return math.sqrt(weight * moment)

    def pair(dm, half):
        d1, d2 = dm + half, dm - half
        if mirror and not anchor + LONG(d2) > 0.0:
            raise InvalidInterval("inner endpoint must stay positive")
        f2, moment = field_band_integral_delta(lf, d1, d2, mirror)
        return root(moment) - INV_SQRT_PI, f2

    def jacobian(dm, half):
        (_, moment), (df2, dmoment) = field_band_integral_partials_delta(
            lf, dm + half, dm - half, mirror)
        return [0.5 * weight * dmoment / root(moment), df2]

    return pair, jacobian


def _prepare(field, center, dm):
    """The LocalField at center, and dm on center's longdouble grid.

    dm comes back as float(center + dm - center), summed in longdouble.
    The sum rounds to the longdouble spacing at center + dm, so the bits
    of dm finer than that spacing are dropped, for polynomial fields as
    for |xi|^a ones.  ``density`` forms every edge and sample from the
    rounded dm, so its outputs depend on this rounding bit for bit.
    """
    lf = LocalField(field, center)
    return lf, float(lf.center_long + LONG(dm) - lf.center_long)


def _seed(field, mirror):
    """Well and starting half width: the band starts centred on the well."""
    well, vpp = global_minimizer(field, positive=mirror)
    if vpp > 0.0:
        half0 = 1.0 / math.sqrt(math.pi * vpp)
    elif mirror:
        half0 = 0.05 * float(well)
    else:
        half0 = 0.5 * max(1.0, abs(float(well)))
    if mirror:
        half0 = min(half0, 0.9 * float(well))
    return well, half0


def solve(field, tol, max_iter, mirror):
    """Solve the endpoint pair by damped Newton in (dm, half).

    The seed brackets the well of V (the positive one for a mirror pair)
    with the local harmonic width.  converged is False, with the best
    iterate, when Newton stalls or the band collapses below 1e-12
    relative width.
    """
    well, half0 = _seed(field, mirror)
    lf = LocalField(field, well)
    anchor = lf.center_long
    af = abs(float(anchor))
    pair, jacobian = _residual(lf, mirror)

    def fun(x):
        dm, half = float(x[0]), float(x[1])
        if not 2.0 * half >= _COLLAPSE * max(1.0, af + abs(dm) + half):
            raise InvalidInterval("band width must be at least 1e-12 relative")
        return np.array(pair(dm, half))

    def jac(x):
        return np.array(jacobian(float(x[0]), float(x[1])), dtype=float)

    res = damped_newton(fun, np.array([0.0, half0]), tol, max_iter, jac)
    return AnchoredSolution(res.converged, res.residual_norm, anchor=anchor,
                            dm=float(res.x[0]), half=float(res.x[1]), mirror=mirror,
                            iterations=res.iterations, message=res.message)


def _sample(lf, dm, half, n, mirror):
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
    base, off = _edges(lf.center_long, d1, d2, mirror)
    base = [b - lf.center_long for b in base]  # 0 on the band, -2c on its mirror
    phi = band_factor(lf, [b + LONG(o) for b, o in zip(base, off)])(dxi)
    rad = (d1 - dxi) * (dxi - d2)
    rest = 1.0
    for b, o in zip(base[2:], off[2:]):
        rest = rest * ((dxi - float(b)) - o)
    return 2.0 * np.sqrt(np.maximum(rad, 0.0) * np.abs(rest)) * phi


def density(sol, field, grid_n):
    """Sampled density table of a converged solution.

    The band's edges u2, u1 are summed in extended precision and
    rounded once; a mirror pair's left band is the right one's exact
    mirror image.  The table's lagrange_l is L(psi) - V at the band
    midpoint.  Samples below -1e-6 raise NegativeDensity (wrong-ansatz
    signal); smaller negative roundoff is clamped to zero.  A quadrature
    mass straying from 1 by more than 1e-8 raises PrecisionLoss.
    """
    if not sol.converged:
        raise ValueError("density requires a converged solution")
    lf, dm = _prepare(field, sol.anchor, sol.dm)
    half = sol.half
    psis = _sample(lf, dm, half, int(grid_n), sol.mirror)
    low = float(np.min(psis))
    if low < -1e-6:
        name = "two-band" if sol.mirror else "one-band"
        raise NegativeDensity(f"density reaches {low:.3e}; {name} ansatz violated")
    u1, u2 = endpoints_long(lf.center_long, dm, half)
    right = Band.from_angles(float(u2), float(u1), np.maximum(psis, 0.0))
    bands = [right]
    if sol.mirror:
        bands.insert(0, Band(-right.hi, -right.lo, (-right.xs[::-1]).copy(),
                             right.psis[::-1].copy()))
    table = DensityTable(bands=bands)
    mass = table.mass()
    if abs(mass - 1.0) > 1e-8:
        mass_name = "total" if sol.mirror else "band"
        raise PrecisionLoss(f"{mass_name} mass {mass:.12f} deviates from 1")
    mid = float(lf.center_long + LONG(dm))
    table.lagrange_l = table.log_potential(mid) - float(field.eval(mid, 0))
    return table
