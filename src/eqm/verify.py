"""Independent certification that a constructed density minimizes the energy.

Checks, on finite probe grids plus a structural tail argument:

* the equality of the effective potential ``L(psi) - V`` across the
  support (constant Lagrange multiplier),
* the inequality ``L(psi) - V <= l`` off the support,
* unit mass,
* the pointwise sign condition on the band factor and the strict signs
  of the running integrals of ``R * Phi`` over gaps and exterior rays.

The band factor Phi comes from ``rhp.band_factor``, built once per
certificate, as the density samplers take it.  Where rhp hands back
Phi's coefficients (a polynomial field's closed form), the gap and ray
checks also read its real roots from them.  Both hold for any number of
bands.

Large external fields make ``L(psi) - V - l`` a difference of huge,
nearly equal numbers, so all potential differences are taken relative
to a reference point on the support, with the field part accumulated
termwise in extended precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import chebyshev_angles
from .errors import EqmError
from .field import LocalField, potential_difference
from .quadrature import r_branch
from .rhp import EndpointVector, band_factor
from .wells import wells

__all__ = [
    "VariationalReport",
    "check_variational",
    "check_sign_and_gaps",
]

_TOL_EQ = 1e-6
_TOL_INEQ = 1e-8
_TOL_MASS = 1e-8
_SIGN_POINTS = 50
_REGION_POINTS = 20
_TAIL_DOUBLINGS = 9
_SEGMENT_X, _SEGMENT_W = np.polynomial.legendre.leggauss(12)


@dataclass(frozen=True)
class VariationalReport:
    """Outcome of the variational checks on one density.

    A passing report has ``equality_deviation < 1e-6``,
    ``inequality_margin > -1e-8``, ``mass_residual < 1e-8`` and both
    booleans true.
    """

    equality_deviation: float
    inequality_margin: float
    mass_residual: float
    constraint_sign_ok: bool
    gap_integral_ok: bool

    def passed(self):
        return (
            self.equality_deviation < _TOL_EQ
            and self.inequality_margin > -_TOL_INEQ
            and self.mass_residual < _TOL_MASS
            and self.constraint_sign_ok
            and self.gap_integral_ok
        )

    def as_dict(self):
        return {
            "equality_deviation": self.equality_deviation,
            "inequality_margin": self.inequality_margin,
            "mass_residual": self.mass_residual,
            "constraint_sign_ok": self.constraint_sign_ok,
            "gap_integral_ok": self.gap_integral_ok,
            "passed": self.passed(),
        }


def _reference_point(density):
    widest = max(density.bands, key=lambda b: b.hi - b.lo)
    return widest.mid


def _probe_grid(density, field, probe_n):
    """Off-support probes: a window around the support, every well of
    V, and far points.  The wells are where a misplaced density
    violates the inequality hardest, so they are probed explicitly even
    when they fall outside the window."""
    u = density.endpoints_desc
    umax, umin = float(u[0]), float(u[-1])
    diam = umax - umin
    window = np.linspace(umin - 2.0 * diam, umax + 2.0 * diam, probe_n)
    ufar = max(abs(umax), abs(umin))
    far = np.array([-100.0, -10.0, 10.0, 100.0]) * ufar
    try:
        minimizers = [float(w) for w in wells(field)]
    except EqmError:
        minimizers = []
    pts = np.concatenate([window, far, np.array(minimizers)])
    buf = 1e-9 * max(1.0, diam)
    keep = np.ones(pts.shape, dtype=bool)
    for b in density.bands:
        keep &= (pts < b.lo - buf) | (pts > b.hi + buf)
    return pts[keep]


def check_variational(density, field, probe_n=120):
    """Run all variational checks and collect them in a report.

    Failures are reported, never raised: a deliberately wrong density
    yields a failing report.  The equality check evaluates L(psi) at
    the Chebyshev nodes of every band by
    ``DensityTable.log_potential_at_nodes``, and V there too.
    """
    mass_residual = abs(density.mass() - 1.0)

    ref = _reference_point(density)
    lref = density.log_potential(ref)

    # L(psi) and V at the same points: the nodes the spectral sums assume,
    # which the stored xs of a density read from CSV only approximate
    pts = np.concatenate([b.nodes() for b in density.bands])
    dev = (density.log_potential_at_nodes() - lref) - potential_difference(
        field, pts, ref
    )
    equality_deviation = float(np.max(np.abs(dev)))

    probes = _probe_grid(density, field, probe_n)
    margins = potential_difference(field, probes, ref) - (
        density.log_potential(probes) - lref
    )
    inequality_margin = float(np.min(margins))

    sign_ok, gaps_ok = _sign_and_gap_flags(density.endpoints_desc, field)

    return VariationalReport(
        equality_deviation=equality_deviation,
        inequality_margin=inequality_margin,
        mass_residual=mass_residual,
        constraint_sign_ok=sign_ok,
        gap_integral_ok=gaps_ok,
    )


def _sign_and_gap_flags(endpoints, field):
    """``check_sign_and_gaps`` on descending band edges, as the report's
    two booleans: both false when the band factor cannot be evaluated."""
    try:
        u = EndpointVector(len(endpoints) // 2 - 1, tuple(endpoints))
        return check_sign_and_gaps(u, field)
    except (EqmError, np.linalg.LinAlgError):
        return False, False


def _band_signs_ok(u: EndpointVector, phi):
    """Band factor sign test at Chebyshev points of every band.

    On the k-th band from the right the boundary value of ``i R`` has
    real part of sign ``(-1)^k``, so a positive density needs
    ``(-1)^k Phi > 0`` there (k counted from 0).
    """
    cos = np.cos(chebyshev_angles(_SIGN_POINTS))
    xs, want = [], []
    for k, (lo, hi) in enumerate(u.bands):
        xs.append(0.5 * (lo + hi) + 0.5 * (hi - lo) * cos)
        want.append(np.full(_SIGN_POINTS, 1.0 if k % 2 == 0 else -1.0))
    return bool(np.all(np.concatenate(want) * phi(np.concatenate(xs)) > 0.0))


def _segment_integrals(f, a, b):
    """Gauss-Legendre integrals of a vectorized f over the segments
    [a_i, b_i], with every node in one call of f."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _SEGMENT_X
    return half * (f(x.ravel()).reshape(x.shape) @ _SEGMENT_W)


def _phi_roots(u: EndpointVector, phi):
    """The sorted real roots of the band factor phi, or None when it
    has no coefficients.

    For a polynomial field of degree M, ``rhp.band_factor`` gives Phi as
    a polynomial of degree M - g - 2 in x, its coefficients in
    ``phi.coef``.  The running integrals of R*Phi are monotone between
    consecutive real roots, which turns the strict-sign checks on probe
    grids into certificates: every interior extremum is probed, and past
    the largest root the integrand cannot change sign again.  The roots
    are found in x/scale, with scale twice the larger of 1, the
    endpoints' magnitude and the support's width, after trailing
    coefficients below 1e-13 of the largest are dropped.
    """
    coef = getattr(phi, "coef", None)
    if coef is None:
        return None
    scale = 2.0 * max(1.0, abs(u.u[0]), abs(u.u[-1]), u.u[0] - u.u[-1])
    coef = coef * scale ** np.arange(len(coef))
    floor = 1e-13 * float(np.max(np.abs(coef)))
    while len(coef) > 1 and abs(coef[-1]) < floor:
        coef = coef[:-1]
    if len(coef) <= 1:
        return np.empty(0)
    roots = np.polynomial.polynomial.polyroots(coef)
    real = roots[np.abs(roots.imag) < 1e-7 * np.maximum(1.0, np.abs(roots.real))]
    return np.sort(real.real) * scale


def _gap_running_ok(u: EndpointVector, phi, lo, hi, roots):
    """Strict positivity of the running integral of R*Phi across a gap.

    The integral starts at the lower gap edge; the square-root vanishing
    of R at both edges is absorbed by the angle substitution.  Real
    roots of the band factor inside the gap are added to the probe set:
    the running integral turns exactly there.
    """
    uvals = u.u
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def f(theta):
        x = mid + half * np.cos(theta)
        return r_branch(x, uvals) * phi(x) * half * np.sin(theta)

    angles = list(chebyshev_angles(_REGION_POINTS))
    if roots is not None:
        for r in roots:
            if lo < r < hi:
                angles.append(math.acos(min(1.0, max(-1.0, (r - mid) / half))))
    lower = np.array(sorted(angles, reverse=True))
    upper = np.concatenate([[math.pi], lower[:-1]])
    return bool(np.all(np.cumsum(_segment_integrals(f, lower, upper)) > 0.0))


def _doubling_lock(integrand, edge, base, direction, want):
    """Heuristic tail lock for non-polynomial fields: the first of a
    doubling sequence past which the integrand keeps the demanded sign
    with strictly growing magnitude."""
    xs = [edge + direction * base * 2.0**m for m in range(_TAIL_DOUBLINGS)]
    vals = integrand(np.array(xs)).tolist()
    for m in range(len(vals)):
        tail = vals[m:]
        if all(want * v > 0.0 for v in tail) and all(
            abs(tail[i + 1]) > abs(tail[i]) for i in range(len(tail) - 1)
        ):
            return xs[m]
    return None


def _ray_running_ok(u: EndpointVector, phi, edge, diam, direction, roots):
    """Strict sign of the running integral of R*Phi on an exterior ray.

    With the real roots of the band factor known, the ray is truncated
    just past the outermost root (no further sign change is possible)
    and the running integral is checked at nested probes, at every
    turning point, and at the truncation point.  Without root data a
    monotone doubling scan picks the truncation point instead.
    """
    uvals = u.u
    want = 1.0 if direction > 0 else -1.0

    def integrand(x):
        return r_branch(x, uvals) * phi(x)

    base = max(1.0, diam, abs(edge))
    turning = []
    if roots is not None:
        outer = [abs(r) for r in roots]
        reach = 1.05 * max(outer) + 0.05 * base if outer else 0.0
        lock = edge + direction * base
        if direction > 0:
            lock = max(lock, reach)
            turning = [r for r in roots if edge < r < lock]
        else:
            lock = min(lock, -reach)
            turning = [r for r in roots if lock < r < edge]
    else:
        lock = _doubling_lock(integrand, edge, base, direction, want)
        if lock is None:
            return False
    if not want * integrand(lock) > 0.0:
        return False

    def f(s):
        return 2.0 * s * integrand(edge + direction * s * s)

    span = abs(lock - edge)
    offsets = {span * (j / _REGION_POINTS) ** 2 for j in range(1, _REGION_POINTS + 1)}
    offsets.update(abs(r - edge) for r in turning)
    upper = np.sqrt(sorted(offsets))
    lower = np.concatenate([[0.0], upper[:-1]])
    totals = np.cumsum(_segment_integrals(f, lower, upper))
    return bool(np.all(want * totals > 0.0))


def check_sign_and_gaps(u: EndpointVector, field):
    """Sign condition on bands and strict gap/exterior integral signs.

    Returns ``(constraint_sign_ok, gap_integral_ok)``.  Every check
    reads the band factor from ``rhp.band_factor``, built once here,
    at probes given as offsets from 0.  Where it carries coefficients
    (polynomial fields), the gap and ray checks probe every turning
    point of the running integrals and certify the tails root-free;
    otherwise the rays fall back to a monotone doubling scan for the
    tail.
    """
    phi = band_factor(LocalField(field, 0.0), u.precise)
    roots = _phi_roots(u, phi)
    sign_ok = _band_signs_ok(u, phi)

    diam = u.u[0] - u.u[-1]
    gaps_ok = True
    for lo, hi in u.gaps:
        if not _gap_running_ok(u, phi, lo, hi, roots):
            gaps_ok = False
    if not _ray_running_ok(u, phi, u.u[0], diam, +1, roots):
        gaps_ok = False
    if not _ray_running_ok(u, phi, u.u[-1], diam, -1, roots):
        gaps_ok = False
    return sign_ok, gaps_ok
