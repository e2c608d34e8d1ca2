"""Gauss-Chebyshev band quadrature, principal values, and the R branch.

All band integrals carry the weight 1/sqrt((u1 - mu)(mu - u2)) on the
interval (u2, u1) with u1 > u2.  Principal values use the standard
subtraction trick; the smooth part of the subtracted kernel then falls
to regular Gauss-Chebyshev quadrature.

Principal values take an array of poles and run one adaptive doubling
per array: the integrand f(d, x) sees the nodes d as a row and the
poles x as a column, so whatever depends on the nodes alone is formed
once per node count for every pole.

``band_integral`` is the one band rule and ``pv_band_integral_delta``
the one principal-value rule, in offsets; every other entry point hands
them an integrand.  ``field_pv_band_integral_delta`` is one band's term
of the band factor (``rhp.band_factor``), the principal value of V'
over the other edges' square root (``band_field``), for any band
count, where no Chebyshev series of that factor resolves the band (an
|xi|^a kink inside it); a resolved band sums its series instead, and
``rhp.band_factor`` gives a polynomial field's band factor in closed
form.  The field forms (``field_band_integral_delta`` and friends)
integrate V' of a prebuilt ``LocalField`` with the band and poles as
offsets from its center, so they never round through one absolute
float: bands many orders of magnitude narrower than their distance from
the origin keep full accuracy.  ``field_band_integral_delta`` gives either ansatz's two
endpoint conditions, a band mean and a band moment of V', from one
rule; a mirror pair divides V' by its weight's smooth factors, which
are 1 for one band.  ``field_band_integral_partials_delta`` adds the
2x2 derivatives along the band's midpoint and half width that the
Newton Jacobian reads, as band means of the differentiated integrands.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .density import chebyshev_angles
from .errors import InvalidInterval, SingularPoint
from .field import LONG

__all__ = [
    "band_field",
    "band_integral",
    "field_band_integral_delta",
    "field_band_integral_partials_delta",
    "field_pv_band_integral_delta",
    "pv_band_integral_delta",
    "r_branch",
    "chebyshev_rule",
]

_DEFAULT_M = 64
_MAX_M = 4096
_REL_TOL = 1e-12
# Entries of the largest pole-by-node array one PV evaluation holds
# (128 KiB of float64), so memory stays flat however many poles a call
# carries; larger blocks measured no faster and raised peak RSS.
_BLOCK = 2**14


@lru_cache(maxsize=64)
def chebyshev_rule(m):
    """First-kind Gauss-Chebyshev nodes (ascending) and uniform weight."""
    return np.cos(chebyshev_angles(m))[::-1].copy(), np.pi / m


def _check_interval(u1, u2):
    if not u1 > u2:
        raise InvalidInterval(f"need u1 > u2, got u1={u1}, u2={u2}")


def _adaptive(evaluate, m, size=1):
    """Element-wise node doubling for `size` integrals at once.

    evaluate(mm, idx) returns the mm-node values of the integrals
    numbered idx.  With m given that rule is used once.  Otherwise each
    integral doubles from 64 nodes until its relative change is tiny,
    or 4096 nodes are reached, and keeps its own last value; only the
    unsettled ones are evaluated again.  Returns a float array.
    """
    idx = np.arange(size)
    mm = _DEFAULT_M if m is None else m
    out = np.array(evaluate(mm, idx), dtype=float, ndmin=1)
    while m is None and mm < _MAX_M and idx.size:
        mm *= 2
        cur = evaluate(mm, idx)
        done = np.abs(cur - out[idx]) <= _REL_TOL * np.maximum(1.0, np.abs(cur))
        out[idx] = cur
        idx = idx[~done]
    return out


def band_integral(f, u1, u2, count=None):
    """Integral of f(mu)/sqrt((u1-mu)(mu-u2)) over (u2, u1), by
    adaptive node doubling from 64 nodes.

    Parameters
    ----------
    f : callable
        Smooth function of a float array.  With count it returns a
        (count, nodes) array, one integrand per row.
    u1, u2 : float
        Band endpoints, u1 > u2.
    count : int, optional
        Number of integrands f returns at once; each doubles its nodes
        on its own.

    Returns
    -------
    float, or an array of count integrals
    """
    _check_interval(u1, u2)
    mid = 0.5 * (u1 + u2)
    half = 0.5 * (u1 - u2)

    def evaluate(mm, idx):
        x, w = chebyshev_rule(mm)
        if count is None:
            return w * float(np.sum(f(mid + half * x)))
        return w * np.sum(f(mid + half * x)[idx], axis=-1)

    if count is None:
        return float(_adaptive(evaluate, None)[0])
    return _adaptive(evaluate, None, count)


def pv_band_integral_delta(fdelta, d1, d2, dxi, m=None):
    """PV of fdelta(d, x)/((x-d) sqrt((d1-d)(d-d2))) in offset coordinates.

    Offsets are taken from the caller's anchor: d1 > d2 bracket the band
    and dxi holds the poles x, a float or a 1-D array (which returns an
    array).  fdelta(d, x) sees the nodes d as a row and a block of poles
    x as a column (broadcasting, so it may ignore either), and once sees
    d = x for the poles inside the band, whose fdelta(x, x) is
    subtracted to remove the pole.  Outside poles subtract nothing; the
    integrand is regular there.  Each pole doubles its node count on its
    own, so the values equal those of one call per pole.  A pole on an
    endpoint, or outside within 1e-12 band widths of one, raises
    SingularPoint; inside poles stay regular once subtracted.
    """
    _check_interval(d1, d2)
    guard = 1e-12 * max(d1 - d2, 1e-12)
    xs = np.atleast_1d(np.asarray(dxi, dtype=float))
    inside = (d2 < xs) & (xs < d1)
    near = np.minimum(np.abs(xs - d1), np.abs(xs - d2)) < guard
    if np.any(near & ~inside):
        raise SingularPoint("evaluation point coincides with a band endpoint")
    dmid = 0.5 * (d1 + d2)
    half = 0.5 * (d1 - d2)
    fxi = np.zeros(xs.shape)
    if np.any(inside):
        col = xs[inside, None]
        fxi[inside] = np.broadcast_to(fdelta(col, col), col.shape)[:, 0]

    def evaluate(mm, idx):
        x, w = chebyshev_rule(mm)
        d = dmid + half * x
        sums = np.empty(idx.size)
        step = max(1, _BLOCK // mm)
        for start in range(0, idx.size, step):
            block = idx[start:start + step]
            p = xs[block, None]
            vals = (fdelta(d, p) - fxi[block, None]) / (p - d)
            sums[start:start + step] = vals.sum(axis=1)
        return w * sums

    out = _adaptive(evaluate, m, xs.size)
    return out if np.ndim(dxi) else float(out[0])


def _mirror_factors(lf, d1, d2, d):
    """A = u1 + mu, B = mu + u2 and q = ((mu-u1) A + (mu-u2) B)/2 at
    nodes d, from offsets; the center enters in a plain float sum."""
    twoc = float(2.0 * lf.center_long)
    a, b = twoc + d + d1, twoc + d + d2
    q = 0.5 * ((d - d1) * a + (d - d2) * b)
    return a, b, q


def field_band_integral_delta(lf, d1, d2, mirror=False):
    """Integrals of F and q F against the band's sqrt weight, from one
    rule: the endpoint conditions (0, and 1 or for a mirror pair 1/2,
    at equilibrium).

    For a mirror pair F = V'/sqrt(A B), A = u1 + mu, B = mu + u2, and
    q = mu^2 - (u1^2 + u2^2)/2, so the weight is 1/sqrt((u1^2-mu^2)
    (mu^2-u2^2)); the band must sit in the positive half line.  One band
    has A = B = 1 and q = mu - mid.  The band is (center + d2, center +
    d1) for the LocalField's center; nodes are formed in the offset
    coordinate, and V' is accumulated in longdouble.
    """
    mid = 0.5 * (d1 + d2)

    def f(d):
        vp = lf.deriv(d, 1, dtype=LONG)
        if mirror:
            a, b, q = _mirror_factors(lf, d1, d2, d)
            vp = vp / np.sqrt(a * b)
        else:
            q = d - mid
        return np.stack([vp, q * vp])

    return band_integral(f, d1, d2, count=2)


def field_band_integral_partials_delta(lf, d1, d2, mirror=False):
    """``field_band_integral_delta`` with its partials along the band
    midpoint dm and half width h, with d1 = dm + h and d2 = dm - h.

    At mu = dm + h cos(theta), mu moves by 1 along dm and by cos(theta)
    along h.  One band's partials are band integrals of V'' and V''
    cos(theta), and of (mu - dm) V'' and cos(theta) (V' + (mu - dm)
    V'').  A mirror pair's u1 and u2 also move, by 1 and 1 along dm and
    by 1 and -1 along h, so dF = V'' dmu/sqrt(A B) - F (dA/A + dB/B)/2
    and d(q F) = q dF + F dq.  Returns the two integrals, in float64,
    and the 2x2 [[d/d dm, d/d h]], a row per integral, from one rule.
    """
    dm, half = 0.5 * (d1 + d2), 0.5 * (d1 - d2)

    def f(d):
        vp, vpp = lf.deriv(d, 1), lf.deriv(d, 2)
        off = d - dm
        cos = off / half
        if not mirror:
            return np.stack([vp, off * vp, vpp, vpp * cos, off * vpp,
                             cos * (vp + off * vpp)])
        a, b, q = _mirror_factors(lf, d1, d2, d)
        root = np.sqrt(a * b)
        vp, vpp = vp / root, vpp / root
        df_dm = vpp - 0.5 * vp * (2.0 / a + 2.0 / b)
        df_dh = vpp * cos - 0.5 * vp * ((cos + 1.0) / a + (cos - 1.0) / b)
        dq_dm = (d - d1) + (d - d2)  # q's factors move by (0, 2, 0, 2)
        dq_dh = 0.5 * ((cos - 1.0) * (a + d - d2) + (cos + 1.0) * (d - d1 + b))
        return np.stack([vp, q * vp, df_dm, df_dh, q * df_dm + vp * dq_dm,
                         q * df_dh + vp * dq_dh])

    out = band_integral(f, d1, d2, count=6)
    return out[:2], out[2:].reshape(2, 2)


def band_field(lf, d, others):
    """F = V'/sqrt|prod (d - r)| in longdouble at the offsets d, r over
    the longdouble offsets others of the other band edges: the smooth
    factor of one band's term of the band factor."""
    d = np.asarray(d, dtype=LONG)
    f = lf.deriv(d, 1, dtype=LONG)
    if others.size:
        f = f / np.sqrt(np.abs(np.prod(d[..., None] - others, axis=-1)))
    return f


def field_pv_band_integral_delta(lf, d1, d2, dxi, m=None, others=(),
                                 subtract=False):
    """PV of F(mu)/((xi-mu) sqrt((d1-mu)(mu-d2))), F = V'/sqrt|prod (mu-r)|
    over the other band edges r, with band, poles and r as offsets.

    One band's term of the band factor (``rhp.band_factor``); others
    (longdouble offsets) is empty for a single band.  F is formed in
    longdouble, once per node count at the rule's nodes and once at the
    poles, and carried as a float64 pair hi + lo, so the pole-by-node
    difference F(mu) - F(xi) runs in float64 without dividing F's
    rounding by xi - mu.  With subtract every pole integrates F(mu) -
    F(xi), outside ones too; without, outside poles integrate F alone.
    dxi is one pole offset or a 1-D array of them (an array returns an
    array); each pole stops doubling at its own node count, so the
    values equal those of one call per pole.  m fixes the node count
    (adaptive when omitted).
    """
    others = np.asarray(others, dtype=LONG)

    def pair(d):
        f = band_field(lf, d, others)
        hi = f.astype(float)
        return hi, (f - hi).astype(float)

    nodes, poles = {}, []

    def lookup(d):
        if np.ndim(d) == 1:  # the nodes of one rule
            if d.size not in nodes:
                nodes[d.size] = pair(d)
            return nodes[d.size]
        if not poles:  # the rule hands over poles of dxi: find them by value
            xs = np.sort(np.atleast_1d(np.asarray(dxi, dtype=float)))
            poles.extend((xs, *pair(xs)))
        i = np.searchsorted(poles[0], d)
        return poles[1][i], poles[2][i]

    def fdelta(d, x):
        hd, ld = lookup(d)
        if not subtract:
            return hd
        hx, lx = lookup(x)
        return (hd - hx) + (ld - lx)

    return pv_band_integral_delta(fdelta, d1, d2, dxi, m)


def r_branch(xi, u):
    """Real branch of R(xi) = sqrt(prod (xi - u_i)) off the support.

    The branch is positive for xi above the largest endpoint and is
    continued so that R(xi) ~ xi^(g+1) at infinity: the sign alternates
    with the parity of the number of endpoints to the right of xi.

    Parameters
    ----------
    xi : float or array_like
        Points off the support (gaps and exterior).
    u : sequence of float
        Endpoints in descending order, even count.

    Raises
    ------
    SingularPoint
        If xi lies strictly inside a band, where R is imaginary.
    """
    u = np.asarray(u, dtype=float)
    xs = np.atleast_1d(np.asarray(xi, dtype=float))
    prod = np.ones(xs.shape)
    for ui in u:
        prod = prod * (xs - ui)
    if np.any(prod < 0.0):
        raise SingularPoint("r_branch called inside a band")
    nright = (xs[:, None] < u[None, :]).sum(axis=1)
    sign = np.where(nright % 4 >= 2, -1.0, 1.0)
    out = sign * np.sqrt(prod)
    return out if np.ndim(xi) else float(out[0])
