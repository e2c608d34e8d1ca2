"""Locate wells of an external field for solver anchors and seeds.

A coarse grid scan over a radius where every pair of power terms is
balanced finds the global minimizer basin; extended-precision Newton on
V' then sharpens the point far below float resolution.  Solvers anchor
their endpoint offsets at this point, so its accuracy bounds the
achievable residual floor on very narrow supports.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .field import LONG

__all__ = ["search_radius", "refine_minimizer", "global_minimizer", "wells"]

_GRID_N = 20001


def search_radius(field):
    """Radius beyond which a single term of V dominates all others.

    Twice the largest pairwise balancing radius |c_b/c_a|^(1/(a-b)), at
    least 2; outside it V is monotone toward its growth at infinity, so
    every interior minimizer lies inside.
    """
    terms = field.terms()
    radius = 1.0
    for i, (_, a1, c1) in enumerate(terms):
        for _, a2, c2 in terms[i + 1:]:
            if a1 == a2 or c1 == 0.0 or c2 == 0.0:
                continue
            r = abs(c2 / c1) ** (1.0 / (a1 - a2))
            if np.isfinite(r):
                radius = max(radius, r)
    return 2.0 * radius


def refine_minimizer(field, x0, keep_positive=False):
    """Newton iteration on V' in extended precision from a grid argmin.

    Stops once the update falls below 1e-18 relative, i.e. at the
    longdouble resolution of the well location; leaves x0 untouched when
    the local curvature is not positive.

    Returns
    -------
    x : longdouble
    curvature : float
        V''(x); nonpositive marks a degenerate or saddle point.
    """
    x = LONG(x0)
    for _ in range(40):
        d2 = LONG(field.eval(x, 2, dtype=LONG))
        if not d2 > 0.0:
            break
        d1 = LONG(field.eval(x, 1, dtype=LONG))
        xn = x - d1 / d2
        if keep_positive and not xn > 0.0:
            break
        done = abs(xn - x) <= LONG(1e-18) * max(LONG(1.0), abs(xn))
        x = xn
        if done:
            break
    return x, float(field.eval(x, 2, dtype=LONG))


def global_minimizer(field, positive=False):
    """Global minimizer of V, refined to extended precision.

    Memoised per (field, positive): the attempt order, the solver seed
    and the verifier's well probes of one field share one scan.  An
    even field is scanned on [0, L] only, so of two mirror minimizers
    the right-hand one is returned, never the one that argmin rounding
    happens to favour.

    Parameters
    ----------
    field : FieldSpec
    positive : bool
        Restrict the scan to the open positive half line (for anchoring
        the right band of a symmetric two-band support).

    Returns
    -------
    x : longdouble
    curvature : float
        V''(x); callers fall back to cruder seed widths when <= 0.
    """
    return _scan(field, bool(positive))


def wells(field):
    """The global minimizers of V: both mirror points for an even field.

    For an even field with V''(0) < 0, 0 is a local maximum, so the
    minimizers are exactly +-x+, x+ the half-line minimizer that the
    two-band seed scans for anyway.  Any other field takes the
    full-line scan.

    Returns
    -------
    tuple of longdouble
        (x, -x) for an even field, else (x,).
    """
    if field.is_even and field.eval(0.0, 2) < 0.0:
        x = global_minimizer(field, positive=True)[0]
    else:
        x = global_minimizer(field)[0]
    return (x, -x) if field.is_even else (x,)


@lru_cache(maxsize=64)
def _scan(field, positive):
    L = search_radius(field)
    if positive:
        xs = np.linspace(L / _GRID_N, L, _GRID_N)
    else:
        xs = np.linspace(-L, L, _GRID_N)
        if field.is_even:
            xs = xs[_GRID_N // 2:]  # the right half of the same grid, 0 included
    vals = field.eval(xs, 0)
    x0 = float(xs[int(np.argmin(vals))])
    return refine_minimizer(field, x0, keep_positive=positive)
