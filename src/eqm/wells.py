"""Locate the wells of an external field for solver anchors and probes.

A well is a local minimizer of V, where V' changes sign from - to +.
For a polynomial field the wells are real roots of V', from companion-
matrix eigenvalues (``np.polynomial.polynomial.polyroots``) after the
zero root is factored out, so a well at 0 is exactly 0.0.  A field with
absolute-power terms takes the local minima of a grid over a radius
where every pair of power terms is balanced.  Extended-precision Newton
on V' then sharpens each well far below float resolution.  Solvers
anchor their endpoint offsets at the global one, so its accuracy bounds
the achievable residual floor on very narrow supports.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import NoConvergence
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
    """Newton iteration on V' in extended precision from a seed x0.

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
    and the verifier's well probes of one field share one search.  Of
    an even field's two mirror minimizers the right-hand one is
    returned.  positive restricts the search to x > 0 (the anchor of the
    right band of a symmetric two-band support), and NoConvergence is
    raised when V has no well there.

    Returns
    -------
    x : longdouble
    curvature : float
        V''(x); callers fall back to cruder seed widths when <= 0.
    """
    return _scan(field, bool(positive))[0]


def wells(field):
    """Every local minimizer of V, by ascending V, the global one first.

    An even field's wells off 0 come in mirror pairs (x, -x), x > 0
    first.  If V''(0) < 0 at an even field, all of them are mirror
    images of the wells on x > 0, the search the two-band seed runs.
    """
    found = _scan(field, bool(field.is_even and field.eval(0.0, 2) < 0.0))
    return tuple(w for x, _ in found for w in ((x, -x) if field.is_even and x else (x,)))


@lru_cache(maxsize=64)
def _scan(field, positive):
    """The wells (x, V''(x)) of V on x > 0 if positive, else on x >= 0
    for an even field, by ascending V in extended precision."""
    found = (_polynomial_wells if field.is_polynomial else _grid_wells)(field, positive)
    if not found:
        raise NoConvergence(f"no {'positive ' * positive}well: V' has no sign change from - to +")
    return tuple(sorted(found, key=lambda w: field.eval(w[0], 0, dtype=LONG)))


def _polynomial_wells(field, positive):
    """Wells among the roots of V' = x^m r(x^g), r(0) != 0: 0 when m is
    odd and r(0) > 0, and the real g-th roots of r's real roots whose
    refined curvature is positive."""
    dv = np.zeros(max(int(field.max_degree), 1))
    for _, k, c in field.terms():
        if k >= 1.0:
            dv[int(k) - 1] += k * c
    powers = np.flatnonzero(dv)
    if powers.size == 0:
        return []
    m = int(powers[0])
    g = max(int(np.gcd.reduce(powers - m)), 1)
    ys = P.polyroots(dv[m::g])  # a root within 1e-7 relative of the axis counts as real
    ys = ys.real[np.abs(ys.imag) <= 1e-7 * np.maximum(1.0, np.abs(ys))]
    xs = np.abs(ys) ** (1.0 / g)
    seeds = np.concatenate([xs[ys > 0.0], -xs[ys < 0.0] if g % 2 else -xs[ys > 0.0]])
    if positive or field.is_even:
        seeds = seeds[seeds > 0.0]
    found = [refine_minimizer(field, x, keep_positive=positive) for x in set(seeds.tolist())]
    found = [w for w in found if w[1] > 0.0]
    if m % 2 and dv[m] > 0.0 and not positive:
        found.append(refine_minimizer(field, 0.0))
    return found


def _grid_wells(field, positive):
    """Wells at the local minima of V on a grid of _GRID_N points.  On
    x > 0 an argmin at the first point means V rises from 0: no well."""
    L = search_radius(field)
    if positive:
        xs = np.linspace(L / _GRID_N, L, _GRID_N)
    else:
        xs = np.linspace(-L, L, _GRID_N)
        if field.is_even:
            xs = xs[_GRID_N // 2:]  # the right half of the same grid, 0 included
    vals = field.eval(xs, 0)
    if positive and int(np.argmin(vals)) == 0:
        return []
    idx = (np.flatnonzero((vals[1:-1] < vals[:-2]) & (vals[1:-1] <= vals[2:])) + 1).tolist()
    if field.is_even and not positive and vals[0] <= vals[1]:
        idx.insert(0, 0)
    return [refine_minimizer(field, float(xs[i]), keep_positive=positive) for i in idx]
