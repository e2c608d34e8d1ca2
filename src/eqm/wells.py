"""The well table of an external field: solver anchors and probes.

A well is a local minimizer of V, where V' changes sign from - to +.
``_scan`` lists every well once per field by ascending V (an even
field's on x >= 0); ``wells`` and ``global_minimizer`` read that table.
For a polynomial field the wells are real roots of V', from companion-
matrix eigenvalues (``np.polynomial.polynomial.polyroots``) after the
zero root is factored out, so a well at 0 is exactly 0.0; a near-double
root that comes back as a complex pair is bisected from a sign change
of V' in long double.  A field with absolute-power terms takes the
local minima of a grid over a radius where every pair of power terms is
balanced.  Extended-precision Newton
on V' then sharpens each well far below float resolution.  Solvers
anchor their endpoint offsets at a well, so its accuracy bounds the
achievable residual floor on very narrow supports.
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


def refine_minimizer(field, x0):
    """Newton iteration on V' in extended precision from a seed x0.

    Stops once the update falls below 1e-18 relative, i.e. at the
    longdouble resolution of the well location; leaves x0 untouched when
    the local curvature is not positive.  An even field's well is
    folded to |x|.

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
        done = abs(xn - x) <= LONG(1e-18) * max(LONG(1.0), abs(xn))
        x = xn
        if done:
            break
    if field.is_even:
        x = abs(x)
    return x, float(field.eval(x, 2, dtype=LONG))


def global_minimizer(field, positive=False):
    """The global minimizer of V, the first entry of the well table, or
    with positive its first entry on x > 0 (the anchor of the right band
    of a symmetric two-band support, NoConvergence if there is none).
    Of an even field's two mirror minimizers the right-hand one is
    returned.

    Returns
    -------
    x : longdouble
    curvature : float
        V''(x); callers fall back to cruder seed widths when <= 0.
    """
    found = [w for w in _scan(field) if w[0] > 0.0 or not positive]
    if not found:
        raise NoConvergence("no positive well: V has no local minimizer on x > 0")
    return found[0]


def wells(field):
    """Every local minimizer of V, by ascending V, the global one first.
    An even field's wells off 0 come in mirror pairs (x, -x), x > 0
    first."""
    return tuple(w for x, _ in _scan(field) for w in ((x, -x) if field.is_even and x else (x,)))


@lru_cache(maxsize=64)
def _scan(field):
    """The wells (x, V''(x)) of V, on x >= 0 for an even field, by
    ascending V in extended precision: the one search per field."""
    found = (_polynomial_wells if field.is_polynomial else _grid_wells)(field)
    if not found:
        raise NoConvergence("no well: V' has no sign change from - to +")
    return tuple(sorted(found, key=lambda w: field.eval(w[0], 0, dtype=LONG)))


def _polynomial_wells(field):
    """Wells among the roots of V' = x^m r(x^g), r(0) != 0: 0 when m is
    odd and r(0) > 0, and the real g-th roots of r's real roots whose
    refined curvature is positive.  A near-double root of r can come
    back as a complex pair within the cut; its well is bisected from
    the - to + sign change of V' between the pair's real part and that
    part moved by the cut either way."""
    dv = np.zeros(max(int(field.max_degree), 1))
    for _, k, c in field.terms():
        if k >= 1.0:
            dv[int(k) - 1] += k * c
    powers = np.flatnonzero(dv)
    if powers.size == 0:
        return []
    m = int(powers[0])
    g = max(int(np.gcd.reduce(powers - m)), 1)
    ys = P.polyroots(dv[m::g])
    # a complex pair this close to the axis may be a near-double real root
    cut = 1e-7 * np.maximum(1.0, np.abs(ys))
    seeds = np.concatenate(_branches(ys.real[ys.imag == 0.0], g, field.is_even))
    found = [refine_minimizer(field, x) for x in set(seeds.tolist())]
    found = [w for w in found if w[1] > 0.0]
    pair = (ys.imag > 0.0) & (ys.imag <= cut)
    for y, spread in zip(ys.real[pair], cut[pair]):
        for xs in _branches(np.array([y - spread, y, y + spread]), g, field.is_even):
            xs = np.sort(xs).astype(LONG)
            d1 = field.eval(xs, 1, dtype=LONG)
            turns = np.flatnonzero((d1[:-1] < 0.0) & (d1[1:] >= 0.0))
            found += [_bisect_well(field, xs[i], xs[i + 1]) for i in turns]
    if m % 2 and dv[m] > 0.0:
        found.append(refine_minimizer(field, 0.0))
    return found


def _branches(ys, g, even):
    """The real x with x^g = y for each real y: the positive roots and
    the negative ones, or for an even field the positive roots only."""
    xs = np.abs(ys) ** (1.0 / g)
    positive, negative = xs[ys > 0.0], -xs[ys < 0.0] if g % 2 else -xs[ys > 0.0]
    return [positive] if even else [positive, negative]


def _bisect_well(field, a, b):
    """The root of V' in (a, b], V'(a) < 0 <= V'(b), bisected to long
    double resolution, with V'' there."""
    while a < (a + b) / 2 < b:
        mid = (a + b) / 2
        if field.eval(mid, 1, dtype=LONG) < 0.0:
            a = mid
        else:
            b = mid
    return b, float(field.eval(b, 2, dtype=LONG))


def _grid_wells(field):
    """Wells at the local minima of V on _GRID_N points over [-L, L],
    or for an even field on 0 and _GRID_N points over (0, L], where 0 is
    a well when V does not fall from it."""
    L = search_radius(field)
    if field.is_even:
        xs = np.concatenate([[0.0], np.linspace(L / _GRID_N, L, _GRID_N)])
    else:
        xs = np.linspace(-L, L, _GRID_N)
    vals = field.eval(xs, 0)
    idx = (np.flatnonzero((vals[1:-1] < vals[:-2]) & (vals[1:-1] <= vals[2:])) + 1).tolist()
    if field.is_even and vals[0] <= vals[1]:
        idx.insert(0, 0)
    return [refine_minimizer(field, float(xs[i])) for i in idx]
