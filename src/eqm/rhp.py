"""Polynomial machinery tied to the square-root kernel R(xi, u).

R(xi, u) = sqrt(prod(xi - u_i)) over the 2g+2 endpoints, with the branch
that is positive for xi > u_1.  This module expands R and 1/R in powers
of 1/mu (``gamma_coeffs``), builds the normalized polynomials P_{g,n}
whose ratio with R has prescribed growth and zero gap integrals
(``pgn_poly``), extracts the moments q_{g,k} of the field against 1/R
(``qgk``), and assembles the degree-(2g+1) polynomial Q(xi, u) whose
coefficients all vanish exactly at equilibrium endpoint configurations
(``q_polynomial``).  ``band_factor`` is the one entry that gives the
band factor Phi_g, to the density samplers and to the certificate alike:
for a polynomial field in closed form from the same 1/R series
(``band_factor_coeffs``), for any other from its bands' Chebyshev series
of V'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import chebyshev_angles, chebyshev_coeffs, chop
from .errors import InvalidInterval, SingularSystem
from .field import LONG, FieldSpec, LocalField, PowerTerm
from .quadrature import band_field, band_integral, field_pv_band_integral_delta
from .epd import EpdSpec, phi_eval, phi_eval_anchored

__all__ = [
    "EndpointVector",
    "QPolynomial",
    "band_factor",
    "gamma_coeffs",
    "pgn_poly",
    "qgk",
    "q_polynomial",
]

# Node counts of a band's Chebyshev transform (``_band_series``): it
# starts at _MIN_NODES and doubles up to _MAX_NODES, past which the band
# takes quadrature.  Measured on |xi|^4.5 + t xi at 401 points: bands
# clear of the kink at 0 keep 6-34 terms at 64 nodes (|t| >= 1), one
# whose kink lies 0.3% of its half width outside keeps 103 at 256, and
# one with the kink inside still needs 900-3800 at 8192, where summing
# them costs more than the quadrature.  Its three failed transforms
# cost 0.26 ms, against 8 ms for its quadrature.
_MIN_NODES = 64
_MAX_NODES = 256
# Longdouble ulps, of the midpoint, within which two bands of an even
# field count as mirror images (``_mirror_band``).  The sampler's
# mirror edges, -2c - d2 and -2c - d1 around an anchor c, land within 2
# of the right band's mirror image (90 solved |xi|^a pairs).
_MIRROR_ULPS = 4


@dataclass(frozen=True)
class EndpointVector:
    """Strictly decreasing endpoints u_1 > ... > u_{2g+2} for g bands + 1.

    u_i = base_i + offsets_i, base in extended precision; ``u`` holds
    the rounded floats, and a plain ``u`` is its own base.  A solution's
    ``endpoint_vector()`` bases its edges at its anchor (and its mirror)
    so that ``q_polynomial`` sees the solved edges rather than their
    rounded floats; with one shared anchor it forms every endpoint
    difference from the offsets exactly.
    """

    g: int
    u: tuple
    base: tuple = None
    offsets: tuple = None

    def __post_init__(self):
        if (self.base is None) != (self.offsets is None):
            raise ValueError("base and offsets must be given together")
        if self.base is None:
            base = tuple(LONG(float(x)) for x in self.u)
            offsets = (0.0,) * len(base)
        else:
            base = tuple(LONG(b) for b in self.base)
            offsets = tuple(float(o) for o in self.offsets)
        n = 2 * self.g + 2
        if len(base) != n or len(offsets) != n:
            raise InvalidInterval(
                f"g = {self.g} needs {n} endpoints, got {len(base)}"
            )
        prec = [b + LONG(o) for b, o in zip(base, offsets)]
        u = tuple(float(x) for x in prec)
        if any(prec[i] <= prec[i + 1] for i in range(n - 1)):
            raise InvalidInterval(f"endpoints must strictly decrease: {u}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "offsets", offsets)

    @property
    def precise(self):
        """Endpoint values base + offsets as a longdouble array."""
        return np.array(
            [b + LONG(o) for b, o in zip(self.base, self.offsets)], dtype=LONG
        )

    @property
    def shared_anchor(self):
        """The common anchor when every endpoint uses one, else None."""
        first = self.base[0]
        if all(b == first for b in self.base):
            return first
        return None

    @property
    def bands(self):
        """Support intervals (lo, hi), rightmost first."""
        u = self.u
        return tuple((u[2 * k + 1], u[2 * k]) for k in range(self.g + 1))

    @property
    def gaps(self):
        """Holes between consecutive bands, rightmost first."""
        u = self.u
        return tuple((u[2 * k + 2], u[2 * k + 1]) for k in range(self.g))


@dataclass(frozen=True)
class QPolynomial:
    """Degree 2g+1 polynomial, coefficients descending by power."""

    coefficients: tuple

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def __call__(self, xi):
        acc = 0.0
        for c in self.coefficients:
            acc = acc * xi + c
        return acc

    @property
    def max_abs_coefficient(self):
        return max(abs(c) for c in self.coefficients)


def _sqrt_factor_series(count, inverse):
    """Taylor coefficients of (1 - x)^(1/2) or (1 - x)^(-1/2)."""
    a = np.empty(count, dtype=LONG)
    a[0] = 1.0
    for m in range(1, count):
        if inverse:
            a[m] = a[m - 1] * (m - 0.5) / m
        else:
            a[m] = a[m - 1] * (m - 1.5) / m
    return a


def _gamma_series(u, count, inverse):
    """Coefficients of prod(1 - u_i/mu)^(+-1/2) in powers of 1/mu."""
    base = _sqrt_factor_series(count, inverse)
    total = np.zeros(count, dtype=LONG)
    total[0] = 1.0
    powers = np.arange(count)
    for ui in u:
        factor = base * np.power(LONG(ui), powers)
        total = np.convolve(total, factor)[:count]
    return total


def band_factor_coeffs(lf, roots):
    """Ascending coefficients in delta of Phi_g(center + delta) for a
    polynomial field, g = len(roots)/2 - 1.

    2 Phi_g is the polynomial part at infinity of V'/sqrt(R), R the
    product of (xi - u_i) with sqrt(R) ~ xi^(g+1): the classical density
    psi = (1/2pi) sqrt|R| h of a polynomial field (Deift, Kriecherbauer
    & McLaughlin 1998, J. Approx. Theory 95).  In offsets delta from the
    center of lf the roots are the endpoint offsets; V' has the exact
    Taylor coefficients c_j of lf, and 1/sqrt(R) = delta^-(g+1) times
    sum_k gamma_k delta^-k, so coefficient n is sum_k c_(n+g+1+k)
    gamma_k / 2, summed in extended precision.  No quadrature runs.
    """
    lead = len(roots) // 2  # g + 1
    vp = lf._coeffs_for(1, dtype=LONG)[lead:]
    if vp.size == 0:
        return np.zeros(1)
    gam = _gamma_series(np.asarray(roots, dtype=LONG), vp.size, inverse=True)
    return np.array([0.5 * np.dot(vp[n:], gam[:vp.size - n])
                     for n in range(vp.size)], dtype=float)


def band_factor(lf, roots):
    """Phi_g as a function of float offsets dx from the center of lf, of
    any shape, for the band edges center + roots.

    The one band factor of the density samplers and the certificate.
    roots are the 2g+2 edge offsets, descending, in longdouble so that
    an edge far from the center stays exact.  A polynomial field takes
    the closed form (``band_factor_coeffs``) and returns it as a
    ``numpy.polynomial.Polynomial`` in dx, whose ``coef`` the
    certificate reads Phi's real roots from.  Any other field sums the
    bands' principal values of V' (``_band_integral_factor``), each from
    its band's Chebyshev series (``_band_series``) where one resolves
    it, else by quadrature.  The series are built here, once for every
    call of the returned function.
    """
    if lf.field.is_polynomial:
        return np.polynomial.Polynomial(band_factor_coeffs(lf, roots))
    roots = np.asarray(roots, dtype=LONG)
    bands = list(_bands(lf, roots))
    series = []
    for j in range(len(bands)):
        k = _mirror_band(bands, j)
        if k is None:
            series.append(_band_series(bands, j))
        else:
            # a mirror of a band no series resolves takes quadrature too
            series.append(None if series[k] is None else _folded(series[k]))
    return lambda dx: _band_factor_sum(lf, roots, bands, series, dx)


def _band_integral_factor(lf, roots, dx):
    """The band factor as band integrals of V', on and off the support.

    Phi_g(x) = -(1/2pi) sum_j (-1)^j PV int_{band j} V'/((x-mu) sqrt|R|)
    + [x off the support] V'(x)/(2 R(x)), bands j counted from the right.
    With band j's integrand F_j(mu)/sqrt((hi_j-mu)(mu-lo_j)), the band
    nearest x integrates F_j(mu) - F_j(x) instead: that removes 0 on the
    band and pi F_j(x)/R_j(x) off it, which is the V'(x)/(2 R(x)) term
    exactly, so no term grows near an edge.  Every band's term here is
    a quadrature (``quadrature.field_pv_band_integral_delta``), with the
    edges and points as offsets from a LocalField centered at the band's
    midpoint: the sum a band that no series resolves takes, and the
    reference that the series route is tested against.
    """
    roots = np.asarray(roots, dtype=LONG)
    bands = list(_bands(lf, roots))
    return _band_factor_sum(lf, roots, bands, [None] * len(bands), dx)


def _bands(lf, roots):
    """(LocalField centred on band j, every edge as an offset from that
    center), bands j counted from the right."""
    for j in range(len(roots) // 2):
        band = LocalField(lf.field,
                          lf.center_long + 0.5 * (roots[2 * j] + roots[2 * j + 1]))
        yield band, roots - (band.center_long - lf.center_long)


def _band_factor_sum(lf, roots, bands, series, dx):
    """-(1/2pi) sum_j (-1)^j times band j's term at center + dx: from
    its Chebyshev coefficients series[j] (``_series_term``), or by
    quadrature where series[j] is None."""
    flat = np.asarray(dx, dtype=float).ravel()
    hi, lo = roots[0::2].astype(float), roots[1::2].astype(float)
    nearest = np.argmin(np.abs(flat - 0.5 * (hi + lo)[:, None])
                        - 0.5 * (hi - lo)[:, None], axis=0)
    points = flat.astype(LONG)
    total = np.zeros(flat.size)
    for j, ((band, d), c) in enumerate(zip(bands, series)):
        # F_j(x) at the points reads the field centred on the band too
        x = (points - (band.center_long - lf.center_long)).astype(float)
        d1, d2 = float(d[2 * j]), float(d[2 * j + 1])
        others = np.delete(d, [2 * j, 2 * j + 1])
        if c is not None:
            total += (-1.0) ** j * _series_term(c, band, d1, d2, others, x,
                                                nearest == j)
            continue
        for near in (True, False):
            pick = (nearest == j) == near
            if pick.any():
                total[pick] += (-1.0) ** j * field_pv_band_integral_delta(
                    band, d1, d2, x[pick], others=others, subtract=near)
    return (-total / (2.0 * math.pi)).reshape(np.shape(dx))


def _band_series(bands, j):
    """Chebyshev coefficients of F_j = V'/sqrt|prod (mu - r)|, r over the
    other edges, on band j; None where no series within _MAX_NODES
    nodes resolves F_j.

    F_j is sampled in longdouble (``quadrature.band_field``) at n
    first-kind Chebyshev nodes of the band, in offsets from its center,
    and transformed by one DCT (``density.chebyshev_coeffs``), n
    doubling from _MIN_NODES.  The series is resolved once
    ``density.chop`` keeps at most n/2 terms: the coefficients from
    there to n, and so those that alias onto the kept ones, all lie
    under eps * max|c|.  A band with an |xi|^a kink inside never gets
    there; it keeps quadrature.
    """
    band, d = bands[j]
    d1, d2 = float(d[2 * j]), float(d[2 * j + 1])
    others = np.delete(d, [2 * j, 2 * j + 1])
    n = _MIN_NODES
    while n <= _MAX_NODES:
        nodes = 0.5 * (d1 + d2) + 0.5 * (d1 - d2) * np.cos(chebyshev_angles(n))
        c = chop(chebyshev_coeffs(band_field(band, nodes, others).astype(float)))
        if len(c) <= n // 2:
            return c
        n *= 2
    return None


def _mirror_band(bands, j):
    """The earlier band k whose mirror image band j is, or None.

    For an even field V' is odd, so on the mirror image of band k,
    F_j(s) = -F_k(-s) in band coordinates: band j takes k's series
    folded (``_folded``), or k's quadrature where no series resolves
    k.  Band k is j's mirror when the sum of their midpoints and the
    difference of their half widths each lie within _MIRROR_ULPS
    longdouble ulps of the midpoint: the rounding of a mirror pair's
    edges formed from one anchor.
    """
    band, d = bands[j]
    if not band.field.is_even:
        return None
    half = 0.5 * (d[2 * j] - d[2 * j + 1])
    tol = _MIRROR_ULPS * np.finfo(LONG).eps * abs(band.center_long)
    for k in range(j):
        other, dk = bands[k]
        if (abs(other.center_long + band.center_long) <= tol
                and abs(0.5 * (dk[2 * k] - dk[2 * k + 1]) - half) <= tol):
            return k
    return None


def _folded(c):
    """The Chebyshev coefficients -(-1)^n c_n of -F(-s) for those c of F."""
    return np.where(np.arange(len(c)) % 2 == 1, c, -c)


def _series_term(c, band, d1, d2, others, x, near):
    """The principal value of F/((x - mu) sqrt((d1 - mu)(mu - d2))) over
    the band (d1, d2) at the offsets x, from F's Chebyshev coefficients
    c (Olver 2011, Math. Comp. 80; Trefethen, ATAP ch. 19).

    With y the band coordinate of x, PV int T_k(s)/((y - s) sqrt(1 -
    s^2)) ds is -pi U_(k-1)(y) on the band and pi sgn(y) w^k /
    sqrt(y^2 - 1) off it, w = sgn(y)/(|y| + sqrt(y^2 - 1)); the first
    sum runs by Clenshaw, the second by Horner in w.  A point off its
    nearest band (near) subtracts F(x), formed in longdouble as the
    quadrature forms it.  Within arccosh|y| <= 1/K of the edge, K the
    number of terms, that difference over sqrt(y^2 - 1) cancels; there
    it equals the U sum continued, whose K terms stay within a factor e
    of their size on the band, and which it takes instead.
    """
    dmid, half = 0.5 * (d1 + d2), 0.5 * (d1 - d2)
    y = (x - dmid) / half
    e = np.abs(y) - 1.0
    inner = (e < 0.0) | (near & (e < math.cosh(1.0 / len(c)) - 1.0))
    out = np.empty(y.shape)
    twice = 2.0 * y[inner]
    b1 = b2 = np.zeros(twice.shape)
    for ck in c[:0:-1]:
        b1, b2 = ck + twice * b1 - b2, b1
    out[inner] = -b1
    outer = ~inner
    e, y = e[outer], y[outer]
    root = np.sqrt(e * (e + 2.0))
    w = np.copysign(1.0 / (e + 1.0 + root), y)
    s = np.full(w.shape, c[-1])
    for ck in c[-2::-1]:
        s = s * w + ck
    sub = near[outer]
    s[sub] = (s[sub] - band_field(band, x[outer][sub], others)).astype(float)
    out[outer] = np.sign(y) * s / root
    return math.pi / half * out


def gamma_coeffs(u: EndpointVector, count):
    """Gamma_0 ... Gamma_{count-1} of R(mu, u) = mu^{g+1}(Gamma_0 + Gamma_1/mu + ...)."""
    if count > 12:
        raise ValueError("count > 12 exceeds the series precision budget")
    return _gamma_series(u.u, count, inverse=False).astype(float)


def _outside_product(mu, u: EndpointVector, lo, hi):
    """prod |mu - x| over the endpoints x outside [lo, hi], in u order."""
    rest = np.ones_like(mu)
    for x in u.u:
        if not lo <= x <= hi:
            rest = rest * np.abs(mu - x)
    return rest


def _gap_moments(u: EndpointVector, max_power):
    """Integrals of xi^p/|R| over each gap, p = 0..max_power; rows per gap."""
    rows = []
    for gap_lo, gap_hi in u.gaps:
        def f(mu, p):
            return mu**p / np.sqrt(_outside_product(mu, u, gap_lo, gap_hi))

        rows.append(
            [
                band_integral(lambda mu, p=p: f(mu, p), gap_hi, gap_lo)
                for p in range(max_power + 1)
            ]
        )
    return rows


def pgn_poly(u: EndpointVector, n):
    """Monic degree g+n polynomial with P/R = xi^{n-1} + O(1/xi^2) and zero gap integrals.

    Coefficients returned descending.  The n growth conditions come from
    the 1/R series; the g gap conditions are quadrature moments.
    """
    if n < 0 or n > u.g + 6:
        raise ValueError("n out of the supported range 0..g+6")
    g = u.g
    d = g + n
    if d == 0:
        return np.array([1.0])
    gt = _gamma_series(u.u, n + 1, inverse=True)
    rows = []
    rhs = []
    for s in range(1, n + 1):
        row = np.zeros(d, dtype=LONG)
        for j in range(1, min(s, d) + 1):
            row[j - 1] = gt[s - j]
        rows.append(row)
        rhs.append(-gt[s])
    if g:
        moments = _gap_moments(u, d)
        for mom in moments:
            row = np.array([mom[d - j] for j in range(1, d + 1)], dtype=LONG)
            rows.append(row)
            rhs.append(-LONG(mom[d]))
    a_mat = np.array(rows, dtype=float)
    b_vec = np.array(rhs, dtype=float)
    try:
        sol = np.linalg.solve(a_mat, b_vec)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"P_(g,n) system is singular for u = {u.u}") from exc
    if not np.all(np.isfinite(sol)):
        raise SingularSystem(f"P_(g,n) system produced non-finite coefficients for u = {u.u}")
    return np.concatenate(([1.0], sol))


def _qgk_monomial(u: EndpointVector, k, power, coefficient, gt):
    """Laurent-coefficient route: c mu^p gives c * gt[p - k]."""
    idx = power - k
    if idx < 0:
        return 0.0
    return coefficient * float(gt[idx])


def _qgk_band_quadrature(u: EndpointVector, k, term):
    """Real band-integral route for terms without a Laurent expansion."""
    g = u.g
    total = 0.0
    for j, (lo, hi) in enumerate(u.bands):
        def f(mu):
            rest = _outside_product(mu, u, lo, hi)
            return term.deriv(mu, 0) * mu ** (g - k) / np.sqrt(rest)

        total += (-1.0) ** j * band_integral(f, hi, lo)
    return total / math.pi


def qgk(u: EndpointVector, k, field: FieldSpec):
    """Moment q_{g,k}: residue-type coefficient of V(mu) mu^{g-k} / R(mu).

    Monomial terms use the exact Laurent coefficient against the 1/R
    series; absolute-power terms fall back to band quadrature with the
    on-cut magnitude of R, oriented so both routes agree on monomials.
    """
    if not 0 <= k <= u.g:
        raise ValueError("k must satisfy 0 <= k <= g")
    terms = field.terms()
    max_power = max((a for kind, a, c in terms if kind == "monomial"), default=0)
    order = max(int(math.ceil(max_power)) - k + 1, 1)
    gt = _gamma_series(u.u, order, inverse=True)
    total = 0.0
    for kind, a, c in terms:
        if kind == "monomial":
            total += _qgk_monomial(u, k, int(round(a)), c, gt)
        else:
            total += _qgk_band_quadrature(u, k, PowerTerm(kind, a, c))
    return total


def _psi_values(u: EndpointVector, field: FieldSpec):
    """Psi_g at each endpoint, evaluated at the vector's full precision.

    With a shared anchor the tensor arguments are formed from the small
    offsets exactly; otherwise the extended-precision endpoint values are
    used directly.  Accumulation is longdouble in both routes.
    """
    spec = EpdSpec(u.g, "psi", field)
    anchor = u.shared_anchor
    if anchor is not None:
        off = np.asarray(u.offsets, dtype=float)
        return phi_eval_anchored(spec, LocalField(field, anchor), off, off, dtype=LONG)
    pts = u.precise
    return phi_eval(spec, pts, pts, dtype=LONG)


def _add_pgn_terms(acc, u: EndpointVector, field: FieldSpec):
    """Add P_{g,0}/pi + sum_k c_k P_{g,k} into acc (descending, longdouble).

    Each polynomial is added into the tail of acc in turn, so the caller
    fixes the summation order by what acc already holds.
    """
    g = u.g
    p0 = pgn_poly(u, 0)
    acc[len(acc) - len(p0):] += np.asarray(p0, dtype=LONG) / LONG(math.pi)
    if g:
        gammas = gamma_coeffs(u, g + 1)
        for k in range(1, g + 1):
            ck = 2.0 * k * sum(
                gammas[l] * qgk(u, k + l, field) for l in range(0, g - k + 1)
            )
            pk = pgn_poly(u, k)
            acc[len(acc) - len(pk):] += LONG(ck) * np.asarray(pk, dtype=LONG)


def q_polynomial(u: EndpointVector, field: FieldSpec):
    """Assemble Q(xi, u); all 2g+2 coefficients vanish at equilibrium."""
    pts = u.precise
    psis = _psi_values(u, field)
    acc = np.zeros(2 * u.g + 2, dtype=LONG)
    for i in range(len(pts)):
        acc -= LONG(psis[i]) * np.poly(np.delete(pts, i))  # longdouble, monic
    _add_pgn_terms(acc, u, field)
    return QPolynomial(tuple(float(c) for c in acc))
