"""Polynomial machinery tied to the square-root kernel R(xi, u).

R(xi, u) = sqrt(prod(xi - u_i)) over the 2g+2 endpoints, with the branch
that is positive for xi > u_1.  This module expands R and 1/R in powers
of 1/mu (``gamma_coeffs``), builds the normalized polynomials P_{g,n}
whose ratio with R has prescribed growth and zero gap integrals
(``pgn_poly``), extracts the moments q_{g,k} of the field against 1/R
(``qgk``), and assembles the degree-(2g+1) polynomial Q(xi, u) whose
coefficients all vanish exactly at equilibrium endpoint configurations
(``q_polynomial``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInterval, SingularSystem
from .field import LONG, FieldSpec, LocalField, PowerTerm
from .quadrature import band_integral
from .epd import EpdSpec, phi_eval, phi_eval_anchored

__all__ = [
    "EndpointVector",
    "QPolynomial",
    "gamma_coeffs",
    "pgn_poly",
    "qgk",
    "q_polynomial",
]


@dataclass(frozen=True)
class EndpointVector:
    """Strictly decreasing endpoints u_1 > ... > u_{2g+2} for g bands + 1.

    ``u`` always holds plain floats.  Solvers working near a collapse
    point additionally supply ``base`` (extended-precision anchors) and
    ``offsets`` (small floats) with u_i = base_i + offsets_i; evaluation
    then forms every endpoint difference from the offsets exactly, far
    below the resolution of a single rounded float.
    """

    g: int
    u: tuple
    base: tuple = None
    offsets: tuple = None

    def __post_init__(self):
        if self.g not in (0, 1):
            raise ValueError("only g in {0, 1} is supported")
        n = 2 * self.g + 2
        if (self.base is None) != (self.offsets is None):
            raise ValueError("base and offsets must be given together")
        if self.base is not None:
            base = tuple(LONG(b) for b in self.base)
            offsets = tuple(float(o) for o in self.offsets)
            if len(base) != n or len(offsets) != n:
                raise InvalidInterval(
                    f"g = {self.g} needs {n} anchored endpoints"
                )
            object.__setattr__(self, "base", base)
            object.__setattr__(self, "offsets", offsets)
            u = tuple(float(b + LONG(o)) for b, o in zip(base, offsets))
            object.__setattr__(self, "u", u)
            prec = [b + LONG(o) for b, o in zip(base, offsets)]
            if any(prec[i] <= prec[i + 1] for i in range(n - 1)):
                raise InvalidInterval(f"endpoints must strictly decrease: {u}")
            return
        u = tuple(float(x) for x in self.u)
        object.__setattr__(self, "u", u)
        if len(u) != n:
            raise InvalidInterval(
                f"g = {self.g} needs {n} endpoints, got {len(u)}"
            )
        if any(u[i] <= u[i + 1] for i in range(len(u) - 1)):
            raise InvalidInterval(f"endpoints must strictly decrease: {u}")

    @classmethod
    def pair(cls, u1, u2):
        return cls(0, (u1, u2))

    @classmethod
    def pair_anchored(cls, anchor, o1, o2):
        """g = 0 endpoints anchor+o1 > anchor+o2 kept in split precision."""
        return cls(0, (), base=(anchor, anchor), offsets=(o1, o2))

    @classmethod
    def symmetric(cls, u1, u2):
        """Two mirrored bands (-u1, -u2) and (u2, u1) with 0 < u2 < u1."""
        if not 0.0 < u2 < u1:
            raise InvalidInterval(f"need 0 < u2 < u1, got u1={u1}, u2={u2}")
        return cls(1, (u1, u2, -u2, -u1))

    @classmethod
    def symmetric_anchored(cls, anchor, o1, o2):
        """Mirrored bands with the right band endpoints anchor+o1 > anchor+o2."""
        a = LONG(anchor)
        return cls(
            1, (), base=(a, a, -a, -a), offsets=(o1, o2, -o2, -o1)
        )

    @property
    def precise(self):
        """Endpoint values as a longdouble array (exact for anchored vectors)."""
        if self.base is not None:
            return np.array(
                [b + LONG(o) for b, o in zip(self.base, self.offsets)],
                dtype=LONG,
            )
        return np.array(self.u, dtype=LONG)

    @property
    def shared_anchor(self):
        """The common anchor when every endpoint uses one, else None."""
        if self.base is None:
            return None
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


def _gap_moments(u: EndpointVector, max_power, m=None):
    """Integrals of xi^p/|R| over each gap, p = 0..max_power; rows per gap."""
    rows = []
    for gap_lo, gap_hi in u.gaps:
        def f(mu, p):
            return mu**p / np.sqrt(_outside_product(mu, u, gap_lo, gap_hi))

        rows.append(
            [
                band_integral(lambda mu, p=p: f(mu, p), gap_hi, gap_lo, m=m)
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


def _qgk_band_quadrature(u: EndpointVector, k, term, m=None):
    """Real band-integral route for terms without a Laurent expansion."""
    g = u.g
    total = 0.0
    for j, (lo, hi) in enumerate(u.bands):
        lf = LocalField(
            FieldSpec(vstar=(term,), p_coeffs=(0.0, 1.0), t=0.0), lo, hi, 0
        )

        def f(mu):
            rest = _outside_product(mu, u, lo, hi)
            return lf.deriv(lf.to_delta(mu), 0) * mu ** (g - k) / np.sqrt(rest)

        total += (-1.0) ** j * band_integral(f, hi, lo, m=m)
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


def _poly_from_roots(roots):
    """Monic polynomial with the given roots, longdouble, descending."""
    coeffs = np.array([1.0], dtype=LONG)
    for r in roots:
        coeffs = np.convolve(coeffs, np.array([1.0, -r], dtype=LONG))
    return coeffs


def _psi_values(u: EndpointVector, field: FieldSpec, m):
    """Psi_g at each endpoint, evaluated at the vector's full precision.

    With a shared anchor the tensor arguments are formed from the small
    offsets exactly; otherwise the extended-precision endpoint values are
    used directly.  Accumulation is longdouble in both routes.
    """
    spec = EpdSpec(u.g, "psi", field)
    anchor = u.shared_anchor
    if anchor is not None:
        off = np.asarray(u.offsets, dtype=float)
        lo = float(anchor + LONG(min(off)))
        hi = float(anchor + LONG(max(off)))
        lf = LocalField(field, lo, hi, max_order=spec.order, center=anchor)
        return phi_eval_anchored(spec, lf, off, off, m=m, dtype=LONG)
    pts = u.precise
    return phi_eval(spec, pts, pts, m=m, dtype=LONG)


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


def q_polynomial(u: EndpointVector, field: FieldSpec, m=None):
    """Assemble Q(xi, u); all 2g+2 coefficients vanish at equilibrium."""
    pts = u.precise
    psis = _psi_values(u, field, m)
    acc = np.zeros(2 * u.g + 2, dtype=LONG)
    for i in range(len(pts)):
        basis = _poly_from_roots([pts[l] for l in range(len(pts)) if l != i])
        acc -= LONG(psis[i]) * basis
    _add_pgn_terms(acc, u, field)
    return QPolynomial(tuple(float(c) for c in acc))
