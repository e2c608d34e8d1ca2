"""External fields V(xi) = Vstar(xi) + t*p(xi) built from power terms.

A field is a finite sum of monomial terms c*xi^k (integer k >= 0) and
absolute-power terms c*|xi|^a (real a > 3), plus a tilt t*p(xi) where p
is a monic polynomial given by its ascending coefficient list.
Derivatives up to order 4 are evaluated termwise.

Large-|t| configurations place the support on a band whose width is many
orders of magnitude below its center, where direct evaluation of V and
its derivatives loses most significant digits to cancellation between
terms.  ``LocalField`` therefore re-expands the field around a center in
extended precision once, after which evaluations at center+delta are
ordinary Horner sums in the small local coordinate delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError

__all__ = [
    "PowerTerm",
    "FieldSpec",
    "LocalField",
    "validate_growth",
    "potential_difference",
    "field_from_json",
    "field_to_json",
    "polynomial_field",
]

LONG = np.longdouble

_MAX_ORDER = 4


def _falling(a, order):
    """a*(a-1)*...*(a-order+1) with the empty product equal to 1."""
    out = LONG(1.0)
    for i in range(order):
        out = out * (LONG(a) - i)
    return out


@dataclass(frozen=True)
class PowerTerm:
    """One power-law term of an external field.

    Parameters
    ----------
    kind : str
        Either ``"monomial"`` (c*xi^k) or ``"abs_power"`` (c*|xi|^a).
    exponent : float
        Integer >= 0 for monomials; real > 3 for absolute powers.
    coefficient : float
        Real prefactor.
    """

    kind: str
    exponent: float
    coefficient: float

    def __post_init__(self):
        if self.kind not in ("monomial", "abs_power"):
            raise ValueError(f"unknown term kind {self.kind!r}")
        if self.kind == "monomial":
            k = self.exponent
            if k != int(k) or k < 0:
                raise ValueError("monomial exponent must be an integer >= 0")
        else:
            if not self.exponent > 3:
                raise ValueError("abs_power exponent must exceed 3")

    @property
    def is_even(self):
        if self.kind == "abs_power":
            return True
        return int(self.exponent) % 2 == 0

    def deriv(self, xi, order, dtype=np.float64):
        """order-th derivative of the term at xi (vectorized)."""
        xi = np.asarray(xi, dtype=dtype)
        a = self.exponent
        coef = dtype(self.coefficient) * dtype(_falling(a, order))
        even_integer = a == int(a) and int(a) % 2 == 0
        if self.kind == "monomial" or even_integer:
            k = int(a)
            if order > k:
                return np.zeros_like(xi)
            return coef * xi ** (k - order)
        rem = a - order
        if rem <= 0 and np.any(xi == 0.0):
            raise DomainError(
                f"derivative of order {order} of |xi|^{a} does not exist at 0"
            )
        mag = np.abs(xi) ** dtype(rem)
        if order % 2:
            return coef * mag * np.sign(xi)
        return coef * mag


@dataclass(frozen=True)
class FieldSpec:
    """External field V = Vstar + t*p.

    Parameters
    ----------
    vstar : tuple of PowerTerm
        Fixed part of the field.
    p_coeffs : tuple of float
        Ascending coefficients of the monic tilt polynomial p; the last
        entry must be exactly 1.0.
    t : float
        Tilt strength.
    """

    vstar: tuple = ()
    p_coeffs: tuple = (0.0, 1.0)
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "vstar", tuple(self.vstar))
        object.__setattr__(
            self, "p_coeffs", tuple(float(c) for c in self.p_coeffs)
        )
        if not self.p_coeffs or self.p_coeffs[-1] != 1.0:
            raise ValueError("p must be monic: last coefficient must be 1.0")

    @property
    def n(self):
        """Degree of the tilt polynomial p."""
        return len(self.p_coeffs) - 1

    @property
    def is_even(self):
        vstar_even = all(term.is_even for term in self.vstar)
        if self.t == 0.0:
            return vstar_even
        p_even = all(
            c == 0.0 for j, c in enumerate(self.p_coeffs) if j % 2 == 1
        )
        return vstar_even and p_even

    @property
    def is_polynomial(self):
        return all(term.kind == "monomial" for term in self.vstar)

    def terms(self):
        """Effective term list (kind, exponent, coefficient), tilt included."""
        out = [(t.kind, t.exponent, t.coefficient) for t in self.vstar]
        if self.t != 0.0:
            for j, c in enumerate(self.p_coeffs):
                if c != 0.0:
                    out.append(("monomial", float(j), self.t * c))
        return out

    def eval(self, xi, order=0, dtype=np.float64):
        """order-th derivative of V at xi (vectorized, termwise)."""
        if not 0 <= order <= _MAX_ORDER:
            raise DomainError(f"order must be in 0..{_MAX_ORDER}")
        xi = np.asarray(xi, dtype=dtype)
        acc = np.zeros(xi.shape, dtype=dtype)
        for kind, a, c in self.terms():
            acc += PowerTerm(kind, a, c).deriv(xi, order, dtype=dtype)
        return acc

    def __call__(self, xi, order=0):
        return self.eval(xi, order)

    @property
    def max_degree(self):
        degs = [t.exponent for t in self.vstar]
        if self.t != 0.0:
            degs.append(self.n)
        return max(degs) if degs else 0.0


def polynomial_field(coeffs_desc):
    """Field from descending polynomial coefficients, with zero tilt."""
    terms = []
    deg = len(coeffs_desc) - 1
    for i, c in enumerate(coeffs_desc):
        if c != 0.0:
            terms.append(PowerTerm("monomial", float(deg - i), float(c)))
    return FieldSpec(vstar=tuple(terms), p_coeffs=(0.0, 1.0), t=0.0)


def validate_growth(field):
    """Check V(xi)/log(1+xi^2) -> +inf on both sides.

    Returns
    -------
    ok : bool
    diagnostic : str
        Names the failing side(s) when ok is False.
    """
    sides = {}
    for label, sgn in (("+inf", 1.0), ("-inf", -1.0)):
        net = {}
        for kind, a, c in field.terms():
            if kind == "monomial":
                side_c = c * (sgn ** int(a))
            else:
                side_c = c
            net[float(a)] = net.get(float(a), 0.0) + side_c
        ok_side = False
        detail = "no terms"
        for a in sorted(net, reverse=True):
            if net[a] == 0.0:
                continue
            if net[a] > 0.0 and a > 0.0:
                ok_side = True
                detail = f"dominant exponent {a} with coefficient {net[a]}"
            else:
                detail = (
                    f"dominant exponent {a} has coefficient {net[a]}"
                    if a > 0.0
                    else f"dominant exponent {a} does not grow"
                )
            break
        sides[label] = (ok_side, detail)
    ok = sides["+inf"][0] and sides["-inf"][0]
    if ok:
        diag = "growth condition satisfied on both sides"
    else:
        bad = [s for s in ("+inf", "-inf") if not sides[s][0]]
        parts = [f"fails toward {s}: {sides[s][1]}" for s in bad]
        diag = "; ".join(parts)
    return ok, diag


def potential_difference(field, xi, ref):
    """V(xi) - V(ref), accumulated termwise in extended precision.

    Stable against the catastrophic cancellation that direct float64
    evaluation suffers when |V| is many orders above the difference.
    """
    xi = np.asarray(xi)
    scalar = xi.ndim == 0
    xs = np.atleast_1d(xi).astype(LONG)
    r = LONG(ref)
    acc = np.zeros(xs.shape, dtype=LONG)
    for kind, a, c in field.terms():
        cl = LONG(c)
        if kind == "monomial":
            k = int(a)
            acc += cl * (xs**k - r**k)
        else:
            acc += cl * (np.abs(xs) ** LONG(a) - np.abs(r) ** LONG(a))
    out = acc.astype(np.float64)
    return float(out[0]) if scalar else out


class LocalField:
    """Field derivatives evaluated at center+delta via a recentered series.

    Parameters
    ----------
    field : FieldSpec
    lo, hi : float
        Hull of the evaluation points.
    max_order : int
        Highest derivative order that will be requested.
    center : float or longdouble, optional
        Expansion point; defaults to the hull midpoint.  Callers that
        track endpoints as anchor-plus-offset pass their anchor here so
        local coordinates never round through a single float.

    Notes
    -----
    For polynomial fields the recentred expansion is exact.  For fields
    with absolute-power terms the expansion is used only when the hull
    stays safely on one side of zero; otherwise evaluation falls back to
    direct termwise arithmetic at absolute coordinates.
    """

    _SERIES_RATIO = 0.5

    def __init__(self, field, lo, hi, max_order=_MAX_ORDER, center=None):
        if not hi >= lo:
            raise ValueError("hull must satisfy hi >= lo")
        self.field = field
        self.max_order = max_order
        abs_terms = [t for t in field.terms() if t[0] == "abs_power"]
        if center is None:
            center = LONG(0.5) * (LONG(lo) + LONG(hi))
        else:
            center = LONG(center)
        use_series = True
        if abs_terms:
            if lo > 0.0 or hi < 0.0:
                edge = min(abs(lo), abs(hi))
                radius = max(hi - float(center), float(center) - lo)
                if radius > self._SERIES_RATIO * edge:
                    use_series = False
            else:
                use_series = False
        self.mode = "series" if use_series else "direct"
        if self.mode == "series":
            self.center_long = center
            self.center = float(center)
            self._radius = max(hi - self.center, self.center - lo, 0.0)
            self._taylor = self._build_taylor()
            self._horner = {}
        else:
            self.center_long = LONG(0.0)
            self.center = 0.0

    def _build_taylor(self):
        """Coefficients T[j] = V^(j)(center)/j! in extended precision."""
        c0 = self.center_long
        coeffs = {}

        def add(j, val):
            coeffs[j] = coeffs.get(j, LONG(0.0)) + val

        for kind, a, c in self.field.terms():
            cl = LONG(c)
            if kind == "monomial":
                k = int(a)
                pw = LONG(1.0)
                binom = LONG(1.0)
                # descending powers of center: c0^(k-j)
                pows = [LONG(1.0)]
                for _ in range(k):
                    pows.append(pows[-1] * c0)
                for j in range(k + 1):
                    # binom(k, j)
                    add(j, cl * binom * pows[k - j])
                    binom = binom * (k - j) / (j + 1)
            else:
                al = LONG(a)
                mag = abs(c0)
                if mag == 0.0:
                    raise DomainError("abs_power series needs center != 0")
                sgn = LONG(1.0) if c0 > 0 else LONG(-1.0)
                rad = LONG(self._radius)
                term = cl * mag**al
                j = 0
                lead = abs(term)
                radpow = LONG(1.0)
                while True:
                    add(j, term)
                    bound = abs(term) * radpow
                    if j > 4 and bound < LONG(1e-25) * max(lead, LONG(1.0)):
                        break
                    if j > 400:
                        break
                    term = term * (al - j) / (j + 1) * sgn / mag
                    radpow = radpow * rad
                    j += 1
        jmax = max(coeffs) if coeffs else 0
        out = np.zeros(jmax + 1, dtype=LONG)
        for j, v in coeffs.items():
            out[j] = v
        return out

    def _coeffs_for(self, order, dtype=np.float64):
        """Horner coefficients of V^(order)(center+delta) in delta."""
        key = (order, dtype)
        co = self._horner.get(key)
        if co is None:
            T = self._taylor
            js = np.arange(order, len(T))
            fall = np.ones(len(js), dtype=LONG)
            for i in range(order):
                fall *= js - i
            co = (T[order:] * fall).astype(dtype)
            if co.size == 0:
                co = np.zeros(1, dtype=dtype)
            self._horner[key] = co
        return co

    def to_delta(self, xi):
        """Local coordinate of absolute points, computed in extended precision."""
        arr = np.asarray(xi, dtype=LONG) - self.center_long
        return arr.astype(np.float64)

    def deriv(self, delta, order, dtype=np.float64):
        """V^(order)(center + delta), vectorized over delta."""
        if self.mode == "direct":
            return self.field.eval(delta, order, dtype=dtype)
        delta = np.asarray(delta, dtype=dtype)
        co = self._coeffs_for(order, dtype)
        acc = np.full(delta.shape, co[-1], dtype=dtype)
        for a in co[-2::-1]:
            acc = acc * delta + a
        return acc

    def value_drop(self, delta):
        """V(center+delta) - V(center), exact at delta = 0."""
        if self.mode == "direct":
            return potential_difference(self.field, np.asarray(delta), 0.0)
        delta = np.asarray(delta, dtype=np.float64)
        co = self._coeffs_for(0)
        if len(co) == 1:
            return np.zeros(delta.shape)
        acc = np.full(delta.shape, co[-1])
        for a in co[-2:0:-1]:
            acc = acc * delta + a
        return acc * delta


def field_to_json(field):
    """Serialize a FieldSpec to its canonical JSON dict."""
    vstar = []
    for term in field.vstar:
        key = "k" if term.kind == "monomial" else "a"
        exp = int(term.exponent) if term.kind == "monomial" else term.exponent
        vstar.append({"kind": term.kind, key: exp, "c": term.coefficient})
    return {
        "vstar": vstar,
        "p": {"coeffs": list(field.p_coeffs)},
        "t": field.t,
    }


def field_from_json(obj):
    """Parse the field JSON schema into a FieldSpec."""
    try:
        terms = []
        for raw in obj.get("vstar", []):
            kind = raw["kind"]
            if kind == "monomial":
                exp = float(raw["k"])
            elif kind == "abs_power":
                exp = float(raw["a"])
            else:
                raise ParseError(f"unknown term kind {kind!r}")
            terms.append(PowerTerm(kind, exp, float(raw["c"])))
        p = obj["p"]["coeffs"]
        t = float(obj["t"])
        return FieldSpec(vstar=tuple(terms), p_coeffs=tuple(p), t=t)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"invalid field specification: {exc}") from exc
