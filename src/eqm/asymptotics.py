"""Closed-form large-tilt limits and endpoint scaling studies.

For V = Vstar + t*p with monic p of degree n and a dominant power
C*xi^M of Vstar on the side the well drifts to, the support endpoints
scale like |t|^(1/(M-n)) with limit constant (n/(C*M))^(1/(M-n)) when
the tilt deepens the well (odd n, or even n with t < 0), and shrink
onto the well like t^(-1/n) with a universal constant when a convex
even tilt dominates (t > 0).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import EqmError, NoConvergence, UnsupportedRegime
from .onecut import density, solve_endpoints
from .twocut import density_symmetric, solve_endpoints_symmetric
from .verify import check_variational
from .wells import global_minimizer

__all__ = [
    "AsymptoticPrediction",
    "ScalingStudy",
    "predict",
    "scaling_study",
]

_REGIMES = (
    "odd-n-neg-t",
    "odd-n-pos-t",
    "even-n-neg-t",
    "even-n-pos-t-convex",
)
# Density nodes and off-support probes of one scaling-study row; an
# ``eqm sweep`` row uses the same
_SWEEP_GRID = 405
_SWEEP_PROBES = 80


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Large-|t| endpoint scaling for one field family and tilt sign.

    ``scaling_exponent`` is 1/(M-n) for deepening tilts and -1/n for the
    convex shrinking regime; endpoints behave like
    ``limit_constant * |t|**scaling_exponent`` (mirrored to the negative
    axis for odd n with t > 0).  ``well_location`` is the argmin of V at
    the field's own tilt magnitude (the positive one in the symmetric
    two-band regime, unless V has no positive well there).
    """

    regime: str
    scaling_exponent: float
    limit_constant: float
    well_location: float

    def __post_init__(self):
        if self.regime not in _REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if not self.limit_constant > 0.0:
            raise ValueError("limit_constant must be positive")

    def as_dict(self):
        return {
            "regime": self.regime,
            "scaling_exponent": self.scaling_exponent,
            "limit_constant": self.limit_constant,
            "well_location": self.well_location,
        }


def _double_factorial(k):
    """k!! with the empty-product convention (-1)!! = 0!! = 1."""
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def _side_dominant(field, side):
    """Dominant growth (C, M) of Vstar toward side * infinity.

    The effective coefficient of xi^k on the negative side flips sign
    for odd monomials; absolute powers grow identically on both sides.
    """
    best_m = None
    coeff = 0.0
    for term in field.vstar:
        a = term.exponent
        c = term.coefficient
        if term.kind == "monomial" and side < 0 and int(a) % 2 == 1:
            c = -c
        if best_m is None or a > best_m:
            best_m, coeff = a, c
        elif a == best_m:
            coeff += c
    if best_m is None or not coeff > 0.0:
        raise UnsupportedRegime(
            "the fixed field has no dominant growth on the tilted side"
        )
    return coeff, best_m


def _p_convex(p_coeffs):
    """Convexity of the tilt polynomial, decided exactly: p'' has even
    degree and a positive leading coefficient, and is >= 0, up to 1e-12
    of the size of its terms, at the real parts of all roots of p'''.
    Those include every real root, where p'' takes its minimum, so no
    imaginary-part threshold is needed."""
    if len(p_coeffs) < 3 or len(p_coeffs) % 2 == 0:
        return False
    dd = P.polyder(p_coeffs, 2)
    if not dd[-1] > 0.0:
        return False
    xs = P.polyroots(P.polyder(dd)).real
    tol = 1e-12 * P.polyval(np.abs(xs), np.abs(dd))
    return bool(np.all(P.polyval(xs, dd) >= -tol))


def predict(field, sign_of_t):
    """Scaling exponent and limit constant for one tilt sign.

    Raises UnsupportedRegime when no closed-form constant exists (a
    non-convex even tilt with t > 0, or a fixed field that does not
    dominate the tilt).
    """
    sign = 1 if sign_of_t > 0 else -1
    n = field.n
    if n < 1:
        raise UnsupportedRegime("constant tilt polynomials have no regime")

    if n % 2 == 1 or sign < 0:
        # t p falls toward side * infinity (both sides for even n)
        c, m = _side_dominant(field, 1 if sign < 0 else -1)
        if not m > n:
            raise UnsupportedRegime(
                f"fixed-field growth {m} does not dominate the tilt degree {n}"
            )
        exponent = 1.0 / (m - n)
        constant = (n / (c * m)) ** (1.0 / (m - n))
        regime = f"{'odd' if n % 2 else 'even'}-n-{'neg' if sign < 0 else 'pos'}-t"
    else:
        if not _p_convex(field.p_coeffs):
            raise UnsupportedRegime(
                "no closed-form constant for a non-convex tilt with t > 0"
            )
        exponent = -1.0 / n
        constant = (
            _double_factorial(n - 2) / (math.pi * _double_factorial(n - 1))
        ) ** (1.0 / n)
        regime = "even-n-pos-t-convex"

    tmag = abs(field.t) if field.t != 0.0 else 1.0
    tilted = dataclasses.replace(field, t=sign * tmag)
    try:
        well, _ = global_minimizer(tilted, positive=(regime == "even-n-neg-t"))
    except NoConvergence:  # no positive well at this tilt
        well, _ = global_minimizer(tilted)
    return AsymptoticPrediction(
        regime=regime,
        scaling_exponent=exponent,
        limit_constant=constant,
        well_location=float(well),
    )


def _endpoint_targets(prediction):
    """Scaled limits of (u1, u2): the signs depend on the regime."""
    c = prediction.limit_constant
    if prediction.regime == "odd-n-pos-t":
        return -c, -c
    if prediction.regime == "even-n-pos-t-convex":
        return c, -c
    return c, c


@dataclass
class ScalingStudy:
    """Per-decade endpoints against the predicted scaling: row dicts of t, u1,
    u2, scaled_u1, scaled_u2, deviation, width, gaps, well_inside, error."""

    prediction: AsymptoticPrediction
    rows: list


def _study_row(field, prediction, sign, decade):
    t = sign * 10.0**decade
    row = {
        "t": t,
        "u1": None,
        "u2": None,
        "scaled_u1": None,
        "scaled_u2": None,
        "deviation": None,
        "width": None,
        "gaps": None,
        "well_inside": None,
        "error": None,
    }
    tilted = dataclasses.replace(field, t=t)
    twocut = prediction.regime == "even-n-neg-t"
    if twocut:
        solve, build = solve_endpoints_symmetric, density_symmetric
    else:
        solve, build = solve_endpoints, density
    try:
        sol = solve(tilted)
        if not sol.converged:
            row["error"] = "no convergence"
            return row
        tab = build(sol, tilted, _SWEEP_GRID)
        report = check_variational(tab, tilted, probe_n=_SWEEP_PROBES)
        scale = abs(t) ** prediction.scaling_exponent
        su1, su2 = sol.u1 / scale, sol.u2 / scale
        t1, t2 = _endpoint_targets(prediction)
        well, _ = global_minimizer(tilted, positive=twocut)
        wellf = float(well)
        row.update(
            u1=sol.u1,
            u2=sol.u2,
            scaled_u1=su1,
            scaled_u2=su2,
            deviation=max(abs(su1 - t1), abs(su2 - t2)),
            width=sol.u1 - sol.u2,
            gaps=1 if twocut else 0,
            well_inside=bool(sol.u2 <= wellf <= sol.u1),
        )
        if not report.passed():
            row["error"] = "verification failed"
    except (EqmError, np.linalg.LinAlgError) as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def scaling_study(field, sign_of_t, decades):
    """Solve at |t| = 10^1 .. 10^decades and compare with the prediction.

    Each decade is solved on a _SWEEP_GRID-node density and certified
    with _SWEEP_PROBES probes, as an ``eqm sweep`` row is.  Failures are
    recorded per row, never raised.
    """
    if decades < 3:
        raise ValueError("a scaling study needs at least 3 decades")
    sign = 1 if sign_of_t > 0 else -1
    prediction = predict(field, sign)
    rows = [
        _study_row(field, prediction, sign, k)
        for k in range(1, decades + 1)
    ]
    return ScalingStudy(prediction=prediction, rows=rows)
