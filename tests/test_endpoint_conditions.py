"""40-digit endpoint conditions of solves on |xi|^a fields.

A density on one band [a, b] is the equilibrium measure of V when the
band mean of V' vanishes and its moment is 1 (``perfbench/checks.py``
states the same conditions in float64):

    r0 = |int V'/sqrt((b-x)(x-a))| / int |V'|/sqrt((b-x)(x-a)),
    r1 = |int (x - m) V'/sqrt((b-x)(x-a)) - 1|,   m = (a+b)/2.

A mirror pair +-[u2, u1] of an even field V(xi) = W(xi^2) is one band
for 2W on [u2^2, u1^2], with 2W'(s) = V'(sqrt s)/sqrt s.  Both
integrals are taken by mpmath at 40 digits in the angle x = m + h
cos(theta), split where x crosses 0, on the solution's endpoints in
their full extended precision; nothing here runs eqm's quadrature or
field evaluation.  The golden files pin outputs to the last digit,
which any change to how |xi|^a terms are evaluated moves; this check
bounds the accuracy of the solves on its own.
"""

import mpmath
import numpy as np
import pytest

from eqm import onecut, twocut

from conftest import abs_power_field, mp_exact

DPS = 40
TOL = 1e-13


def _dv(field):
    """V' of the field in mpmath, term by term."""
    terms = [(kind, mpmath.mpf(a), mpmath.mpf(c)) for kind, a, c in field.terms()]

    def dv(x):
        out = mpmath.mpf(0)
        for kind, a, c in terms:
            if kind == "monomial":
                out += c * a * x ** (a - 1) if a else 0
            else:
                out += c * a * abs(x) ** (a - 1) * mpmath.sign(x)
        return out

    return dv


def band_residuals(dv, a, b):
    """(r0, r1) of the one-band endpoint conditions of dv on [a, b]."""
    m, h = (a + b) / 2, (b - a) / 2
    pts = [0, mpmath.pi]
    if abs(m) < h:  # V' is only finitely smooth where x crosses 0
        pts.insert(1, mpmath.acos(-m / h))

    def integral(f):
        return mpmath.quad(lambda th: f(th, dv(m + h * mpmath.cos(th))), pts)

    mean = integral(lambda th, v: v)
    scale = integral(lambda th, v: abs(v))
    moment = h * integral(lambda th, v: mpmath.cos(th) * v)
    return float(abs(mean) / scale), float(abs(moment - 1))


def endpoint_residuals(field, u1, u2, mirror):
    """(r0, r1) at 40 digits of one band [u2, u1], or of the mirror pair
    +-[u2, u1] as one band for 2W on [u2^2, u1^2]."""
    with mpmath.workdps(DPS):
        dv = _dv(field)
        u1, u2 = mp_exact(u1), mp_exact(u2)
        if not mirror:
            return band_residuals(dv, u2, u1)
        return band_residuals(lambda s: dv(mpmath.sqrt(s)) / mpmath.sqrt(s),
                              u2 * u2, u1 * u1)


# (a, degree of p, t) of the |xi|^a + t xi^degree solves of
# ``test_golden.DUMP_SOLVES``, by the ansatz they are certified on
ONE_BAND = [(3.5, 1, -10.0), (3.5, 1, 10.0), (3.5, 2, 1.0), (3.5, 2, 3.0),
            (4.5, 1, -30.0), (4.5, 1, 300.0), (4.5, 2, 0.3), (4.5, 2, 1.0),
            (4.5, 2, 3.0), (4.5, 2, 30.0)]
MIRROR_PAIR = [(3.5, 2, -5.0), (3.5, 2, -1.0), (4.5, 2, -30.0), (4.5, 2, -3.0),
               (4.5, 2, -1.6), (4.5, 2, -1.0)]


@pytest.mark.parametrize("a, degree, t, mirror",
                         [(*case, False) for case in ONE_BAND]
                         + [(*case, True) for case in MIRROR_PAIR])
def test_abs_power_solves_meet_endpoint_conditions(a, degree, t, mirror):
    field = abs_power_field(a, degree, t)
    solve = twocut.solve_endpoints_symmetric if mirror else onecut.solve_endpoints
    sol = solve(field)
    assert sol.converged
    u = sol.endpoint_vector().precise
    r0, r1 = endpoint_residuals(field, u[0], u[1], mirror)
    assert r0 <= TOL and r1 <= TOL, (r0, r1)


def test_residuals_see_a_moved_endpoint():
    """The check is not blind: moving u1 of a solved band by 1e-10 of
    its width shows in the residuals."""
    field = abs_power_field(4.5, 1, -30.0)
    u = onecut.solve_endpoints(field).endpoint_vector().precise
    width = float(u[0] - u[1])
    moved = u[0] + np.longdouble(1e-10 * width)
    assert max(endpoint_residuals(field, moved, u[1], False)) > 1e-11
