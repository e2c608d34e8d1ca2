"""Shared builders and solved configurations for the test suite.

The solved-configuration fixture covers every field used by the
acceptance criteria so that the invariant checks (Q coefficients,
variational reports, well locations) reuse one solve per field.
"""

import math

import pytest

from eqm import onecut, twocut, verify
from eqm.field import FieldSpec, PowerTerm


def semicircle_field(t):
    """V = t*xi^2 (pure even tilt)."""
    return FieldSpec(vstar=(), p_coeffs=(0.0, 0.0, 1.0), t=float(t))


def quartic_field(t):
    """V = t*xi^2 + xi^4."""
    return FieldSpec(
        vstar=(PowerTerm("monomial", 4.0, 1.0),),
        p_coeffs=(0.0, 0.0, 1.0),
        t=float(t),
    )


def abs_power_field(a, degree, t):
    """V = |xi|^a + t*xi^degree."""
    return FieldSpec(vstar=(PowerTerm("abs_power", a, 1.0),),
                     p_coeffs=(0.0,) * degree + (1.0,), t=float(t))


def mp_exact(x):
    """A float or longdouble as an exact mpmath number: the longdouble
    mantissa is the sum of two doubles."""
    import mpmath

    hi = float(x)
    return mpmath.mpf(hi) + mpmath.mpf(float(x - type(x)(hi)))


def sextic_field(t):
    """V = t*xi^3 + xi^6."""
    return FieldSpec(
        vstar=(PowerTerm("monomial", 6.0, 1.0),),
        p_coeffs=(0.0, 0.0, 0.0, 1.0),
        t=float(t),
    )


class Solved:
    """One solved configuration with its density table and report."""

    def __init__(self, name, field, kind, solution, table, report):
        self.name = name
        self.field = field
        self.kind = kind
        self.solution = solution
        self.table = table
        self.report = report

    @property
    def endpoint_vector(self):
        return self.solution.endpoint_vector()


def _solve(name, field, kind, grid_n=600):
    if kind == "onecut":
        sol = onecut.solve_endpoints(field)
        tab = onecut.density(sol, field, grid_n)
    else:
        sol = twocut.solve_endpoints_symmetric(field)
        tab = twocut.density_symmetric(sol, field, grid_n)
    assert sol.converged, f"{name}: solver did not converge"
    rep = verify.check_variational(tab, field)
    return Solved(name, field, kind, sol, tab, rep)


def solve_configs():
    """Every configuration appearing in the acceptance criteria."""
    configs = {}
    for t in (0.5, 1.0, 2.0):
        key = f"semicircle_t{t:g}"
        configs[key] = _solve(key, semicircle_field(t), "onecut")
    for t in (-10.0, -100.0, -10000.0):
        key = f"quartic_t{t:g}"
        configs[key] = _solve(key, quartic_field(t), "twocut")
    for t in (-1e2, -1e4, -1e6):
        key = f"sextic_t{t:g}"
        configs[key] = _solve(key, sextic_field(t), "onecut")
    configs["quartic_t1e4"] = _solve(
        "quartic_t1e4", quartic_field(1e4), "onecut"
    )
    return configs


@pytest.fixture(scope="session")
def solved_configs():
    return solve_configs()


def semicircle_radius(t):
    return 1.0 / math.sqrt(math.pi * t)
