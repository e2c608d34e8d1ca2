"""Endpoint vectors and the Q polynomial."""

import math

import numpy as np
import pytest

from eqm import anchored, onecut, twocut
from eqm.density import chebyshev_angles
from eqm.errors import InvalidInterval
from eqm.field import LONG, FieldSpec, LocalField, PowerTerm
from eqm.rhp import (EndpointVector, QPolynomial, _band_integral_factor, band_factor,
                     band_factor_coeffs, q_polynomial)

from conftest import quartic_field, semicircle_field, sextic_field


def test_endpoint_vector_validation():
    with pytest.raises(Exception):
        EndpointVector(0, (1.0, 2.0))
    u = EndpointVector(1, (2.0, 1.0, -1.0, -2.0))
    assert u.gaps == ((-1.0, 1.0),)
    assert u.g == 1


def test_qpolynomial_call():
    q = QPolynomial((2.0, -3.0, 1.0))
    assert q.degree == 2
    assert q(2.0) == pytest.approx(2.0 * 4 - 3.0 * 2 + 1.0)
    assert q.max_abs_coefficient == 3.0


def test_q_vanishes_at_semicircle_solution():
    t = 1.0
    r = 1.0 / math.sqrt(math.pi * t)
    field = semicircle_field(t)
    q = q_polynomial(EndpointVector(0, (r, -r)), field)
    assert q.max_abs_coefficient < 1e-10


def test_q_detects_wrong_endpoints():
    field = semicircle_field(1.0)
    r = 1.01 / math.sqrt(math.pi)
    q = q_polynomial(EndpointVector(0, (r, -r)), field)
    assert q.max_abs_coefficient > 1e-3


def test_q_vanishes_at_quartic_solution():
    field = quartic_field(-10.0)
    u1 = math.sqrt((10.0 + math.sqrt(2.0 / math.pi)) / 2.0)
    u2 = math.sqrt((10.0 - math.sqrt(2.0 / math.pi)) / 2.0)
    q = q_polynomial(EndpointVector(1, (u1, u2, -u2, -u1)), field)
    assert q.max_abs_coefficient < 1e-8


@pytest.mark.parametrize(
    "solve, t, mirror",
    [(onecut.solve_endpoints, 1e4, False),
     (twocut.solve_endpoints_symmetric, -10.0, True)],
    ids=["onecut", "twocut"],
)
def test_solution_endpoint_vector_layout(solve, t, mirror):
    """A solution's endpoint vector anchors every edge at the solve's
    well: u1, u2 for one band, u1, u2, -u2, -u1 for a mirror pair."""
    sol = solve(quartic_field(t))
    assert sol.converged and sol.mirror is mirror
    u = sol.endpoint_vector()
    a = LONG(sol.anchor)
    o1, o2 = sol.dm + sol.half, sol.dm - sol.half
    if mirror:
        assert u.g == 1
        assert u.base == (a, a, -a, -a)
        assert u.offsets == (o1, o2, -o2, -o1)
        assert u.u == (sol.u1, sol.u2, -sol.u2, -sol.u1)
        assert u.shared_anchor is None
    else:
        assert u.g == 0
        assert u.base == (a, a)
        assert u.offsets == (o1, o2)
        assert u.u == (sol.u1, sol.u2)
        assert u.shared_anchor == a


def test_plain_endpoint_vector_has_zero_offsets():
    u = EndpointVector(1, (2.0, 1.0, -1.0, -2.0))
    assert u.u == (2.0, 1.0, -1.0, -2.0)
    assert u.offsets == (0.0, 0.0, 0.0, 0.0)
    assert np.array_equal(u.precise, np.array(u.u, dtype=LONG))
    assert u.shared_anchor is None
    with pytest.raises(InvalidInterval):
        EndpointVector(1, (2.0, 1.0, -1.0))
    with pytest.raises(InvalidInterval):
        EndpointVector(0, (1.0, 1.0))
    with pytest.raises(InvalidInterval):
        EndpointVector(0, (1.0, 2.0))


@pytest.mark.parametrize("t", [-10.0, -1000.0])
def test_q_polynomial_abs_power_route_matches_monomial(t):
    """Written as |xi|^4, the quartic's moments take the band-quadrature
    route instead of the Laurent coefficients; at the 1% perturbed
    two-band edges of criterion 7 both give the same Q."""
    u = twocut.solve_endpoints_symmetric(quartic_field(t)).endpoint_vector()
    perturbed = EndpointVector(1, tuple(1.01 * x for x in u.u))
    absolute = FieldSpec(vstar=(PowerTerm("abs_power", 4.0, 1.0),),
                         p_coeffs=(0.0, 0.0, 1.0), t=t)
    mono = np.array(q_polynomial(perturbed, quartic_field(t)).coefficients)
    via_abs = np.array(q_polynomial(perturbed, absolute).coefficients)
    assert np.max(np.abs(mono - via_abs)) <= 1e-12 * np.max(np.abs(mono))


def _even_sextic(t):
    return FieldSpec((PowerTerm("monomial", 6.0, 1.0),), (0.0, 0.0, 1.0), float(t))


# (field, mirror): quartic one band, quartic and even-sextic two bands,
# and xi^6 + t xi^3, one band off centre
BAND_FACTOR_CASES = (
    [(quartic_field(t), False) for t in (1.0, 1e2, 1e4, 1e6)]
    + [(quartic_field(t), True) for t in (-10.0, -1e3, -1e5)]
    + [(_even_sextic(t), True) for t in (-10.0, -1e3)]
    + [(sextic_field(t), False) for t in (-1e4, -10.0, 100.0)]
)


@pytest.mark.parametrize("field, mirror", BAND_FACTOR_CASES,
                         ids=[f"{'two' if m else 'one'}-band-{f.max_degree:g}-"
                              f"x{f.n}-t{f.t:g}" for f, m in BAND_FACTOR_CASES])
def test_band_factor_closed_form_matches_principal_values(field, mirror):
    """The band factor's closed form agrees with its principal-value
    route at the 401 Chebyshev nodes of a solved band, in the band's
    anchored offsets, to 1e-12 of max|Phi|."""
    solve = twocut.solve_endpoints_symmetric if mirror else onecut.solve_endpoints
    sol = solve(field)
    assert sol.converged
    lf, dm = anchored._prepare(field, sol.anchor, sol.dm)
    d1, d2 = dm + sol.half, dm - sol.half
    dxi = dm + sol.half * np.cos(chebyshev_angles(401))
    if mirror:
        a2 = -2.0 * lf.center_long
        roots = (d1, d2, a2 - d2, a2 - d1)
    else:
        roots = (d1, d2)
    ref = _band_integral_factor(lf, roots, dxi)
    got = band_factor(lf, roots, dxi)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_band_factor_of_the_semicircle_and_the_quartic_is_exact():
    """V = t xi^2 has Phi_0 = t; V = xi^4 + t xi^2 has Phi_1 = 2 xi for
    any mirror endpoints, and Phi_0 = 2 xi^2 + u1^2 + t on [-u1, u1]."""
    lf = LocalField(semicircle_field(3.0), 0.0)
    assert band_factor_coeffs(lf, (0.4, -0.4)).tolist() == [3.0]
    lf = LocalField(quartic_field(-7.0), 0.0)
    assert band_factor_coeffs(lf, (2.5, 1.5, -1.5, -2.5)).tolist() == [0.0, 2.0]
    assert band_factor_coeffs(lf, (0.5, -0.5)).tolist() == [0.25 - 7.0, 0.0, 2.0]
