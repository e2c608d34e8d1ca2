"""Variational certification: passing reports and counter-tests."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqm import onecut, rhp, twocut, verify
from eqm.density import Band, DensityTable, chebyshev_angles
from eqm.epd import EpdSpec, phi_eval
from eqm.errors import EqmError
from eqm.field import FieldSpec, LocalField, PowerTerm
from eqm.rhp import EndpointVector, _band_integral_factor, band_factor

from conftest import quartic_field, semicircle_field, sextic_field


def _scaled(table, factor):
    bands = [Band(b.lo, b.hi, b.xs.copy(), factor * b.psis) for b in table.bands]
    return DensityTable(bands, table.lagrange_l)


def _shifted(table, delta):
    bands = [
        Band(b.lo + delta, b.hi + delta, b.xs + delta, b.psis.copy())
        for b in table.bands
    ]
    return DensityTable(bands, table.lagrange_l)


def test_semicircle_passes():
    field = semicircle_field(1.0)
    sol = onecut.solve_endpoints(field)
    tab = onecut.density(sol, field, 400)
    rep = verify.check_variational(tab, field)
    assert rep.passed()
    assert rep.equality_deviation < 1e-9
    assert rep.inequality_margin > 0.0
    assert rep.mass_residual < 1e-10
    d = rep.as_dict()
    assert d["passed"] is True
    assert set(d) == {
        "equality_deviation",
        "inequality_margin",
        "mass_residual",
        "constraint_sign_ok",
        "gap_integral_ok",
        "passed",
    }


def test_quartic_twocut_passes_with_gap_probes():
    field = quartic_field(-10.0)
    sol = twocut.solve_endpoints_symmetric(field)
    tab = twocut.density_symmetric(sol, field, 400)
    rep = verify.check_variational(tab, field)
    assert rep.passed()
    assert rep.gap_integral_ok
    assert rep.constraint_sign_ok


def test_report_ignores_stored_sample_positions():
    # a density read from a 12-digit CSV keeps its nodes only approximately;
    # the report depends on the band edges and the samples alone
    field = quartic_field(-1e3)
    sol = twocut.solve_endpoints_symmetric(field)
    tab = twocut.density_symmetric(sol, field, 401)
    moved = DensityTable([
        Band(b.lo, b.hi, np.array([float(f"{x:.12g}") for x in b.xs]), b.psis)
        for b in tab.bands
    ])
    assert any(not np.array_equal(a.xs, b.xs) for a, b in zip(tab.bands, moved.bands))
    assert verify.check_variational(moved, field) == verify.check_variational(tab, field)


def test_mis_scaled_density_fails():
    field = semicircle_field(1.0)
    sol = onecut.solve_endpoints(field)
    tab = onecut.density(sol, field, 400)
    rep = verify.check_variational(_scaled(tab, 1.01), field)
    assert not rep.passed()
    assert rep.mass_residual > 1e-3


def test_shifted_density_fails():
    field = semicircle_field(1.0)
    sol = onecut.solve_endpoints(field)
    tab = onecut.density(sol, field, 400)
    rep = verify.check_variational(_shifted(tab, 0.2), field)
    assert not rep.passed()


def test_wrong_ansatz_fails_every_tilt():
    # one band parked in one well of the symmetric double well: the
    # mirror well violates the inequality and the ray integrals
    for t in (-10.0, -316.227766017, -10000.0):
        field = quartic_field(t)
        sol = onecut.solve_endpoints(field)
        tab = onecut.density(sol, field, 400)
        rep = verify.check_variational(tab, field)
        assert not rep.passed()
        assert not rep.gap_integral_ok
        assert rep.inequality_margin < -1.0


def test_log_potential_minus_field_constant_inside_lower_outside():
    field = semicircle_field(1.0)
    sol = onecut.solve_endpoints(field)
    tab = onecut.density(sol, field, 400)

    def gap(xi):  # L(psi) - V, the Lagrange constant on the support
        return tab.log_potential(xi) - float(field.eval(xi, 0))

    mid = gap(0.0)
    assert gap(0.3 * sol.u1) == pytest.approx(mid, abs=1e-10)
    assert gap(2.0 * sol.u1) < mid - 0.1


def _far_field_error(tab):
    """Largest |L(psi)(xi) - log|xi - m1| / pi| at xi = +-100 max|u|.

    With unit mass and first moment m1 the difference tends to 0 as
    |xi| grows; recentering on m1 removes the leading 1/xi term, which
    dominates at these distances for supports away from the origin.
    """
    m1 = 0.0
    for b in tab.bands:
        theta = chebyshev_angles(len(b.xs))
        xs = b.mid + b.half * np.cos(theta)
        m1 += (np.pi * b.half / len(b.xs)) * float(
            np.dot(xs * b.psis_by_angle(), np.sin(theta)))
    u = tab.endpoints_desc
    ufar = float(max(abs(u[0]), abs(u[-1])))
    return max(abs(tab.log_potential(xi) - math.log(abs(xi - m1)) / math.pi)
               for xi in (-100.0 * ufar, 100.0 * ufar))


def test_far_field_is_the_recentered_unit_mass_log():
    field = semicircle_field(1.0)
    sol = onecut.solve_endpoints(field)
    tab = onecut.density(sol, field, 400)
    assert _far_field_error(tab) < 1e-4
    # support far from the origin: centroid recentering keeps it small
    f6 = sextic_field(-1e4)
    sol6 = onecut.solve_endpoints(f6)
    tab6 = onecut.density(sol6, f6, 400)
    assert _far_field_error(tab6) < 1e-4


def test_report_passes_at_fixed_tolerances():
    field = semicircle_field(1.0)
    sol = onecut.solve_endpoints(field)
    tab = onecut.density(sol, field, 400)
    rep = verify.check_variational(tab, field)
    assert rep.passed()
    # each figure fails at its module tolerance, which nothing overrides
    for name, value in (("equality_deviation", verify._TOL_EQ),
                        ("inequality_margin", -verify._TOL_INEQ),
                        ("mass_residual", verify._TOL_MASS)):
        assert not dataclasses.replace(rep, **{name: value}).passed(), name
    with pytest.raises(TypeError):
        rep.passed(tol_eq=1.0)
    with pytest.raises(TypeError):
        verify.check_variational(tab, field, tol_eq=1.0)


def test_three_bands_report_unchecked_signs():
    # a stored density may hold three bands; the band factor is computed
    # at g = 2, where Phi of V = t xi^2 is identically 0 (V' has degree
    # 1 < g + 1), so both sign checks fail and nothing raises
    field = semicircle_field(1.0)
    sol = onecut.solve_endpoints(field)
    tab = onecut.density(sol, field, 100)
    bands = [
        Band(b.lo + shift, b.hi + shift, b.xs + shift, b.psis / 3.0)
        for b in tab.bands
        for shift in (-3.0, 0.0, 3.0)
    ]
    rep = verify.check_variational(DensityTable(bands), field)
    assert rep.mass_residual < 1e-8
    assert not rep.constraint_sign_ok and not rep.gap_integral_ok


def _tensor_sign_and_gaps(u, field):
    """check_sign_and_gaps with the tensor rule at every probe: the
    reference the closed-form band factor must match.  The root
    probes come from the closed form.

    Returns the two booleans, the tensor rule's values at deg + 1
    Chebyshev points of the closed form's scaled interval (deg =
    M - g - 2) and the (points, values) of every other evaluation.
    """
    spec, calls = EpdSpec(u.g, "phi", field), []

    def tensor(x):
        return phi_eval(spec, np.asarray(x, dtype=float), u.precise)

    def phi(x):
        vals = tensor(x)
        calls.append((np.atleast_1d(x), np.atleast_1d(vals)))
        return vals

    roots = verify._phi_roots(u, band_factor(_at_zero(u, field), u.precise))
    sign_ok = verify._band_signs_ok(u, phi)
    diam = u.u[0] - u.u[-1]
    runs = [verify._gap_running_ok(u, phi, lo, hi, roots) for lo, hi in u.gaps]
    runs.append(verify._ray_running_ok(u, phi, u.u[0], diam, +1, roots))
    runs.append(verify._ray_running_ok(u, phi, u.u[-1], diam, -1, roots))
    deg = max(0, int(field.max_degree) - u.g - 2)
    scale = 2.0 * max(1.0, abs(u.u[0]), abs(u.u[-1]), diam)
    nodes = tensor(scale * np.cos(chebyshev_angles(deg + 1)))
    return (sign_ok, all(runs)), nodes, calls


def _endpoint_vectors(field):
    """Converged one- and two-band endpoints of field, and each with its
    edges shifted by a tenth of the support width."""
    solvers = [onecut.solve_endpoints]
    if field.is_even:
        solvers.append(twocut.solve_endpoints_symmetric)
    out = []
    for solve in solvers:
        try:
            sol = solve(field)
        except EqmError:
            continue
        if sol.converged:
            out.append(sol.endpoint_vector())
    for u in list(out):
        shift = 0.1 * (u.u[0] - u.u[-1])
        out.append(EndpointVector(u.g, tuple(x + shift for x in u.u)))
    return out


@st.composite
def _polynomial_fields(draw):
    """xi^k + t xi^n, k = 4, 6 or 8 and 1 <= n < k, t = +-10^(-1..5)."""
    k = draw(st.sampled_from([4, 6, 8]))
    n = draw(st.integers(1, k - 1))
    t = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-1.0, 5.0))
    return FieldSpec((PowerTerm("monomial", k, 1.0),), (0.0,) * n + (1.0,), t)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(_polynomial_fields())
@example(quartic_field(-10.0))  # one band in one well of a double well
@example(sextic_field(-1e4))
def test_interpolated_band_factor_matches_tensor_rule(field):
    """For polynomial fields the sign and gap checks read the band
    factor from its closed form.  On converged and on wrong endpoints
    they decide as the tensor rule at every probe does, and the closed
    form stays within 1e-9 of the tensor rule's max|Phi(nodes)| there."""
    for u in _endpoint_vectors(field):
        try:
            want, nodes, calls = _tensor_sign_and_gaps(u, field)
        except EqmError as exc:
            with pytest.raises(type(exc)):
                verify.check_sign_and_gaps(u, field)
            continue
        assert verify.check_sign_and_gaps(u, field) == want, u
        interpolant = band_factor(_at_zero(u, field), u.precise)
        bound = 1e-9 * np.max(np.abs(nodes))
        for x, vals in calls:
            assert np.max(np.abs(interpolant(x) - vals)) <= bound, u


def _at_zero(u, field):
    """The LocalField centered at 0 that the certificate's band factor
    reads its points and edges against."""
    return LocalField(field, 0.0)


def _regions(u):
    """Probe points of every band, gap and exterior ray of u, the
    nearest 1e-7 support widths from an edge: there the terms of Phi's
    band integrals grow like 1/R, which the subtraction at the nearest
    band cancels exactly."""
    diam = u.u[0] - u.u[-1]
    cos = np.cos(chebyshev_angles(20))
    spans = [*u.bands, *u.gaps]
    regions = [0.5 * (lo + hi) + 0.5 * (hi - lo) * cos for lo, hi in spans]
    reach = diam * np.geomspace(1e-7, 10.0, 17)
    regions += [u.u[0] + reach, u.u[-1] - reach]
    return regions


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(_polynomial_fields())
@example(quartic_field(-10.0))
@example(sextic_field(-1e4))
def test_band_integral_phi_matches_tensor_rule(field):
    """The band-integral band factor that the certificate reads for
    non-polynomial fields equals the tensor rule on every band, gap and
    exterior ray of polynomial fields, at converged and at wrong
    endpoints: to 1e-9 of the largest |Phi| in each region.  Near 1e-15
    at solutions; the bound leaves room for narrow wrong bands far from
    0, where the principal value divides the longdouble rounding of V'
    by x - mu (1.5e-10 seen)."""
    for u in _endpoint_vectors(field):
        phi = functools.partial(_band_integral_factor, _at_zero(u, field), u.precise)
        spec = EpdSpec(u.g, "phi", field)
        for x in _regions(u):
            want = phi_eval(spec, x, u.precise)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(phi(x) - want)) <= 1e-9 * scale, (u, x)


def test_three_band_factor_routes_agree_and_certify_signs():
    """At g = 2, on the three bands of xi^8 + 1000 xi^2 (xi^2 - 1)^2
    near its wells at 0 and +-1, the band factor's closed form and its
    band integrals agree to 1e-12 of max|Phi| on every band, gap and
    ray.  The edges are approximate, so the bands' signs hold and the
    gap integrals do not."""
    field = FieldSpec((PowerTerm("monomial", 8, 1.0),),
                      (0.0, 0.0, 1.0, 0.0, -2.0, 0.0, 1.0), 1000.0)
    u = EndpointVector(2, (1.06, 0.94, 0.05, -0.05, -0.94, -1.06))
    lf = _at_zero(u, field)
    for x in _regions(u):
        want = band_factor(lf, u.precise)(x)
        got = _band_integral_factor(lf, u.precise, x)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), x
    assert verify.check_sign_and_gaps(u, field) == (True, False)


def test_certificate_reads_the_band_factor_from_rhp(monkeypatch):
    """The certificate takes Phi from ``rhp.band_factor``, as the
    samplers do, for a polynomial field too: with rhp's Phi negated, a
    certified two-band solution of xi^4 - 10 xi^2 fails its sign check."""
    field = quartic_field(-10.0)
    sol = twocut.solve_endpoints_symmetric(field)
    tab = twocut.density_symmetric(sol, field, 401)
    assert verify.check_variational(tab, field).passed()
    monkeypatch.setattr(verify, "band_factor",
                        lambda lf, roots: -rhp.band_factor(lf, roots))
    assert not verify.check_variational(tab, field).constraint_sign_ok
