"""One-band solver against closed forms and scaling limits."""

import math

import numpy as np
import pytest

from eqm import anchored, onecut
from eqm.density import chebyshev_angles
from eqm.errors import NegativeDensity
from eqm.field import FieldSpec, PowerTerm
from eqm.quadrature import field_pv_band_integral_delta

from conftest import quartic_field, semicircle_field, semicircle_radius, sextic_field


def test_semicircle_endpoints():
    for t in (0.5, 1.0, 2.0, 4.0):
        sol = onecut.solve_endpoints(semicircle_field(t))
        r = semicircle_radius(t)
        assert sol.converged
        assert sol.u1 == pytest.approx(r, abs=1e-10)
        assert sol.u2 == pytest.approx(-r, abs=1e-10)


def test_semicircle_density_profile():
    t = 1.0
    field = semicircle_field(t)
    sol = onecut.solve_endpoints(field)
    tab = onecut.density(sol, field, 400)
    r = semicircle_radius(t)
    xs = np.concatenate([b.xs for b in tab.bands])
    want = 2.0 * t * np.sqrt(np.maximum(r * r - xs * xs, 0.0))
    got = np.concatenate([b.psis for b in tab.bands])
    assert np.max(np.abs(got - want)) < 5e-9 * np.max(want)
    # piecewise-linear interpolation needs a dense grid at the band center
    dense = onecut.density(sol, field, 2000)
    assert dense.interp(0.0) == pytest.approx(2.0 * math.sqrt(t / math.pi), rel=1e-6)
    assert tab.mass() == pytest.approx(1.0, abs=1e-10)


def test_sextic_scaled_endpoints():
    # endpoints scale toward (1/2)^(1/3) * |t|^(1/3)
    target = 0.5 ** (1.0 / 3.0)
    prev = None
    for t in (-1e2, -1e4, -1e6):
        sol = onecut.solve_endpoints(sextic_field(t))
        assert sol.converged
        s = abs(t) ** (1.0 / 3.0)
        dev = max(abs(sol.u1 / s - target), abs(sol.u2 / s - target))
        if prev is not None:
            assert dev < prev
        prev = dev
    assert prev < 0.01 * target


def test_positive_quartic_endpoints():
    t = 1e4
    sol = onecut.solve_endpoints(quartic_field(t))
    assert sol.converged
    want = 1.0 / math.sqrt(math.pi * t)
    assert sol.u1 == pytest.approx(want, rel=1e-6)
    assert sol.u2 == pytest.approx(-want, rel=1e-6)


def test_lagrange_multiplier_semicircle():
    """The table's l = L(psi)(0) - V(0) of the semicircle of radius
    r = 1/sqrt(pi t) is (log(r/2) - 1/2)/pi; what is left (2-3e-12)
    comes from the solved endpoints."""
    for t in (0.5, 1.0, 2.0):
        field = semicircle_field(t)
        tab = onecut.density(onecut.solve_endpoints(field), field, 801)
        r = 1.0 / math.sqrt(math.pi * t)
        want = (math.log(r / 2.0) - 0.5) / math.pi
        assert tab.lagrange_l == pytest.approx(want, rel=0.0, abs=1e-11), t


def test_iteration_budget_respected():
    # xi^6 - 1e6 xi^3 takes two Newton steps from the seed at its well
    field = sextic_field(-1e6)
    sol = onecut.solve_endpoints(field, max_iter=1)
    assert not sol.converged
    assert sol.message == "iteration budget exhausted"


def test_solution_carries_newton_diagnostics():
    sol = onecut.solve_endpoints(semicircle_field(1.0))
    assert sol.converged
    assert sol.message == "converged"
    assert sol.iterations >= 1
    # xi^4 + 1e12 xi^2: the line search stalls just above tol
    sol = onecut.solve_endpoints(quartic_field(1e12))
    assert not sol.converged
    assert sol.message == "line search stalled"
    assert 1 <= sol.iterations < 100


def test_density_rejects_double_well():
    # xi^4 - xi^2: the one-band endpoints solve, but psi dips below 0
    field = quartic_field(-1.0)
    sol = onecut.solve_endpoints(field)
    assert sol.converged
    with pytest.raises(NegativeDensity, match="one-band ansatz violated"):
        onecut.density(sol, field, 400)


def test_edge_samples_match_fine_principal_value():
    # |xi|^4.5 + 30 xi^2 has a kink at 0 inside the band.  At grid 801
    # the outermost samples lie 1e-6 band widths from the endpoints;
    # they match a principal value with a fixed 2^16 nodes.
    field = FieldSpec(vstar=(PowerTerm("abs_power", 4.5, 1.0),),
                      p_coeffs=(0.0, 0.0, 1.0), t=30.0)
    sol = onecut.solve_endpoints(field)
    got = onecut.density(sol, field, 801).bands[0].psis_by_angle()[[0, -1]]
    lf, dm = anchored._prepare(field, sol.anchor, sol.dm)
    half = sol.half
    d1, d2 = dm + half, dm - half
    dxi = dm + half * np.cos(chebyshev_angles(801)[[0, -1]])
    pv = field_pv_band_integral_delta(lf, d1, d2, dxi, m=2**16)
    want = 2.0 * np.sqrt((d1 - dxi) * (dxi - d2)) * (-pv / (2.0 * math.pi))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_band_collapse_stops_short_of_the_guard(monkeypatch):
    """A residual pair whose root, half = 1e-16, lies below the 1e-12
    relative collapse guard: the solve stops unconverged with its best
    iterate at or above the guard."""
    def residual(lf, mirror):
        return (lambda dm, half: (dm, half - 1e-16),
                lambda dm, half: [[1.0, 0.0], [0.0, 1.0]])

    monkeypatch.setattr(anchored, "_residual", residual)
    sol = anchored.solve(semicircle_field(1.0), tol=1e-14, max_iter=100, mirror=False)
    assert not sol.converged
    assert 2.0 * sol.half >= anchored._COLLAPSE
