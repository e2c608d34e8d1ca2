"""Symmetric two-band solver against the quartic closed form."""

import math

import numpy as np
import pytest

from eqm import anchored, twocut
from eqm.density import chebyshev_angles
from eqm.errors import InvalidInterval, NotEven
from eqm.field import FieldSpec, LocalField, PowerTerm
from eqm.quadrature import pv_band_integral_delta

from conftest import quartic_field, sextic_field


U1_QUARTIC = math.sqrt((10.0 + math.sqrt(2.0 / math.pi)) / 2.0)
U2_QUARTIC = math.sqrt((10.0 - math.sqrt(2.0 / math.pi)) / 2.0)


def test_quartic_endpoints_closed_form():
    sol = twocut.solve_endpoints_symmetric(quartic_field(-10.0))
    assert sol.converged
    assert sol.u1 == pytest.approx(U1_QUARTIC, abs=1e-9)
    assert sol.u2 == pytest.approx(U2_QUARTIC, abs=1e-9)


def test_quartic_density_closed_form():
    field = quartic_field(-10.0)
    sol = twocut.solve_endpoints_symmetric(field)
    tab = twocut.density_symmetric(sol, field, 400)
    a, b = sol.u1, sol.u2
    xs = np.concatenate([band.xs for band in tab.bands])
    want = 4.0 * np.abs(xs) * np.sqrt(
        np.maximum((a * a - xs * xs) * (xs * xs - b * b), 0.0)
    )
    got = np.concatenate([band.psis for band in tab.bands])
    assert np.max(np.abs(got - want)) < 1e-6 * np.max(want)
    assert tab.mass() == pytest.approx(1.0, abs=1e-9)
    assert len(tab.bands) == 2


def test_two_bands_mirror():
    field = quartic_field(-10.0)
    sol = twocut.solve_endpoints_symmetric(field)
    tab = twocut.density_symmetric(sol, field, 200)
    left, right = tab.bands
    assert left.lo == pytest.approx(-right.hi, abs=1e-14)
    assert left.hi == pytest.approx(-right.lo, abs=1e-14)
    np.testing.assert_allclose(left.psis, right.psis[::-1], rtol=1e-12)


def test_scaled_endpoints_large_t():
    target = 1.0 / math.sqrt(2.0)
    for t in (-1e2, -1e4):
        sol = twocut.solve_endpoints_symmetric(quartic_field(t))
        s = math.sqrt(abs(t))
        assert sol.u1 / s == pytest.approx(target, rel=2e-2)
        assert sol.u2 / s == pytest.approx(target, rel=2e-2)


def test_stalled_solve_reports_steps_taken():
    # xi^4 + 1000 xi^2 has no two-band solution: the Jacobian at the
    # seed is singular, so no Newton step is taken
    sol = twocut.solve_endpoints_symmetric(quartic_field(1000.0))
    assert not sol.converged
    assert sol.message == "singular Jacobian"
    assert sol.iterations == 0


def test_rejects_odd_field():
    with pytest.raises(NotEven):
        twocut.solve_endpoints_symmetric(sextic_field(-10.0))


def test_guess_must_be_positive_and_ordered():
    with pytest.raises(InvalidInterval):
        twocut.solve_endpoints_symmetric(quartic_field(-10.0), guess=(2.0, -1.0))


def test_solve_from_guess():
    sol = twocut.solve_endpoints_symmetric(quartic_field(-10.0), guess=(2.4, 2.1))
    assert sol.converged
    assert sol.u1 == pytest.approx(U1_QUARTIC, abs=1e-10)
    assert sol.u2 == pytest.approx(U2_QUARTIC, abs=1e-10)


def test_edge_samples_match_fine_principal_value():
    # |xi|^4.5 - 30 xi^2 has a kink at 0 between the bands.  At grid
    # 801 the outermost right-band samples lie 1e-6 band widths from
    # the endpoints; they match a principal value with a fixed 2^16
    # nodes.  density_symmetric itself rejects this field's mass.
    field = FieldSpec(vstar=(PowerTerm("abs_power", 4.5, 1.0),),
                      p_coeffs=(0.0, 0.0, 1.0), t=-30.0)
    sol = twocut.solve_endpoints_symmetric(field)
    assert sol.converged
    lf, dm, half = anchored._local(sol, field)
    got = anchored._sample(twocut._ANSATZ, lf, dm, half, 801)[[0, -1]]
    d1, d2 = dm + half, dm - half
    dxi = dm + half * np.cos(chebyshev_angles(801)[[0, -1]])
    twoc = float(2.0 * lf.center_long)

    def g(d, x):
        # V'(mu) / ((xi + mu) sqrt((u1 + mu)(mu + u2)))
        return lf.deriv(d, 1) / ((twoc + d + x) * np.sqrt(
            (twoc + d + d1) * (twoc + d + d2)))

    xi = float(lf.center_long) + dxi
    phi = -(xi / math.pi) * pv_band_integral_delta(g, d1, d2, dxi, m=2**16)
    rad = (d1 - dxi) * (dxi - d2) * (twoc + dxi + d1) * (twoc + dxi + d2)
    np.testing.assert_allclose(got, 2.0 * np.sqrt(rad) * phi, rtol=1e-12, atol=0.0)


def test_residual_builds_one_derivative_tensor(monkeypatch):
    """One residual evaluation evaluates the tensor rule once, for
    V^(3) only: dPsi1/du2 is the one slope the pair reads."""
    field = quartic_field(-1000.0)
    lf, dm, half = anchored._local(twocut.solve_endpoints_symmetric(field), field)
    pair = twocut._residual_fun(field, lf)
    orders = []
    deriv = LocalField.deriv

    def spy(self, delta, order, dtype=np.float64):
        if np.ndim(delta) == 5:  # the tensor rule's argument
            orders.append(order)
        return deriv(self, delta, order, dtype=dtype)

    monkeypatch.setattr(LocalField, "deriv", spy)
    pair(dm, half)
    assert orders == [3]
