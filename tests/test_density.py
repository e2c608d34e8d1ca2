"""Density tables: masses, potentials, CSV round-trip."""

import math

import numpy as np
import pytest
from scipy import fft, integrate

from eqm import onecut, twocut
from eqm.density import Band, DensityTable, _dct3, _dst2, chebyshev_angles

from conftest import quartic_field, semicircle_field, semicircle_radius


def _semicircle_table(t, n):
    field = semicircle_field(t)
    sol = onecut.solve_endpoints(field)
    return onecut.density(sol, field, n)


@pytest.mark.parametrize("n", [*range(1, 41), 201, 401, 801])
def test_real_fft_transforms_match_scipy(n):
    x = np.random.default_rng(n).standard_normal(n)
    for ours, ref in ((_dst2(x), fft.dst(x, type=2)), (_dct3(x), fft.dct(x, type=3))):
        assert np.max(np.abs(ours - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_chebyshev_angles_layout():
    th = chebyshev_angles(4)
    assert len(th) == 4
    assert th[0] == pytest.approx(math.pi / 8)
    assert th[-1] == pytest.approx(7 * math.pi / 8)


def test_band_mass_semicircle():
    tab = _semicircle_table(1.0, 400)
    assert tab.mass() == pytest.approx(1.0, abs=1e-10)


def test_log_potential_matches_quadrature_off_support():
    tab = _semicircle_table(1.0, 200)
    band = tab.bands[0]
    r = semicircle_radius(1.0)
    for xi in (1.7, -2.4, 0.9):
        direct, _ = integrate.quad(
            lambda mu: math.log(abs(xi - mu))
            * 2.0
            * math.sqrt(max(r * r - mu * mu, 0.0)),
            -r,
            r,
            limit=200,
        )
        assert tab.log_potential(xi) == pytest.approx(direct / math.pi, abs=1e-9)


def test_log_potential_on_support_semicircle():
    # L(psi) - V constant on the support for the equilibrium density
    tab = _semicircle_table(1.0, 300)
    xs = np.array([-0.3, 0.0, 0.2, 0.45])
    vals = tab.log_potential(xs) - xs * xs
    assert np.max(vals) - np.min(vals) < 1e-11


def test_interp_zero_outside():
    tab = _semicircle_table(1.0, 100)
    assert tab.interp(2.0) == 0.0
    assert tab.interp(-2.0) == 0.0
    band = tab.bands[0]
    assert band.interp(band.lo) == 0.0
    assert band.interp(band.hi) == 0.0


def test_endpoints_desc():
    field = quartic_field(-10.0)
    sol = twocut.solve_endpoints_symmetric(field)
    tab = twocut.density_symmetric(sol, field, 100)
    u = tab.endpoints_desc
    assert list(u) == sorted(u, reverse=True)
    assert len(u) == 4


def test_csv_roundtrip():
    fmt = lambda x: f"{x:.12g}"
    tab = _semicircle_table(1.0, 150)
    text = tab.to_csv(fmt)
    back = DensityTable.from_csv(text)
    assert len(back.bands) == 1
    np.testing.assert_allclose(back.bands[0].xs, tab.bands[0].xs, rtol=1e-11)
    np.testing.assert_allclose(back.bands[0].psis, tab.bands[0].psis, rtol=1e-11)
    assert back.lagrange_l == pytest.approx(tab.lagrange_l, rel=1e-11)
    assert back.mass() == pytest.approx(1.0, abs=1e-9)


def test_csv_roundtrip_two_bands():
    fmt = lambda x: f"{x:.12g}"
    field = quartic_field(-10.0)
    sol = twocut.solve_endpoints_symmetric(field)
    tab = twocut.density_symmetric(sol, field, 120)
    back = DensityTable.from_csv(tab.to_csv(fmt))
    assert len(back.bands) == 2
    assert back.mass() == pytest.approx(1.0, abs=1e-9)


def _log_potential_reference(band, xi):
    """The log potential term by term from the sine coefficients, with
    cos(k phi) and v^-k taken one point at a time."""
    b = band.sine_coeffs()
    n = len(b)
    y = (xi - band.mid) / band.half
    ks = np.arange(1, n + 3)
    if abs(y) <= 1.0:
        rho = np.cos(ks * math.acos(min(1.0, max(-1.0, y))))
        c0 = -math.log(2.0)
    else:
        v = math.copysign(abs(y) + math.sqrt(y * y - 1.0), y)
        rho = np.power(v, -ks)
        c0 = math.log(abs(v) / 2.0)
    total = 0.5 * b[0] * (math.log(band.half) + c0) + 0.25 * b[0] * rho[1]
    m = np.arange(1, n)
    total -= 0.5 * float(np.dot(b[1:], rho[m - 1] / m - rho[m + 1] / (m + 2.0)))
    return band.half**2 * total


def _tables():
    one = _semicircle_table(1.0, 300)
    field = quartic_field(-10.0)
    sol = twocut.solve_endpoints_symmetric(field)
    return one, twocut.density_symmetric(sol, field, 401), sol


def _rough_table(n):
    """Two bands of random samples: their sine coefficients do not
    decay, so the last terms of every series carry weight."""
    rng = np.random.default_rng(n)
    return DensityTable([Band.from_angles(lo, hi, rng.uniform(0.0, 1.0, n))
                         for lo, hi in ((-3.0, -1.0), (0.5, 1.5))])


def test_sine_coeffs_match_explicit_sum():
    one, two, _ = _tables()
    for band in one.bands + two.bands:
        n = len(band.xs)
        q = band.psis_by_angle() / band.half
        # (m+1) theta_j = (m+1)(2j+1) pi / (2n), reduced mod 2 pi in integers
        # so that the sines of large arguments stay exact to rounding
        j = np.arange(n)
        turns = np.outer(j + 1, 2 * j + 1) % (4 * n)
        want = (2.0 / n) * np.sin(turns * (np.pi / (2 * n))) @ q
        np.testing.assert_allclose(band.sine_coeffs(), want, rtol=1e-15,
                                   atol=1e-15 * np.max(np.abs(want)))


def test_node_evaluation_matches_reference():
    for tab in (*_tables()[:2], _rough_table(9), _rough_table(64)):
        nodes = np.concatenate([b.nodes() for b in tab.bands])
        got = tab.log_potential_at_nodes()
        want = sum(
            np.array([_log_potential_reference(b, x) for x in nodes])
            for b in tab.bands
        )
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(got, tab.log_potential(nodes),
                                   rtol=1e-15, atol=1e-15)


def test_log_potential_array_matches_points_two_bands():
    _, tab, sol = _tables()
    on = np.concatenate([b.xs for b in tab.bands])
    u1, u2 = sol.u1, sol.u2
    off = np.concatenate([
        np.linspace(-u2, u2, 41)[1:-1],  # the gap
        np.linspace(u1, 3.0 * u1, 40)[1:],  # outside, out to where v^-k underflows
        -np.linspace(u1, 3.0 * u1, 40)[1:],
        [-1e4 * u1, 1e4 * u1, -np.inf, np.inf],
    ])
    for band in tab.bands + _rough_table(64).bands:
        for pts in (on, off):
            batched = band.log_potential(pts)
            single = np.array([band.log_potential(x) for x in pts])
            ref = np.array([_log_potential_reference(band, x) for x in pts])
            np.testing.assert_allclose(batched, single, rtol=1e-15, atol=1e-15)
            np.testing.assert_allclose(single, ref, rtol=1e-15, atol=1e-15)
    # the table sums its bands point by point
    pts = np.concatenate([on, off[:-2]])
    total = sum(band.log_potential(pts) for band in tab.bands)
    assert tab.log_potential(pts).tolist() == total.tolist()
