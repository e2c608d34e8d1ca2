"""Density tables: masses, potentials, CSV round-trip."""

import importlib
import math

import numpy as np
import pytest
from scipy import fft, integrate

from eqm import onecut, twocut
from eqm.density import (Band, DensityTable, _dct3, _dst2, _twiddles,
                         chebyshev_angles, csv_rows)
from eqm.field import FieldSpec, PowerTerm

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


def _dst2_fresh(x):
    """``_dst2`` with its twiddles built inline on every call."""
    n = len(x)
    v = np.concatenate([x[::2], -x[1::2][::-1]])
    z = np.exp(-0.5j * np.pi / n * np.arange(n // 2 + 1)) * np.fft.rfft(v)
    c = np.empty(n)
    c[:n // 2 + 1] = 2.0 * z.real
    c[:n // 2:-1] = -2.0 * z.imag[1:(n + 1) // 2]
    return c[::-1]


def _dct3_fresh(a):
    """``_dct3`` with its twiddles built inline on every call."""
    n = len(a)
    k = np.arange(n // 2 + 1)
    rev = np.zeros(n // 2 + 1)
    rev[1:] = a[:(n - 1) // 2:-1]
    spec = np.exp(0.5j * np.pi / n * k) * (a[:n // 2 + 1] - 1j * rev)
    v = np.fft.irfft(spec, n, norm="forward")
    y = np.empty(n)
    y[::2] = v[:(n + 1) // 2]
    y[1::2] = v[:(n - 1) // 2:-1]
    return y


@pytest.mark.parametrize("n", [1, 2, 3, 201, 401, 801])
def test_cached_twiddles_are_bitwise_fresh(n):
    """The per-length twiddle cache changes no bit of either transform,
    on the call that fills it and on the calls that reuse it."""
    x = np.random.default_rng(n).standard_normal(n)
    _twiddles.cache_clear()
    for _ in range(2):
        assert np.array_equal(_dst2(x), _dst2_fresh(x))
        assert np.array_equal(_dct3(x), _dct3_fresh(x))
    assert _twiddles.cache_info().hits == 2
    assert not _twiddles(n, False).flags.writeable


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
    tab = _semicircle_table(1.0, 150)
    text = tab.to_csv()
    back = DensityTable.from_csv(text)
    assert len(back.bands) == 1
    np.testing.assert_allclose(back.bands[0].xs, tab.bands[0].xs, rtol=1e-11)
    np.testing.assert_allclose(back.bands[0].psis, tab.bands[0].psis, rtol=1e-11)
    assert back.lagrange_l == pytest.approx(tab.lagrange_l, rel=1e-11)
    assert back.mass() == pytest.approx(1.0, abs=1e-9)


def test_csv_roundtrip_two_bands():
    field = quartic_field(-10.0)
    sol = twocut.solve_endpoints_symmetric(field)
    tab = twocut.density_symmetric(sol, field, 120)
    back = DensityTable.from_csv(tab.to_csv())
    assert len(back.bands) == 2
    assert back.mass() == pytest.approx(1.0, abs=1e-9)


def test_csv_rows_match_per_value_formatting():
    """The blockwise row writer formats every value as f"{v:.12g}"
    does, and as the per-row writer it replaced: signed zeros, subnormals,
    +-1e300, integer-valued floats, infinities, nan, values that round
    at the twelfth digit and random magnitudes."""
    rng = np.random.default_rng(7)
    edge = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300,
            -1e300, 3.0, -42.0, 1e15, 123456789012.0, math.inf, -math.inf,
            math.nan, 0.12345678901250, 1.00000000000050, 2.5e-13,
            -999999999999.5, 1e16 + 2.0, np.nextafter(1.0, 2.0)]
    xs = np.concatenate([edge, rng.standard_normal(2000)
                         * 10.0 ** rng.integers(-300, 300, 2000)])
    ys = rng.permutation(xs)
    want = "".join(f"{x:.12g},{y:.12g}\n" for x, y in zip(xs.tolist(), ys.tolist()))
    per_row = "".join(map("%.12g,%.12g\n".__mod__, zip(xs.tolist(), ys.tolist())))
    assert csv_rows(xs, ys) == want == per_row
    # row counts on both sides of the 64-row blocks
    for n in (0, 1, 63, 64, 65, 128, 129):
        assert csv_rows(xs[:n], ys[:n]) == "".join(want.splitlines(keepends=True)[:n])


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


def _full_fold(band):
    """All n + 2 folded coefficients a_k, before the eps cut."""
    b = band.sine_coeffs()
    n = len(b)
    m = np.arange(1.0, n)
    a = np.zeros(n + 2)
    a[2] = 0.25 * b[0]
    a[1:n] -= b[1:] / (2.0 * m)
    a[3:] += b[1:] / (2.0 * (m + 2.0))
    return a


def _even_field(kind, power, t):
    """V = c xi^power (c|xi|^power for abs_power) + t xi^2."""
    return FieldSpec(vstar=(PowerTerm(kind, power, 1.0),),
                     p_coeffs=(0.0, 0.0, 1.0), t=float(t))


@pytest.fixture(scope="module")
def solved_tables():
    """801-node tables, the grid of eqm solve: the quartic two-band at
    -10 and -1e5, the sextic two-band near its transition, and the kinked
    one-band |xi|^4.5 + 30 xi^2, whose band holds xi = 0."""
    tables = {}
    for name, field in (("quartic-t-10", quartic_field(-10.0)),
                        ("quartic-t-1e5", quartic_field(-1e5)),
                        ("sextic-t-0.65", _even_field("monomial", 6.0, -0.65))):
        sol = twocut.solve_endpoints_symmetric(field)
        tables[name] = twocut.density_symmetric(sol, field, 801)
    field = _even_field("abs_power", 4.5, 30.0)
    tables["abs4.5-t30"] = onecut.density(onecut.solve_endpoints(field), field, 801)
    return tables


def test_semicircle_series_keeps_three_terms():
    band = _semicircle_table(1.0, 300).bands[0]
    assert len(band._log_series()) == 3


def test_series_cut_drops_only_coefficients_under_eps(solved_tables):
    eps = np.finfo(float).eps
    for tab in solved_tables.values():
        for band in tab.bands:
            full, kept = _full_fold(band), band._log_series()
            k, floor = len(kept), eps * np.max(np.abs(full))
            assert k < len(full)
            assert np.array_equal(kept, full[:k])
            assert abs(kept[-1]) > floor
            assert np.all(np.abs(full[k:]) <= floor)


def test_cut_series_within_stated_bound_of_full_sum(solved_tables):
    """On the bands, in the gap (on the band for one band), outside and
    1e-9 from every edge, the cut series stays within
    (n + 2 - K) eps max|a| half^2 (plus 1e-15 rounding) of the full
    term-by-term sum."""
    eps = np.finfo(float).eps
    for tab in solved_tables.values():
        lo, hi = tab.bands[0].lo, tab.bands[-1].hi
        width = hi - lo
        steps = width * np.geomspace(1e-3, 10.0, 20)
        probes = [
            np.concatenate([b.xs for b in tab.bands]),
            np.linspace(tab.bands[0].hi, tab.bands[-1].lo, 41)[1:-1],
            np.concatenate([lo - steps, hi + steps]),
            np.array([e + s for b in tab.bands for e in (b.lo, b.hi)
                      for s in (-1e-9, 1e-9)]),
        ]
        for band in tab.bands:
            full = _full_fold(band)
            bound = ((len(full) - len(band._log_series())) * eps
                     * np.max(np.abs(full)) * band.half**2)
            for pts in probes:
                got = band.log_potential(pts)
                ref = np.array([_log_potential_reference(band, x) for x in pts])
                assert np.all(np.abs(got - ref)
                              <= bound + 1e-15 * np.maximum(1.0, np.abs(ref)))


def test_rough_and_csv_series_keep_every_term():
    field = quartic_field(-10.0)
    sol = twocut.solve_endpoints_symmetric(field)
    read = DensityTable.from_csv(twocut.density_symmetric(sol, field, 401).to_csv())
    for tab in (_rough_table(9), _rough_table(64), read):
        for band in tab.bands:
            assert np.array_equal(band._log_series(), _full_fold(band))


def test_series_of_zero_or_nan_density():
    """A zero density keeps only a_0 = 0; a nan sample keeps the whole
    fold, so the nan reaches every sum."""
    pts = np.array([-1.0, 0.0, 3.0])
    zero = Band.from_angles(-0.5, 0.5, np.zeros(8))
    assert zero._log_series().tolist() == [0.0]
    assert np.all(zero.log_potential(pts) == 0.0)
    samples = np.ones(8)
    samples[3] = np.nan
    bad = Band.from_angles(-0.5, 0.5, samples)
    assert len(bad._log_series()) == 10
    assert np.all(np.isnan(bad.log_potential(pts)))
    assert np.all(np.isnan(bad.log_potential_at_nodes()))


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


def _off_band_points(rng, size, scale):
    """size points with |y| drawn around scale (|y| > 1), mixed signs."""
    y = scale * (1.0 + 1e-3 * rng.uniform(1e-3, 1.0, size))
    return y * rng.choice([-1.0, 1.0], size)


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
    rng = np.random.default_rng(401)
    for band in tab.bands + _rough_table(64).bands + _rough_table(400).bands:
        # |1/v| above and below 1/2, and 1e3 and 1e6 half-widths out, where
        # the 402-term series of the rough 400-sample bands underflows
        far = band.mid + band.half * np.concatenate(
            [_off_band_points(rng, 40, scale) for scale in (1.2, 1.3, 1e3, 1e6)])
        for pts in (on, off, far):
            batched = band.log_potential(pts)
            single = np.array([band.log_potential(x) for x in pts])
            ref = np.array([_log_potential_reference(band, x) for x in pts])
            np.testing.assert_allclose(batched, single, rtol=1e-15, atol=1e-15)
            np.testing.assert_allclose(single, ref, rtol=1e-15, atol=1e-15)
    # the table sums its bands point by point
    pts = np.concatenate([on, off[:-2]])
    total = sum(band.log_potential(pts) for band in tab.bands)
    assert tab.log_potential(pts).tolist() == total.tolist()


@pytest.mark.parametrize("size", [1, 40, 401])
@pytest.mark.parametrize("scale", [1.0, 1.2, 1.3, 1e3, 1e6],
                         ids=["near-1", "w-above-half", "w-below-half", "1e3", "1e6"])
def test_truncated_powers_match_full_cumprod_bitwise(monkeypatch, size, scale):
    """Off the band, the powers of w = 1/v are multiplied out only up to
    where they underflow; the log potential keeps every bit of the
    full-width running product."""
    rng = np.random.default_rng(size)
    band = _rough_table(400).bands[0]
    pts = band.mid + band.half * _off_band_points(rng, size, scale)
    got = band.log_potential(pts)
    # a stop estimate past the last column multiplies every power out
    monkeypatch.setattr(importlib.import_module("eqm.density"), "_TINY_BITS", 10**6)
    assert got.tobytes() == band.log_potential(pts).tobytes()
