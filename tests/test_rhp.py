"""Endpoint vectors, the Q polynomial and the band factor."""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eqm import anchored, onecut, rhp, twocut
from eqm.density import chebyshev_angles, chebyshev_coeffs
from eqm.errors import EqmError, InvalidInterval
from eqm.field import LONG, FieldSpec, LocalField, PowerTerm
from eqm.quadrature import band_field, field_pv_band_integral_delta, r_branch
from eqm.rhp import (EndpointVector, QPolynomial, _band_integral_factor, band_factor,
                     band_factor_coeffs, q_polynomial)

from conftest import abs_power_field, quartic_field, semicircle_field, sextic_field


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
    got = band_factor(lf, roots)(dxi)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_band_factor_of_the_semicircle_and_the_quartic_is_exact():
    """V = t xi^2 has Phi_0 = t; V = xi^4 + t xi^2 has Phi_1 = 2 xi for
    any mirror endpoints, and Phi_0 = 2 xi^2 + u1^2 + t on [-u1, u1]."""
    lf = LocalField(semicircle_field(3.0), 0.0)
    assert band_factor_coeffs(lf, (0.4, -0.4)).tolist() == [3.0]
    lf = LocalField(quartic_field(-7.0), 0.0)
    assert band_factor_coeffs(lf, (2.5, 1.5, -1.5, -2.5)).tolist() == [0.0, 2.0]
    assert band_factor_coeffs(lf, (0.5, -0.5)).tolist() == [0.25 - 7.0, 0.0, 2.0]


def _solved_edges(field, mirror):
    """lf, the band's offset midpoint and half width, and the edge
    offsets of an anchored solve, mirror edges laid out as the sampler
    lays them out: -2c - d2 and -2c - d1 for the center c of lf."""
    sol = anchored.solve(field, 1e-10, 100, mirror)
    if not sol.converged:
        return None
    lf, dm = anchored._prepare(field, sol.anchor, sol.dm)
    d1, d2 = dm + sol.half, dm - sol.half
    roots = [LONG(d1), LONG(d2)]
    if mirror:
        a2 = -2.0 * lf.center_long
        roots += [a2 - d2, a2 - d1]
    return lf, dm, sol.half, np.array(roots, dtype=LONG)


def _fine_band_factor(lf, roots, dx):
    """``_band_integral_factor`` with every principal value on a fixed
    2^16-node rule: the reference of the series route."""
    fine = functools.partial(field_pv_band_integral_delta, m=2**16)
    with mock.patch.object(rhp, "field_pv_band_integral_delta", fine):
        return _band_integral_factor(lf, roots, dx)


def _series_bound(lf, roots, dx):
    """A bound on |Phi - Phi_ref| at the offsets dx, derived from each
    band's series c of K terms, half width h, and 256-node transform
    c256 of its F_j.

    Band j adds 1/(2h) times (a) 16 K^2 eps max|c|: K terms of U_(k-1),
    each at most k (times e just off the band), with coefficients off
    by the rounding of F_j's samples and of the DCT, and Clenshaw's
    doubling; the 16 covers those constants and the reference's own
    sum over 2^16 nodes; (b) the chop: sum over k >= K of k |c256_k|;
    (c) off the band, where the sum is Horner's over sqrt(y^2 - 1) >=
    1/K, 16 K eps |F_j(x)| for the F_j(x) that a point nearest band j
    subtracts.
    """
    eps = np.finfo(float).eps
    total = np.zeros(np.size(dx))
    flat = np.ravel(dx)
    hi, lo = roots[0::2].astype(float), roots[1::2].astype(float)
    nearest = np.argmin(np.abs(flat - 0.5 * (hi + lo)[:, None])
                        - 0.5 * (hi - lo)[:, None], axis=0)
    bands = list(rhp._bands(lf, roots))
    for j, (band, d) in enumerate(bands):
        c = rhp._band_series(bands, j)
        d1, d2 = float(d[2 * j]), float(d[2 * j + 1])
        others = np.delete(d, [2 * j, 2 * j + 1])
        nodes = 0.5 * (d1 + d2) + 0.5 * (d1 - d2) * np.cos(chebyshev_angles(256))
        c256 = chebyshev_coeffs(band_field(band, nodes, others).astype(float))
        k = len(c)
        chopped = np.sum(np.arange(k, 256) * np.abs(c256[k:]))
        x = flat.astype(LONG) - (band.center_long - lf.center_long)
        fx = np.where(nearest == j, np.abs(band_field(band, x, others).astype(float)), 0.0)
        total += (16 * eps * (k * k * np.max(np.abs(c)) + k * fx) + chopped) / (d1 - d2)
    return total


def _abs_fields():
    """|xi|^a + t xi^n, a in (3, 8], n = 1 or 2, t = +-10^(0..3), with
    the mirror flag: a mirror pair for every t < 0 at n = 2."""
    @st.composite
    def draw(draw):
        a = draw(st.floats(3.0, 8.0, exclude_min=True))
        n = draw(st.sampled_from([1, 2]))
        t = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(0.0, 3.0))
        return abs_power_field(a, n, t), n == 2 and t < 0.0
    return draw()


@settings(max_examples=30, derandomize=True, database=None, deadline=10000)
@given(_abs_fields())
@example((abs_power_field(4.5, 1, -30.0), False))
@example((abs_power_field(4.5, 2, -3.0), True))
@example((abs_power_field(4.5, 2, -300.0), True))
def test_band_factor_series_matches_fine_principal_values(case):
    """Where every band's F_j has a series, the band factor from it
    matches a 2^16-node principal value within the series' own bound
    (``_series_bound``): Phi at Chebyshev points of each band, and R Phi
    on each gap and exterior ray from 1e-7 to 10 support widths out.  A
    band without a series takes the quadrature, so the band factor is
    ``_band_integral_factor`` exactly."""
    field, mirror = case
    try:
        solved = _solved_edges(field, mirror)
    except EqmError:
        solved = None
    assume(solved is not None)
    lf, dm, half, roots = solved
    u = [float(r) for r in roots]
    cos = np.cos(chebyshev_angles(41))
    on = np.concatenate([0.5 * (u[2 * j] + u[2 * j + 1]) + 0.5 * (u[2 * j] - u[2 * j + 1])
                         * cos for j in range(len(u) // 2)])
    reach = (u[0] - u[-1]) * np.geomspace(1e-7, 10.0, 15)
    off = np.concatenate([u[0] + reach, u[-1] - reach]
                         + [0.5 * (u[2 * j + 1] + u[2 * j + 2])
                            + 0.5 * (u[2 * j + 1] - u[2 * j + 2]) * cos
                            for j in range(len(u) // 2 - 1)])
    bands = list(rhp._bands(lf, roots))
    if any(rhp._band_series(bands, j) is None for j in range(len(bands))):
        for x in (on, off):
            assert np.array_equal(band_factor(lf, roots)(x),
                                  _band_integral_factor(lf, roots, x))
        return
    phi = band_factor(lf, roots)
    got, want = phi(on), _fine_band_factor(lf, roots, on)
    assert np.all(np.abs(got - want) <= _series_bound(lf, roots, on))
    r = np.abs(r_branch(off + float(lf.center_long), [float(lf.center_long) + x for x in u]))
    got, want = r * phi(off), r * _fine_band_factor(lf, roots, off)
    assert np.all(np.abs(got - want) <= r * _series_bound(lf, roots, off))


def test_band_with_a_kink_inside_keeps_the_quadrature():
    """|xi|^4.5 + 30 xi^2 has one band across its kink at 0: no series
    within the node cap resolves F there, and the band factor is
    ``_band_integral_factor``'s, bit for bit, on and off the band."""
    lf, dm, half, roots = _solved_edges(abs_power_field(4.5, 2, 30.0), False)
    assert rhp._band_series(list(rhp._bands(lf, roots)), 0) is None
    x = np.concatenate([dm + half * np.cos(chebyshev_angles(101)),
                        dm + half * (1.0 + np.geomspace(1e-6, 10.0, 8)),
                        dm - half * (1.0 + np.geomspace(1e-6, 10.0, 8))])
    assert np.array_equal(band_factor(lf, roots)(x), _band_integral_factor(lf, roots, x))


def test_mirror_of_an_unresolved_band_takes_quadrature(monkeypatch):
    """|xi|^4.5 - 1e6 xi^2: V' sums terms near 3.6e8 to values near 1
    on the bands, so long-double noise keeps every series above eps and
    the right band takes quadrature.  Its mirror band then takes
    quadrature without a transform of its own, one ``_band_series``
    call per band factor, and the pair's band factor is
    ``_band_integral_factor``'s, bit for bit."""
    lf, dm, half, roots = _solved_edges(abs_power_field(4.5, 2, -1e6), True)
    calls, series = [], rhp._band_series
    monkeypatch.setattr(rhp, "_band_series",
                        lambda bands, j: calls.append(j) or series(bands, j))
    phi = band_factor(lf, roots)
    assert calls == [0]
    x = np.concatenate([dm + half * np.cos(chebyshev_angles(21)),
                        -2.0 * float(lf.center_long) - dm + half * np.cos(chebyshev_angles(21)),
                        dm + half * (1.0 + np.geomspace(1e-6, 10.0, 4))])
    assert np.array_equal(phi(x), _band_integral_factor(lf, roots, x))


@pytest.mark.parametrize("t", [-3.0, -30.0, -300.0])
def test_mirror_band_series_is_the_folded_right_band(monkeypatch, t):
    """For the even |xi|^4.5 + t xi^2 the left band's F is -F(-mu) of
    the right one, so its coefficients are -(-1)^k c_k: its own
    transform agrees with the fold to the rounding of the samples, and
    the band factor of the pair, laid out as the sampler lays it out,
    runs one transform, as it does with a left edge one longdouble
    ulp further out."""
    lf, dm, half, roots = _solved_edges(abs_power_field(4.5, 2, t), True)
    bands = list(rhp._bands(lf, roots))
    right, left = rhp._band_series(bands, 0), rhp._band_series(bands, 1)
    assert rhp._mirror_band(bands, 1) == 0
    folded = rhp._folded(right)
    size = max(len(left), len(folded))
    gap = np.pad(left, (0, size - len(left))) - np.pad(folded, (0, size - len(folded)))
    assert np.max(np.abs(gap)) <= 16 * np.finfo(float).eps * np.sum(np.abs(right))
    calls = []
    monkeypatch.setattr(rhp, "_band_series",
                        lambda bands, j: calls.append(j) or right)
    nudged = roots.copy()
    nudged[3] = np.nextafter(roots[3], LONG(-np.inf))
    for edges in (roots, nudged):
        calls.clear()
        band_factor(lf, edges)
        assert calls == [0]
