"""Band quadrature, principal-value integrals, branch signs."""

import math

import numpy as np
import pytest
from scipy import integrate

from eqm.errors import InvalidInterval, SingularPoint
from eqm.field import LocalField, polynomial_field
from eqm.quadrature import (
    band_integral,
    chebyshev_rule,
    field_band_integral_delta,
    field_pv_band_integral_delta,
    pv_band_integral_delta,
    r_branch,
)

from conftest import quartic_field


def test_band_integral_constant():
    # integral of 1/sqrt((u1-mu)(mu-u2)) over the band is pi
    val = band_integral(lambda mu: np.ones_like(mu), 1.0, -1.0)
    assert val == pytest.approx(math.pi, rel=1e-12)


def test_band_integral_polynomial():
    # integral of mu^2/sqrt(1-mu^2) = pi/2
    val = band_integral(lambda mu: mu**2, 1.0, -1.0)
    assert val == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_band_integral_interval_validation():
    with pytest.raises(InvalidInterval):
        band_integral(lambda mu: mu, -1.0, 1.0)


def test_symmetric_band_integral_weight():
    # weight 1/sqrt((u1^2-mu^2)(mu^2-u2^2)) on the right band, for
    # V' = mu^2 + 0.3 mu^4, and its mass moment with q = mu^2 -
    # (u1^2 + u2^2)/2
    u1, u2 = 2.1, 0.7
    lf = LocalField(polynomial_field([0.06, 0.0, 1.0 / 3.0, 0.0, 0.0, 0.0]),
                    0.5 * (u1 + u2))
    d1, d2 = float(lf.to_delta(u1)), float(lf.to_delta(u2))
    val, moment = field_band_integral_delta(lf, d1, d2, mirror=True)
    f = lambda mu: mu**2 + 0.3 * mu**4
    smooth = lambda mu: f(mu) / math.sqrt((u1 + mu) * (mu + u2))
    ref, _ = integrate.quad(smooth, u2, u1, weight="alg", wvar=(-0.5, -0.5))
    assert val == pytest.approx(ref, rel=1e-10)
    q = lambda mu: mu**2 - 0.5 * (u1**2 + u2**2)
    ref, _ = integrate.quad(lambda mu: q(mu) * smooth(mu), u2, u1, weight="alg",
                            wvar=(-0.5, -0.5))
    assert moment == pytest.approx(ref, rel=1e-10)


def test_pv_identity_inside():
    # PV integral of 1/((xi-mu) sqrt((u1-mu)(mu-u2))) vanishes inside
    val = pv_band_integral_delta(lambda d, x: np.ones_like(d), 1.0, -1.0, 0.3)
    assert val == pytest.approx(0.0, abs=1e-10)


def test_pv_linear_inside():
    # PV of mu/((xi-mu)sqrt(1-mu^2)): xi*PV[1/...] - pi = -pi inside,
    # up to the endpoints
    for xi in (0.3, 1.0 - 2e-13, -1.0 + 2e-13):
        val = pv_band_integral_delta(lambda d, x: d, 1.0, -1.0, xi)
        assert val == pytest.approx(-math.pi, rel=1e-10)


def test_pv_matches_epsilon_limit():
    f = lambda mu: np.exp(0.3 * mu)
    u1, u2, xi = 1.2, -0.4, 0.5
    val = pv_band_integral_delta(lambda d, x: f(d), u1, u2, xi)

    def sym(eps):
        g = lambda mu: f(mu) / ((xi - mu) * np.sqrt((u1 - mu) * (mu - u2)))
        lo, _ = integrate.quad(g, u2, xi - eps, limit=400)
        hi, _ = integrate.quad(g, xi + eps, u1, limit=400)
        return lo + hi

    # Richardson on the symmetric-limit sequence
    e1, e2 = sym(1e-3), sym(5e-4)
    extrap = 2.0 * e2 - e1
    assert val == pytest.approx(extrap, abs=1e-6)


def test_pv_singular_point_validation():
    # on an endpoint, or just outside one
    for xi in (1.0, -1.0, 1.0 + 2e-13, -1.0 - 2e-13):
        with pytest.raises(SingularPoint):
            pv_band_integral_delta(lambda d, x: d, 1.0, -1.0, xi)


def test_field_band_integrals_match_generic():
    f = quartic_field(-10.0)
    u1, u2, xi = 2.3, 2.1, 2.2
    lf = LocalField(f, 0.5 * (u1 + u2))
    d1, d2, dxi = (float(lf.to_delta(x)) for x in (u1, u2, xi))
    direct = band_integral(lambda mu: f.eval(mu, 1), u1, u2)
    via_field, moment = field_band_integral_delta(lf, d1, d2)
    assert via_field == pytest.approx(direct, rel=1e-12)
    mid = 0.5 * (u1 + u2)
    direct = band_integral(lambda mu: (mu - mid) * f.eval(mu, 1), u1, u2)
    assert moment == pytest.approx(direct, rel=1e-12)
    direct_pv = pv_band_integral_delta(lambda d, x: f.eval(d, 1), u1, u2, xi)
    via_field_pv = field_pv_band_integral_delta(lf, d1, d2, dxi)
    assert via_field_pv == pytest.approx(direct_pv, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize(
    "call",
    [
        lambda lf: field_band_integral_delta(lf, -0.1, 0.1),
        lambda lf: field_band_integral_delta(lf, -0.1, 0.1, mirror=True),
        lambda lf: field_pv_band_integral_delta(lf, -0.1, 0.1, 0.0),
        lambda lf: pv_band_integral_delta(lambda d, x: d, -0.1, 0.1, 0.0),
    ],
    ids=["band", "symmetric", "field_pv", "pv"],
)
def test_delta_forms_reject_reversed_offsets(call):
    lf = LocalField(quartic_field(-10.0), 2.2)
    with pytest.raises(InvalidInterval):
        call(lf)


def test_r_branch_signs():
    u = (2.0, 1.0, -1.0, -2.0)
    assert r_branch(3.0, u) > 0.0          # right of all endpoints
    assert r_branch(0.0, u) < 0.0          # two endpoints above: sign -1
    assert r_branch(-3.0, u) > 0.0         # four endpoints above: sign +1
    # gap points: two endpoints above -> negative branch
    assert r_branch(0.5, u) < 0.0
    assert r_branch(-0.5, u) < 0.0
    u0 = (1.0, -1.0)
    assert r_branch(2.0, u0) > 0.0         # no endpoints above
    assert r_branch(-2.0, u0) < 0.0        # both endpoints above


def test_r_branch_magnitude():
    u = (1.0, -1.0)
    assert abs(r_branch(2.0, u)) == pytest.approx(math.sqrt(3.0), rel=1e-14)


def _pv_reference(f, d1, d2, x):
    """One-pole PV with its own node doubling: the scalar algorithm that
    the batched quadrature replaces, kept as the bit-level reference."""
    dmid, half = 0.5 * (d1 + d2), 0.5 * (d1 - d2)
    fx = float(np.asarray(f(np.full(1, x), x))[0]) if d2 < x < d1 else 0.0

    def evaluate(m):
        nodes, w = chebyshev_rule(m)
        d = dmid + half * nodes
        return w * float(np.sum((f(d, x) - fx) / (x - d)))

    m = 64
    prev = evaluate(m)
    while m < 4096:
        m *= 2
        cur = evaluate(m)
        if abs(cur - prev) <= 1e-12 * max(1.0, abs(cur)):
            return cur
        prev = cur
    return prev


def _pole_dependent(d, x):
    # the two-band sampler's shape: a node factor over a pole-dependent one
    return np.exp(0.3 * d) / ((4.0 + d + x) * np.sqrt(2.0 + d))


@pytest.mark.parametrize(
    "poles",
    [
        np.linspace(-0.999, 0.999, 37),  # inside
        np.array([-3.0, -1.0001, 1.0 + 1e-9, 2.5, 40.0]),  # outside
        np.array([-1.5, -0.2, 0.0, 0.7, 1.2, 1.0 - 1e-7]),  # mixed
        np.linspace(-1.2, 1.2, 601),  # more poles than one block
    ],
    ids=["inside", "outside", "mixed", "many"],
)
@pytest.mark.parametrize("f", [lambda d, x: np.exp(0.3 * d), _pole_dependent])
def test_array_pv_equals_per_pole_calls(poles, f):
    poles = poles[np.abs(np.abs(poles) - 1.0) > 1e-11]
    batched = pv_band_integral_delta(f, 1.0, -1.0, poles)
    single = [pv_band_integral_delta(f, 1.0, -1.0, float(x)) for x in poles]
    reference = [_pv_reference(f, 1.0, -1.0, float(x)) for x in poles]
    assert batched.shape == poles.shape
    assert batched.tolist() == single == reference


def test_array_pv_poles_stop_at_their_own_node_count():
    seen = []

    def f(d, x):
        if np.shape(d)[-1] > 1:
            seen.append((np.shape(d)[-1], np.size(x)))
        return np.exp(0.3 * d)

    # poles just outside the band need far more nodes than inside ones,
    # whose subtracted integrand is smooth
    poles = np.array([0.0, 0.3, -0.5, 1.0 + 1e-3, -1.0 - 1e-2])
    batched = pv_band_integral_delta(f, 1.0, -1.0, poles)
    poles_at = {}
    for m, k in seen:
        poles_at[m] = poles_at.get(m, 0) + k
    assert poles_at[64] == poles.size
    assert 0 < poles_at[max(poles_at)] < poles.size
    assert batched.tolist() == [_pv_reference(f, 1.0, -1.0, x) for x in poles]


def test_field_pv_array_matches_scalar():
    f = quartic_field(-10.0)
    lf = LocalField(f, 2.2)
    d1, d2 = float(lf.to_delta(2.3)), float(lf.to_delta(2.1))
    poles = np.linspace(d2 - 0.05, d1 + 0.05, 23)
    batched = field_pv_band_integral_delta(lf, d1, d2, poles)
    single = [field_pv_band_integral_delta(lf, d1, d2, float(x)) for x in poles]
    assert batched.tolist() == single


def test_array_pv_singular_point_on_any_pole():
    with pytest.raises(SingularPoint):
        pv_band_integral_delta(
            lambda d, x: d, 1.0, -1.0, np.array([0.2, -1.0, 0.4])
        )
    with pytest.raises(SingularPoint):
        pv_band_integral_delta(
            lambda d, x: np.exp(d), 1.0, -1.0, np.array([3.0, 1.0])
        )
