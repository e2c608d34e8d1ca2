"""Kernel evaluators: PDE residuals, boundary data, identities."""

import math

import numpy as np
import pytest
from scipy.special import roots_jacobi

from eqm import epd
from eqm.epd import (
    EpdSpec,
    epd_residual,
    phi_eval,
    phi_eval_grad,
)
from eqm.field import LONG, FieldSpec, LocalField, PowerTerm
from eqm.quadrature import field_band_integral_delta
from eqm.rhp import _band_integral_factor

from conftest import quartic_field, semicircle_field, sextic_field


def monomial(k):
    return FieldSpec(vstar=(PowerTerm("monomial", float(k), 1.0),),
                     p_coeffs=(0.0, 1.0), t=0.0)


def phi0_at(field, xi, u1, u2):
    """Phi_0 at one point: the band factor's principal value inside the
    band, the tensor rule elsewhere (a point that rounds onto an edge
    included)."""
    if not u2 < xi < u1:
        return phi_eval(EpdSpec(0, "phi", field), xi, (u1, u2))
    lf = LocalField(field, 0.5 * (u1 + u2))
    roots = np.array([u1, u2], dtype=LONG) - lf.center_long
    return float(_band_integral_factor(lf, roots, lf.to_delta(xi)))


def phi1_symmetric_at(field, xi, u1, u2):
    """Phi_1 at one point for an even field on (u1, u2, -u2, -u1), odd
    in xi, dispatched as phi0_at: the principal values over both bands
    at |xi| in the right one."""
    ax = abs(xi)
    if not u2 < ax < u1:
        return phi_eval(EpdSpec(1, "phi", field), xi, (u1, u2, -u2, -u1))
    lf = LocalField(field, 0.5 * (u1 + u2))
    roots = np.array([u1, u2, -u2, -u1], dtype=LONG) - lf.center_long
    return math.copysign(1.0, xi) * float(
        _band_integral_factor(lf, roots, lf.to_delta(ax)))


def test_diagonal_boundary_phi():
    # phi diagonal = V''(u)/2 at g = 0
    f = monomial(4)
    val = phi_eval(EpdSpec(0, "phi", f), 1.0, (1.0, 1.0))
    assert val == pytest.approx(6.0, abs=1e-9)
    # g = 1: V''''(u)/(2*2!)
    val = phi_eval(EpdSpec(1, "phi", f), 1.0, (1.0, 1.0, 1.0, 1.0))
    assert val == pytest.approx(24.0 / 4.0, abs=1e-9)


def test_diagonal_boundary_psi():
    # psi diagonal = V'(u)/2 at g = 0 (one derivative below phi)
    f = monomial(2)
    val = phi_eval(EpdSpec(0, "psi", f), 1.0, (1.0, 1.0))
    assert val == pytest.approx(1.0, abs=1e-9)
    # g = 1: V''(u)/(2*2!)
    f4 = monomial(4)
    val = phi_eval(EpdSpec(1, "psi", f4), 0.5, (0.5, 0.5, 0.5, 0.5))
    assert val == pytest.approx(12.0 * 0.25 / 4.0, abs=1e-9)


def test_semicircle_phi_constant():
    f = semicircle_field(1.3)
    spec = EpdSpec(0, "phi", f)
    for xi, u in ((0.0, (0.5, -0.5)), (2.0, (1.0, -0.3)), (-1.0, (0.2, -0.9))):
        assert phi_eval(spec, xi, u) == pytest.approx(1.3, rel=1e-13)


def test_cubic_phi_closed_form():
    # V = xi^3: Phi0 = (3/2)(xi + (u1+u2)/2)
    f = monomial(3)
    spec = EpdSpec(0, "phi", f)
    for xi, u1, u2 in ((1.5, 1.0, -1.0), (3.0, 1.0, -1.0), (0.3, 0.8, -0.2)):
        want = 1.5 * (xi + 0.5 * (u1 + u2))
        assert phi_eval(spec, xi, (u1, u2)) == pytest.approx(want, rel=1e-12)
        assert phi0_at(f, xi, u1, u2) == pytest.approx(want, rel=1e-12)


def test_quartic_phi1_closed_form():
    # symmetric quartic at g = 1: Phi1 = 2*xi
    f = quartic_field(-10.0)
    spec = EpdSpec(1, "phi", f)
    u = (2.3, 2.1, -2.1, -2.3)
    for xi in (3.0, 0.7, -4.2):
        assert phi_eval(spec, xi, u) == pytest.approx(2.0 * xi, rel=1e-11)


@pytest.mark.parametrize("frac", [1e-15, 1e-13, 1e-6, 1e-3, 0.5])
def test_closed_forms_inside_a_band_match_tensor_rule(frac):
    # frac band widths inside each endpoint phi0_at and phi1_symmetric_at
    # take the principal value, whose subtracted integrand stays regular
    # up to the endpoint; the tensor rule is exact here too.  At 1e-15
    # the g = 1 points round onto their endpoints and the tensor rule
    # answers
    f0 = sextic_field(-100.0)
    u1, u2 = 4.0, 3.5
    w = frac * (u1 - u2)
    spec0 = EpdSpec(0, "phi", f0)
    for xi in (u1 - w, u2 + w):
        want = phi_eval(spec0, xi, (u1, u2))
        assert phi0_at(f0, xi, u1, u2) == pytest.approx(want, rel=1e-12)
    f1 = quartic_field(-10.0)
    u1, u2 = 2.3, 2.1
    w = frac * (u1 - u2)
    for xi in (u1 - w, u2 + w, -u2 - w, -u1 + w):
        assert phi1_symmetric_at(f1, xi, u1, u2) == pytest.approx(
            2.0 * xi, rel=1e-12
        )


def test_psi1_endpoint_sum_is_band_integral():
    # Psi1(u1) + Psi1(u2) on symmetric endpoints is one band integral
    # over pi, which vanishes at equilibrium endpoints
    f = quartic_field(-10.0)
    spec = EpdSpec(1, "psi", f)

    def band_sum(u1, u2):
        lf = LocalField(f, 0.5 * (u1 + u2))
        d1, d2 = float(lf.to_delta(u1)), float(lf.to_delta(u2))
        return field_band_integral_delta(lf, d1, d2, mirror=True)[0] / math.pi

    u1, u2 = 2.5, 1.8
    u = (u1, u2, -u2, -u1)
    total = phi_eval(spec, u1, u) + phi_eval(spec, u2, u)
    assert band_sum(u1, u2) == pytest.approx(total, rel=1e-10)
    assert abs(band_sum(2.3235624, 2.1450076)) < 1e-5


def test_pde_residual_decay_g0():
    rng = np.random.default_rng(7)
    fields = [monomial(4), sextic_field(-2.0), quartic_field(1.5)]
    for f in fields:
        spec = EpdSpec(0, "phi", f)
        for _ in range(5):
            u1 = rng.uniform(0.5, 1.5)
            u2 = u1 - rng.uniform(0.5, 1.5)
            xi = rng.uniform(-2.0, 2.0)
            scale = max(1.0, abs(phi_eval(spec, xi, (u1, u2))))
            pairs = [(1, 2), (0, 1), (0, 2)]
            for i, j in pairs:
                r2 = abs(epd_residual(spec, xi, (u1, u2), i, j, 1e-2))
                r3 = abs(epd_residual(spec, xi, (u1, u2), i, j, 1e-3))
                assert r3 < 0.05 * r2 + 1e-9 * scale


def test_pde_residual_decay_g1():
    f = quartic_field(-8.0)
    spec = EpdSpec(1, "phi", f)
    u = (2.2, 1.9, -1.8, -2.3)
    for i, j in ((1, 3), (0, 2)):
        r2 = abs(epd_residual(spec, 0.4, u, i, j, 1e-2))
        r3 = abs(epd_residual(spec, 0.4, u, i, j, 1e-3))
        scale = max(1.0, abs(phi_eval(spec, 0.4, u)))
        assert r3 < 0.05 * r2 + 1e-9 * scale


def test_identity_endpoint_pair():
    # Psi0(u1; u1, u2) - Psi0(u2; u1, u2) = 2 (u1 - u2) dPsi0/du2(u1; u1, u2)
    f = sextic_field(-3.0)
    spec = EpdSpec(0, "psi", f)
    u1, u2 = 1.4, -0.6
    a = phi_eval(spec, u1, (u1, u2))
    b = phi_eval(spec, u2, (u1, u2))
    _, grad = phi_eval_grad(spec, u1, (u1, u2))
    resid = a - b - 2.0 * (u1 - u2) * grad[2]
    assert abs(resid) < 1e-8 * max(1.0, abs(a))


def _phi_from_psi_residual(g, field, xi, u):
    # the higher kernel equals the xi-derivative of the lower one plus
    # half the divided differences against every endpoint
    phi = phi_eval(EpdSpec(g, "phi", field), xi, u)
    psi_spec = EpdSpec(g, "psi", field)
    val, grad = phi_eval_grad(psi_spec, xi, u)
    acc = grad[0]
    for ui in u:
        acc += 0.5 * (val - phi_eval(psi_spec, ui, u)) / (xi - ui)
    return phi - acc


def test_phi_from_psi_recurrence():
    f = sextic_field(-2.0)
    r0 = _phi_from_psi_residual(0, f, 2.2, (1.1, -0.7))
    assert abs(r0) < 1e-7 * max(1.0, abs(phi_eval(EpdSpec(0, "phi", f), 2.2, (1.1, -0.7))))
    fq = quartic_field(-6.0)
    u = (2.0, 1.7, -1.6, -2.1)
    r1 = _phi_from_psi_residual(1, fq, 2.8, u)
    assert abs(r1) < 1e-7 * max(1.0, abs(phi_eval(EpdSpec(1, "phi", fq), 2.8, u)))


def test_homogeneity():
    lam = 1.7
    for k, g in ((4, 0), (6, 0), (4, 1)):
        f = monomial(k)
        u = (1.2, 0.3, -0.5, -1.1)[: 2 * g + 2]
        for which, drop in (("phi", g + 2), ("psi", g + 1)):
            spec = EpdSpec(g, which, f)
            base = phi_eval(spec, 0.8, u)
            scaled = phi_eval(spec, lam * 0.8, tuple(lam * x for x in u))
            assert scaled == pytest.approx(lam ** (k - drop) * base, rel=1e-10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "alpha, beta", [(-0.5, -0.5), (-0.5, 0.5), (-0.5, 0.0), (0.3, -0.7), (1.5, 2.0)]
)
def test_jacobi_seeds_match_scipy(alpha, beta):
    # alpha + beta = 0 and -1 make the general k = 0 diagonal and k = 1
    # off-diagonal entries 0/0; warnings are errors, so their cancelled
    # forms must hold
    for m in range(1, 65):
        ref, _ = roots_jacobi(m, alpha, beta)
        assert np.max(np.abs(epd._jacobi_seeds(m, alpha, beta) - ref)) < 1e-14


@pytest.mark.filterwarnings("error")
def test_epd2_chebyshev_case():
    # Jacobi(-1/2, -1/2) has alpha + beta = -1, where the general k = 1
    # off-diagonal of the Jacobi matrix is 0/0; the rule's weighted mean
    # of x on the pullback s -> (1+s)/2 * 1 + (1-s)/2 * 3 is exactly 2
    x, w = epd._gauss_jacobi.__wrapped__(64, -0.5, -0.5)
    x, w = x.astype(float), w.astype(float)
    args = 0.5 * (1.0 + x) * 1.0 + 0.5 * (1.0 - x) * 3.0
    assert float(np.dot(w, args) / np.sum(w)) == pytest.approx(2.0, rel=1e-15)


def test_jacobi_rule_matches_scipy_seeded_rule(monkeypatch):
    ours = {(m, k): epd._jacobi_rule(m, k) for k in range(1, 7) for m in range(1, 65)}
    monkeypatch.setattr(epd, "_jacobi_seeds", lambda m, a, b: roots_jacobi(m, a, b)[0])
    for (m, k), (x, w) in ours.items():
        xr, wr = epd._gauss_jacobi.__wrapped__(m, -0.5, 0.5 * (k - 1))
        assert np.max(np.abs(x - xr)) < 1e-18, (m, k)
        # a one-ulp node move at 1 - x ~ 1e-3 moves a weight by ~1e-16
        assert np.max(np.abs(w - wr) / wr) < 2e-16, (m, k)


def test_gradient_matches_finite_differences():
    f = sextic_field(-2.0)
    spec = EpdSpec(0, "phi", f)
    xi, u = 1.9, (1.2, -0.4)
    _, grad = phi_eval_grad(spec, xi, u)
    h = 1e-6
    fd0 = (phi_eval(spec, xi + h, u) - phi_eval(spec, xi - h, u)) / (2 * h)
    fd1 = (phi_eval(spec, xi, (u[0] + h, u[1])) - phi_eval(spec, xi, (u[0] - h, u[1]))) / (2 * h)
    fd2 = (phi_eval(spec, xi, (u[0], u[1] + h)) - phi_eval(spec, xi, (u[0], u[1] - h))) / (2 * h)
    np.testing.assert_allclose(grad, [fd0, fd1, fd2], rtol=1e-6, atol=1e-8)


def even_sextic_field(t):
    """V = xi^6 + t*xi^2."""
    return FieldSpec(vstar=(PowerTerm("monomial", 6.0, 1.0),),
                     p_coeffs=(0.0, 0.0, 1.0), t=float(t))


def abs_field(t):
    """V = |xi|^4.5 + t*xi (non-polynomial)."""
    return FieldSpec(vstar=(PowerTerm("abs_power", 4.5, 1.0),),
                     p_coeffs=(0.0, 1.0), t=float(t))


ENDPOINTS = {0: (1.3, -0.4), 1: (2.1, 1.2, -0.5, -1.7)}
# inside a band, in the gap or beside the band, outside, and far outside
POINTS = {0: (0.2, 0.9, 2.6, -40.0), 1: (1.5, 0.3, 2.9, 40.0)}


@pytest.mark.parametrize(
    "field", [quartic_field(-3.0), even_sextic_field(-2.0), sextic_field(-2.0)]
)
@pytest.mark.parametrize("g", [0, 1])
@pytest.mark.parametrize("which", ["phi", "psi"])
def test_degree_aware_rule_matches_dense_rule(field, g, which):
    spec = EpdSpec(g, which, field)
    dense = 32 if g == 0 else 24
    assert spec.nodes() < dense
    u = ENDPOINTS[g]
    for xi in POINTS[g]:
        val, grad = phi_eval_grad(spec, xi, u)
        ref_val, ref_grad = phi_eval_grad(spec, xi, u, m=dense)
        assert abs(val - ref_val) <= 1e-13 * abs(ref_val)
        assert phi_eval(spec, xi, u) == pytest.approx(ref_val, rel=1e-13)
        assert np.max(np.abs(grad - ref_grad)) <= 1e-13 * np.max(np.abs(ref_grad))


@pytest.mark.parametrize("field", [sextic_field(-2.0), abs_field(-3.0)])
@pytest.mark.parametrize("g", [0, 1])
def test_batched_phi_eval_matches_scalar_loop(field, g):
    spec = EpdSpec(g, "phi", field)
    u = ENDPOINTS[g]
    xs = np.linspace(-3.0, 3.0, 7) + 0.05
    batch = phi_eval(spec, xs, u)
    loop = np.array([phi_eval(spec, x, u) for x in xs])
    assert batch.shape == xs.shape
    np.testing.assert_allclose(batch, loop, rtol=1e-14, atol=0.0)


def test_abs_power_kernel_keeps_default_nodes():
    field = abs_field(-3.0)
    for g, dense in ((0, 32), (1, 24)):
        for which in ("phi", "psi"):
            spec = EpdSpec(g, which, field)
            assert spec.nodes() == dense
            u = ENDPOINTS[g]
            xi = POINTS[g][2]
            assert phi_eval(spec, xi, u) == phi_eval(spec, xi, u, m=dense)


def _tensordot_contract(tensor, m0, axis_vecs):
    for vec in reversed(axis_vecs):
        tensor = np.tensordot(tensor, vec, axes=([-1], [0]))
    return m0 * tensor


# one point, several points, and the chunk shapes of the default rules:
# 324 points of 32^2 nodes at g = 0, one point of 24^4 at g = 1
@pytest.mark.parametrize("shape", [(1, 5, 5), (7, 5, 5), (1, 3, 3, 3, 3),
                                   (6, 3, 3, 3, 3), (324, 32, 32), (17, 32, 32),
                                   (1, 24, 24, 24, 24)])
@pytest.mark.parametrize("dtype", [np.float64, LONG], ids=["float64", "longdouble"])
def test_contraction_is_bitwise_tensordot(shape, dtype):
    rng = np.random.default_rng(len(shape) * 1000 + shape[0])
    tensor = rng.standard_normal(shape).astype(dtype)
    vecs = [rng.random(n).astype(dtype) for n in shape[1:]]
    m0 = dtype(0.37)
    got = epd._contract(tensor, m0, vecs)
    assert got.shape == (shape[0],)
    assert np.array_equal(got, _tensordot_contract(tensor, m0, vecs))


def _rule_vectors_fresh(g, m, dtype):
    """The rule vectors as _tensor_core built them inline on every call."""
    nvar = 2 * g + 2
    avecs, bvecs, wvecs = [], [], []
    for k in range(1, nvar + 1):
        x, w = epd._jacobi_rule(m, k)
        avecs.append((0.5 * (1.0 + x)).astype(dtype))
        bvecs.append((0.5 * (1.0 - x)).astype(dtype))
        wvecs.append(w.astype(dtype))
    m0 = dtype(epd._normalization(g, m))
    grad_vecs = [[w * a for w, a in zip(wvecs, avecs)]]
    for j in range(1, nvar + 1):
        vecs = []
        for k in range(nvar):
            if k + 1 < j:
                vecs.append(wvecs[k])
            elif k + 1 == j:
                vecs.append(wvecs[k] * bvecs[k])
            else:
                vecs.append(wvecs[k] * avecs[k])
        grad_vecs.append(vecs)
    return avecs, bvecs, wvecs, m0, grad_vecs


@pytest.mark.parametrize("g, m", [(0, 1), (0, 3), (0, 32), (1, 2), (1, 24)])
@pytest.mark.parametrize("dtype", [np.float64, LONG], ids=["float64", "longdouble"])
def test_cached_rule_vectors_are_bitwise_fresh(g, m, dtype):
    """The per-(g, m, dtype) cache changes no bit of the rule vectors, on
    the call that fills it and on the call that reuses it, and hands out
    arrays no caller can write to."""
    epd._rule_vectors.cache_clear()
    fresh = _rule_vectors_fresh(g, m, dtype)
    for _ in range(2):
        avecs, bvecs, wvecs, m0, grad_vecs = epd._rule_vectors(g, m, dtype)
        assert m0 == fresh[3] and type(m0) is dtype
        for got, want in zip((avecs, bvecs, wvecs, *grad_vecs),
                             (*fresh[:3], *fresh[4])):
            assert len(got) == len(want) == 2 * g + 2
            for a, b in zip(got, want):
                assert a.dtype == dtype and np.array_equal(a, b)
                assert not a.flags.writeable
    assert epd._rule_vectors.cache_info().hits == 1
    assert len(grad_vecs) == 2 * g + 3
