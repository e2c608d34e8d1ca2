"""The analytic Newton Jacobians of both ansaetze (mirror flag off and
on) against central differences of their own residual pairs (the only
place a finite difference of the endpoint residuals is taken), their
band-moment mass conditions against the tensor rule's slope form of the
same condition, and the one band rule each pair and Jacobian takes."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqm import anchored, epd, onecut, quadrature, twocut
from eqm.epd import EpdSpec
from eqm.errors import EqmError
from eqm.field import LONG, FieldSpec, LocalField, PowerTerm

from conftest import quartic_field, sextic_field

_REL = 1e-6


def _central_differences(pair, dm, half):
    """Columns d/d dm and d/d half of the residual pair, with a step of
    1e-5 band half widths."""
    h = 1e-5 * half
    cols = []
    for e in ((h, 0.0), (0.0, h)):
        plus = np.array(pair(dm + e[0], half + e[1]))
        minus = np.array(pair(dm - e[0], half - e[1]))
        cols.append((plus - minus) / (2.0 * h))
    return np.array(cols).T


def _ansaetze(field):
    """(mirror flag, solver) of each ansatz the field admits."""
    out = [(False, onecut.solve_endpoints)]
    if field.is_even:
        out.append((True, twocut.solve_endpoints_symmetric))
    return out


def _check_jacobians(field):
    """At each converged solution, and at a point off it, every row of
    the analytic Jacobian is within 1e-6 of its central differences'
    size.  Returns the number of points compared."""
    compared = 0
    for mirror, solve in _ansaetze(field):
        try:
            sol = solve(field)
        except EqmError:
            continue
        if not sol.converged:
            continue
        lf, dm0 = anchored._prepare(field, sol.anchor, 0.0)
        pair, jacobian = anchored._residual(lf, mirror)
        for dm, half in ((sol.dm, sol.half), (sol.dm + 0.05 * sol.half, 0.9 * sol.half)):
            try:
                want = _central_differences(pair, dm, half)
            except EqmError:  # a stencil point off the domain
                continue
            got = np.array(jacobian(dm, half), dtype=float)
            for row_got, row_want in zip(got, want):
                err = np.max(np.abs(row_got - row_want))
                assert err <= _REL * np.max(np.abs(row_want)), (field, dm, half)
            compared += 1
    return compared


@st.composite
def _confining_fields(draw):
    """xi^k + t xi^n, k = 4, 6 or 8 and 1 <= n < k, t = +-10^(-1..5)."""
    k = draw(st.sampled_from([4, 6, 8]))
    n = draw(st.integers(1, k - 1))
    t = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-1.0, 5.0))
    return FieldSpec((PowerTerm("monomial", k, 1.0),), (0.0,) * n + (1.0,), t)


@settings(max_examples=30, derandomize=True, database=None, deadline=5000)
@given(_confining_fields())
@example(quartic_field(-1e5))
@example(quartic_field(1.0))
@example(sextic_field(-1e4))
def test_analytic_jacobian_matches_central_differences(field):
    _check_jacobians(field)


def _abs_field(t, p):
    return FieldSpec((PowerTerm("abs_power", 4.5, 1.0),), p, float(t))


@pytest.mark.parametrize("field", [
    _abs_field(30.0, (0.0, 0.0, 1.0)),
    _abs_field(-3.0, (0.0, 0.0, 1.0)),
    _abs_field(-30.0, (0.0, 0.0, 1.0)),
    _abs_field(-30.0, (0.0, 1.0)),
    _abs_field(300.0, (0.0, 1.0)),
], ids=["x2-t30", "x2-t-3", "x2-t-30", "x1-t-30", "x1-t300"])
def test_analytic_jacobian_matches_central_differences_abs_power(field):
    assert _check_jacobians(field) >= 2


def _tensor_slope_residual(mirror, field, lf, dm, half):
    """f1 + 1/sqrt(pi) in the slope form the band moment replaced: 2 half
    sqrt(dPsi0/du2) at xi = u1 for one band, and 2 half sqrt(2 (u1 + u2))
    sqrt(dPsi1/du2) at xi = u1 on (u1, u2, -u2, -u1) for the mirror pair,
    the slope read off the tensor rule's gradient."""
    d1, d2 = dm + half, dm - half
    if not mirror:
        spec = EpdSpec(0, "psi", field)
        grad = epd._tensor_core(lf, 0, spec.order, [d1], [d1, d2], spec.nodes(),
                                want_grad=True)[1][0]
        return 2.0 * half * np.sqrt(grad[2])
    u1, u2 = anchored.endpoints_long(lf.center_long, dm, half)
    spec = EpdSpec(1, "psi", field)
    uvec = np.array([u1, u2, -u2, -u1], dtype=LONG)
    grad = epd._tensor_eval(field, 1, spec.order, u1, uvec, spec.nodes(),
                            want_grad=True)[1][0]
    return 2.0 * half * np.sqrt(2.0 * float(u1 + u2)) * np.sqrt(grad[2])


@settings(max_examples=30, derandomize=True, database=None, deadline=5000)
@given(_confining_fields())
@example(quartic_field(-1e5))
@example(quartic_field(1.0))
@example(sextic_field(-1e4))
def test_band_moment_is_the_tensor_slope(field):
    """The mass condition's band moment, sqrt(moment / pi) for one band
    and sqrt(2 moment / pi) for the mirror pair, equals the tensor
    rule's slope form of the same condition to 1e-12, at each converged
    solution and at a point off it."""
    for mirror, solve in _ansaetze(field):
        try:
            sol = solve(field)
        except EqmError:
            continue
        if not sol.converged:
            continue
        lf, _ = anchored._prepare(field, sol.anchor, 0.0)
        pair, _ = anchored._residual(lf, mirror)
        for dm, half in ((sol.dm, sol.half), (sol.dm + 0.05 * sol.half, 0.9 * sol.half)):
            try:
                got = pair(dm, half)[0] + anchored.INV_SQRT_PI
            except EqmError:
                continue
            want = _tensor_slope_residual(mirror, field, lf, dm, half)
            assert got == pytest.approx(want, rel=1e-12), (field, dm, half)


@pytest.mark.parametrize("mirror, field", [
    (False, sextic_field(-10.0)),
    (True, quartic_field(-1000.0)),
], ids=["one-band", "mirror"])
def test_residual_and_jacobian_take_one_band_rule_each(monkeypatch, mirror, field):
    """The residual pair is one band rule over two integrands (V' and
    the mass moment, (mu - mid) V' for one band and q V' for the mirror
    pair, both over sqrt((u1+mu)(mu+u2)) there), and the 2x2 Jacobian
    one more over six (the two integrands again and their four
    partials).  V' and its derivatives are only ever taken at the
    rule's nodes: no tensor rule runs."""
    solve = twocut.solve_endpoints_symmetric if mirror else onecut.solve_endpoints
    sol = solve(field)
    lf, dm = anchored._prepare(field, sol.anchor, sol.dm)
    pair, jacobian = anchored._residual(lf, mirror)
    counts, shapes = [], set()
    band_integral, deriv = quadrature.band_integral, LocalField.deriv

    def spy_rule(f, u1, u2, count=None):
        counts.append(count)
        return band_integral(f, u1, u2, count=count)

    def spy_deriv(self, delta, order, dtype=np.float64):
        shapes.add(np.ndim(delta))
        return deriv(self, delta, order, dtype=dtype)

    monkeypatch.setattr(quadrature, "band_integral", spy_rule)
    monkeypatch.setattr(LocalField, "deriv", spy_deriv)
    pair(dm, sol.half)
    assert counts == [2]
    jacobian(dm, sol.half)
    assert counts == [2, 6]
    assert shapes == {1}
