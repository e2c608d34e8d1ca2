"""Field construction, evaluation, JSON round-trip, growth validation."""

import json
import math

import numpy as np
import pytest

from eqm.errors import DomainError, ParseError
from eqm.field import (
    FieldSpec,
    PowerTerm,
    field_from_json,
    field_to_json,
    polynomial_field,
    potential_difference,
    validate_growth,
)

from conftest import quartic_field, semicircle_field, sextic_field


def test_monomial_derivatives():
    f = quartic_field(-10.0)
    xs = np.linspace(-2.0, 2.0, 11)
    np.testing.assert_allclose(f.eval(xs, 0), -10.0 * xs**2 + xs**4, rtol=1e-14)
    np.testing.assert_allclose(f.eval(xs, 1), -20.0 * xs + 4.0 * xs**3, rtol=1e-14)
    np.testing.assert_allclose(f.eval(xs, 2), -20.0 + 12.0 * xs**2, rtol=1e-14)


def test_abs_power_derivative():
    f = FieldSpec(vstar=(PowerTerm("abs_power", 4.5, 2.0),), p_coeffs=(0.0, 1.0), t=0.0)
    assert f.eval(-1.0, 1) == pytest.approx(-9.0, abs=1e-12)
    assert f.eval(1.0, 1) == pytest.approx(9.0, abs=1e-12)


def test_monic_tilt_enforced():
    with pytest.raises(ValueError):
        FieldSpec(vstar=(), p_coeffs=(0.0, 2.0), t=1.0)


def test_evenness():
    assert semicircle_field(1.0).is_even
    assert quartic_field(-10.0).is_even
    assert not sextic_field(-100.0).is_even
    assert sextic_field(0.0).is_even


def test_terms_fold_tilt():
    f = quartic_field(-3.0)
    terms = sorted(f.terms(), key=lambda kac: kac[1])
    assert terms == [("monomial", 2.0, -3.0), ("monomial", 4.0, 1.0)]


def test_polynomial_field_descending():
    f = polynomial_field([1.0, 0.0, -10.0, 0.0, 0.0])
    xs = np.linspace(-2.0, 2.0, 7)
    np.testing.assert_allclose(f.eval(xs, 0), xs**4 - 10.0 * xs**2, rtol=1e-14)


def test_json_roundtrip():
    f = sextic_field(-1e4)
    g = field_from_json(json.loads(json.dumps(field_to_json(f))))
    assert g == f


def test_json_parse_errors():
    with pytest.raises(ParseError):
        field_from_json({"p": {"coeffs": [0.0, 1.0]}})
    with pytest.raises(ParseError):
        field_from_json({"vstar": [{"kind": "mystery", "k": 2, "c": 1}],
                         "p": {"coeffs": [0.0, 1.0]}, "t": 0.0})


def test_eval_rejects_order_out_of_range():
    f = quartic_field(2.0)
    with pytest.raises(DomainError):
        f.eval(1.0, order=99)


def test_potential_difference_cancellation():
    f = quartic_field(-1e6)
    xi = 707.106781
    ref = 707.106782
    direct = f.eval(xi, 0) - f.eval(ref, 0)
    careful = potential_difference(f, xi, ref)
    exact = float(
        (np.longdouble(xi) ** 4 - np.longdouble(ref) ** 4)
        - np.longdouble(1e6) * (np.longdouble(xi) ** 2 - np.longdouble(ref) ** 2)
    )
    assert careful == pytest.approx(exact, rel=1e-10)
    assert abs(careful - exact) <= abs(direct - exact)


def test_validate_growth():
    ok, _ = validate_growth(quartic_field(-10.0))
    assert ok
    weak = FieldSpec(vstar=(PowerTerm("monomial", 4.0, -1.0),), p_coeffs=(0.0, 1.0), t=0.0)
    ok, detail = validate_growth(weak)
    assert not ok
    assert detail


def test_max_degree():
    assert quartic_field(-10.0).max_degree == 4.0
    assert semicircle_field(1.0).max_degree == 2.0
    assert sextic_field(0.0).max_degree == 6.0
