"""Field construction, evaluation, JSON round-trip, growth validation."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqm.errors import DomainError, ParseError
from eqm.field import (
    FieldSpec,
    LocalField,
    PowerTerm,
    field_from_json,
    field_to_json,
    polynomial_field,
    potential_difference,
    validate_growth,
)

from conftest import (abs_power_field, mp_exact, quartic_field, semicircle_field,
                      sextic_field)
from test_wells import _polynomial_fields


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


def _mpmath_difference(field, x, ref):
    """V(x) - V(ref) of a polynomial field at 50 digits, with the bound
    on potential_difference's error that
    ``test_potential_difference_against_mpmath`` derives."""
    terms = field.terms()
    k_max = max(int(a) for _, a, _ in terms)
    eps = mpmath.mpf(float(np.finfo(np.longdouble).eps))
    with mpmath.workdps(50):
        x, r = mpmath.mpf(x), mpmath.mpf(ref)
        exact = sum(mpmath.mpf(c) * (x ** int(a) - r ** int(a)) for _, a, c in terms)
        reach = max(abs(x), abs(r))
        size = sum(abs(mpmath.mpf(c)) * reach ** int(a) for _, a, c in terms)
        bound = (k_max + len(terms)) * eps * size
        return exact, bound + float(np.spacing(abs(float(exact))))


def test_potential_difference_cancellation():
    """xi^4 - 1e6 xi^2 at two points 1e-6 apart near its well, where
    V(xi) - V(ref) = -1.2538e-6 is 5e-18 of |V| (2.5e11): within
    the derived bound of the 50-digit value (3.3e-9 off, against a bound
    of 4.9e-7), and no further from it than direct float64 evaluation
    (6.0e-5 off)."""
    f = quartic_field(-1e6)
    xi = 707.106781
    ref = 707.106782
    direct = f.eval(xi, 0) - f.eval(ref, 0)
    careful = potential_difference(f, xi, ref)
    exact, bound = _mpmath_difference(f, xi, ref)
    assert abs(mpmath.mpf(careful) - exact) <= bound
    assert abs(mpmath.mpf(careful) - exact) <= abs(mpmath.mpf(direct) - exact)


@st.composite
def _points(draw):
    """A reference point and points at relative distances 1 down to
    1e-12 from it, where V(xi) - V(ref) cancels most digits."""
    ref = draw(st.floats(-1e3, 1e3))
    steps = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.integers(0, 12)),
                          min_size=1, max_size=8))
    return ref, np.array([ref * (1.0 + f * 10.0 ** -e) for f, e in steps])


@settings(max_examples=150, derandomize=True, database=None, deadline=2000)
@given(field=_polynomial_fields(top=8), points=_points())
@example(field=quartic_field(-1e6), points=(707.106782, np.array([707.106781])))
def test_potential_difference_against_mpmath(field, points):
    """V(xi) - V(ref) on polynomial fields of degree <= 8 with t up to
    1e8, against mpmath at 50 digits.  A term c*(xi^k - ref^k) rounds at
    most k - 1 times in each power, once in the difference and once in
    the product, each by half a long-double ulp (eps/2) of a number of
    size at most 2|c| M^k, M = max(|xi|, |ref|): k + 1 eps of |c| M^k.
    Summing m terms rounds m - 1 more times, each by eps/2 of a partial
    sum of size at most 2S, S = sum |c| M^k: m - 1 eps of S.  So the
    long-double sum is within (k_max + m) eps * S, and the result also
    rounds once to float."""
    ref, xs = points
    got = potential_difference(field, xs, ref)
    for x, value in zip(xs, got):
        exact, bound = _mpmath_difference(field, x, ref)
        assert abs(mpmath.mpf(value) - exact) <= bound, (float(x), ref)


@st.composite
def _even_fields(draw):
    """xi^k or |xi|^a plus an optional even monomial, with an even monic
    tilt p and t = +-10^(-1..8)."""
    if draw(st.booleans()):
        top = PowerTerm("monomial", draw(st.sampled_from([2, 4, 6, 8])), 1.0)
    else:
        top = PowerTerm("abs_power", draw(st.sampled_from([3.5, 4.5, 6.25])), 1.0)
    vstar = [top]
    if draw(st.booleans()):
        vstar.append(PowerTerm("monomial", draw(st.sampled_from([0, 2, 4])),
                               draw(st.sampled_from([-3.0, 0.5]))))
    n = draw(st.sampled_from([2, 4, 6]))
    p = [0.0] * (n + 1)
    p[n] = 1.0
    for j in range(n - 2, 0, -2):
        p[j] = draw(st.sampled_from([0.0, -2.0, 1.0]))
    t = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.integers(-1, 8))
    return FieldSpec(tuple(vstar), tuple(p), t)


@settings(max_examples=150, derandomize=True, database=None, deadline=2000)
@given(field=_even_fields(), points=_points())
def test_potential_difference_is_exactly_even(field, points):
    """For an even field, V(-xi) - V(ref) equals V(xi) - V(ref) bit for
    bit, so a mirror band's differences are the right band's."""
    assert field.is_even
    ref, xs = points
    got = potential_difference(field, xs, ref)
    assert np.array_equal(potential_difference(field, -xs, ref), got)
    assert potential_difference(field, -xs[0], ref) == got[0]


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


def _mp_deriv(term, x, order):
    """order-th derivative of one (kind, exponent, coefficient) term at
    the mpmath point x."""
    kind, a, c = term
    falling = mpmath.ff(mpmath.mpf(a), order) * mpmath.mpf(c)
    if kind == "monomial" and order > a:
        return mpmath.mpf(0)
    if kind == "monomial":
        return falling * x ** int(a - order)
    val = falling * abs(x) ** (mpmath.mpf(a) - order)
    return val * mpmath.sign(x) if order % 2 else val


def _scale(field, reach, order):
    """sum |term^(order)| with every |xi| replaced by reach: the size of
    the numbers the evaluation at |xi| <= reach adds up."""
    return sum(abs(_mp_deriv(term, reach, order)) for term in field.terms())


@pytest.mark.parametrize("field", [
    abs_power_field(3.5, 2, -10.0),
    abs_power_field(3.5, 1, 10.0),
    abs_power_field(4.5, 2, 3.0),
    abs_power_field(4.5, 1, -30.0),
], ids=["abs3.5-x2", "abs3.5-x1", "abs4.5-x2", "abs4.5-x1"])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble], ids=["float", "long"])
def test_local_field_abs_power_against_mpmath(field, dtype):
    """LocalField.deriv of |xi|^a fields against mpmath at 30 digits, on
    centers from 0 to 1e4, offsets from 1e-12 to ones that cross 0, and
    every order at which |xi|^a is differentiable on the whole line.
    The error stays within a few longdouble ulps of the summed term
    magnitudes, plus one ulp of the result when rounded to float."""
    a = field.vstar[0].exponent
    eps = mpmath.mpf(float(np.finfo(np.longdouble).eps))
    with mpmath.workdps(30):
        for center in (0.0, 1e-3, -1e-3, 1.0, -1.0, 1e4, -1e4):
            lf = LocalField(field, center)
            size = max(1.0, abs(center))
            steps = np.array([1e-12, 1e-6, 1e-3, 0.1, 0.7]) * size
            across = np.array([-4.0, -5.0, -7.0]) * center  # to -c/3, -2c/3, -4c/3
            offsets = np.concatenate([steps, -steps, across])
            offsets = offsets.astype(dtype) / dtype(3.0)  # not exactly representable
            for order in range(int(math.ceil(a))):
                got = lf.deriv(offsets, order, dtype=dtype)
                assert got.dtype == dtype
                for delta, value in zip(offsets, got):
                    x = mp_exact(lf.center_long) + mp_exact(delta)
                    exact = sum(_mp_deriv(term, x, order) for term in field.terms())
                    reach = abs(mp_exact(lf.center_long)) + abs(mp_exact(delta))
                    bound = 8 * eps * _scale(field, reach, order)
                    if dtype is np.float64:
                        bound += float(np.spacing(abs(float(exact))))
                    assert abs(mp_exact(value) - exact) <= bound, (center, delta, order)
