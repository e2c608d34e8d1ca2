"""Endpoint vectors and the Q polynomial."""

import math

import pytest

from eqm.rhp import EndpointVector, QPolynomial, q_polynomial

from conftest import quartic_field, semicircle_field


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
    q = q_polynomial(EndpointVector.pair(r, -r), field)
    assert q.max_abs_coefficient < 1e-10


def test_q_detects_wrong_endpoints():
    field = semicircle_field(1.0)
    r = 1.01 / math.sqrt(math.pi)
    q = q_polynomial(EndpointVector.pair(r, -r), field)
    assert q.max_abs_coefficient > 1e-3


def test_q_vanishes_at_quartic_solution():
    field = quartic_field(-10.0)
    u1 = math.sqrt((10.0 + math.sqrt(2.0 / math.pi)) / 2.0)
    u2 = math.sqrt((10.0 - math.sqrt(2.0 / math.pi)) / 2.0)
    q = q_polynomial(EndpointVector.symmetric(u1, u2), field)
    assert q.max_abs_coefficient < 1e-8
