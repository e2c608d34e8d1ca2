"""Large-tilt predictions: constants, exponents, regimes, studies."""

import math
import os
import subprocess
import sys

import pytest

from eqm import asymptotics
from eqm.errors import UnsupportedRegime
from eqm.field import FieldSpec, PowerTerm

from conftest import quartic_field, semicircle_field, sextic_field


def test_sextic_negative_constant():
    pred = asymptotics.predict(sextic_field(0.0), -1)
    assert pred.scaling_exponent == pytest.approx(1.0 / 3.0)
    assert pred.limit_constant == pytest.approx(0.5 ** (1.0 / 3.0), rel=1e-12)
    # negative cubic tilt pushes the well to the positive side
    assert pred.well_location > 0.0


def test_quartic_negative_constant():
    pred = asymptotics.predict(quartic_field(0.0), -1)
    assert pred.scaling_exponent == pytest.approx(0.5)
    assert pred.limit_constant == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


def test_positive_convex_constant():
    pred = asymptotics.predict(semicircle_field(0.0), +1)
    assert pred.scaling_exponent == pytest.approx(-0.5)
    assert pred.limit_constant == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)


def test_odd_positive_mirror():
    neg = asymptotics.predict(sextic_field(0.0), -1)
    pos = asymptotics.predict(sextic_field(0.0), +1)
    assert pos.limit_constant == pytest.approx(neg.limit_constant, rel=1e-12)
    assert pos.well_location == pytest.approx(-neg.well_location, rel=1e-6)


def test_subdominant_terms_do_not_change_constant():
    base = sextic_field(0.0)
    bumped = FieldSpec(
        vstar=(PowerTerm("monomial", 6.0, 1.0), PowerTerm("monomial", 2.0, 1.0)),
        p_coeffs=(0.0, 0.0, 0.0, 1.0),
        t=0.0,
    )
    a = asymptotics.predict(base, -1)
    b = asymptotics.predict(bumped, -1)
    assert b.limit_constant == pytest.approx(a.limit_constant, rel=1e-12)
    assert b.scaling_exponent == pytest.approx(a.scaling_exponent)


def test_nonconvex_positive_unsupported():
    field = FieldSpec(
        vstar=(PowerTerm("monomial", 8.0, 1.0),),
        p_coeffs=(0.0, 0.0, -3.0, 0.0, 1.0),
        t=0.0,
    )
    with pytest.raises(UnsupportedRegime):
        asymptotics.predict(field, +1)


def _sextic_tilted(p_coeffs):
    return FieldSpec(vstar=(PowerTerm("monomial", 6.0, 1.0),),
                     p_coeffs=tuple(p_coeffs), t=0.0)


def test_convexity_is_decided_between_samples():
    # p'' = 12 (xi - 0.0025)^2 - 1e-6 is negative only within 3e-4 of
    # 0.0025, which a 401-point sample grid over [-1, 1] steps over
    with pytest.raises(UnsupportedRegime):
        asymptotics.predict(_sextic_tilted([0.0, 0.0, 3.7e-5, -0.01, 1.0]), +1)


@pytest.mark.parametrize("p_coeffs", [
    (0.0, 0.0, 1.0),
    (0.0, 0.0, 0.0, 0.0, 1.0),  # p'' = 12 xi^2, minimum exactly 0
    (1.0, -4.0, 6.0, -4.0, 1.0),  # (xi - 1)^4 expanded
], ids=["xi^2", "xi^4", "(xi-1)^4"])
def test_convex_tilts_predict_the_shrinking_regime(p_coeffs):
    pred = asymptotics.predict(_sextic_tilted(p_coeffs), +1)
    assert pred.regime == "even-n-pos-t-convex"


def test_dominated_field_unsupported():
    # fixed part must dominate the tilt degree
    field = FieldSpec(
        vstar=(PowerTerm("monomial", 2.0, 1.0),),
        p_coeffs=(0.0, 0.0, 0.0, 1.0),
        t=0.0,
    )
    with pytest.raises(UnsupportedRegime):
        asymptotics.predict(field, -1)


def test_prediction_dict():
    pred = asymptotics.predict(quartic_field(0.0), -1)
    d = pred.as_dict()
    assert d["regime"] == pred.regime
    assert d["scaling_exponent"] == pred.scaling_exponent
    assert d["limit_constant"] == pred.limit_constant


def test_scaling_study_sextic():
    study = asymptotics.scaling_study(sextic_field(0.0), -1, 3)
    devs = [row["deviation"] for row in study.rows]
    assert all(row.get("error") is None for row in study.rows)
    assert devs == sorted(devs, reverse=True)
    assert all(row["gaps"] == 0 for row in study.rows)
    assert all(row["well_inside"] for row in study.rows)
    assert [row["t"] for row in study.rows] == [-10.0, -100.0, -1000.0]


def test_scaling_study_quartic_two_bands():
    # xi^4 + t xi^2 as t -> -inf: two mirror bands whose scaled
    # endpoints approach 1/sqrt(2) from 2.9e-2 at t = -10 to 2.8e-4
    study = asymptotics.scaling_study(quartic_field(0.0), -1, 3)
    assert study.prediction.regime == "even-n-neg-t"
    assert all(row["error"] is None for row in study.rows)
    assert all(row["gaps"] == 1 for row in study.rows)
    assert all(row["well_inside"] for row in study.rows)
    devs = [row["deviation"] for row in study.rows]
    assert devs == sorted(devs, reverse=True)
    assert 2e-2 < devs[0] < 4e-2 and devs[-1] < 4e-4


def test_scaling_study_validates_decades():
    with pytest.raises(ValueError):
        asymptotics.scaling_study(sextic_field(0.0), -1, 2)
