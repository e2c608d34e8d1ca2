"""Wells of polynomial fields from the roots of V', against a dense scan.

The reference is the grid search the root finder replaced: the argmin
of V on 100001 points over ``search_radius``, the right half line only
for an even field, polished by the same ``refine_minimizer``.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqm import wells as wells_module
from eqm.cli import main
from eqm.errors import NoConvergence
from eqm.field import LONG, FieldSpec, PowerTerm
from eqm.wells import global_minimizer, refine_minimizer, search_radius, wells

from conftest import quartic_field

_DENSE_N = 100001


def _dense_minimizer(field):
    """Refined argmin of V on a dense grid of [-L, L], or [0, L] with 0
    exactly on it for an even field."""
    L = search_radius(field)
    xs = np.linspace(0.0 if field.is_even else -L, L, _DENSE_N)
    return refine_minimizer(field, float(xs[int(np.argmin(field.eval(xs, 0)))]))


@st.composite
def _polynomial_fields(draw):
    """xi^k + c xi^j + t p, k <= 8 even, j < k, p monic of degree n < k
    with only even or only odd powers, t = +-10^(-1..6)."""
    k = draw(st.sampled_from([2, 4, 6, 8]))
    vstar = [PowerTerm("monomial", k, 1.0)]
    if k > 2 and draw(st.booleans()):
        vstar.append(PowerTerm("monomial", draw(st.integers(1, k - 1)),
                               draw(st.sampled_from([-3.0, -0.5, 0.5, 3.0]))))
    n = draw(st.integers(1, k - 1))
    p = [0.0] * (n + 1)
    p[n] = 1.0
    for j in range(n - 2, 0, -2):
        p[j] = draw(st.sampled_from([0.0, -2.0, 1.0]))
    t = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.integers(-1, 6))
    return FieldSpec(tuple(vstar), tuple(p), t)


@settings(max_examples=120, derandomize=True, database=None, deadline=2000)
@given(_polynomial_fields())
@example(quartic_field(1e3))
@example(quartic_field(-10.0))
@example(FieldSpec((PowerTerm("monomial", 8, 1.0),), (0.0, 0.0, 0.0, 0.0, 1.0), 10.0))
def test_roots_match_dense_scan(field):
    """The global minimizer matches the dense scan to 1e-17 relative
    with the same sign of V''; an even field's minimizer at 0 is exactly
    0.0, so the auto attempt order reads it right; positive=True never
    returns x <= 0."""
    x, vpp = global_minimizer(field)
    want, want_vpp = _dense_minimizer(field)
    assert abs(x - want) <= LONG(1e-17) * abs(want), (field, x, want)
    assert np.sign(vpp) == np.sign(want_vpp), (field, vpp, want_vpp)
    if field.is_even and want == 0.0:
        assert x == 0.0 and wells(field)[0] == 0.0
    try:
        xp, _ = global_minimizer(field, positive=True)
    except NoConvergence:
        return
    assert xp > 0.0


@pytest.mark.parametrize("field, want", [
    (FieldSpec((PowerTerm("monomial", 6, 1.0),), (0.0, 0.0, 0.0, 1.0), 1e4),
     [-(5000.0) ** (1.0 / 3.0)]),
    (FieldSpec((PowerTerm("monomial", 4, 1.0),), (0.0, 1.0), 0.0), [0.0]),
    (FieldSpec((PowerTerm("monomial", 8, 1.0),), (0.0, 0.0, 1.0, 0.0, -2.0, 0.0, 1.0),
               100.0), [0.0, 0.99024088583806, -0.99024088583806]),
], ids=["sextic-inflection-at-0", "quartic-degenerate-at-0", "octic-three-wells"])
def test_wells_are_the_sign_changes_of_dv(field, want):
    """xi^6 + 1e4 xi^3 has an inflection at 0, not a well; xi^4 has a
    degenerate well at 0; xi^8 + 100 xi^2 (xi^2 - 1)^2 has its global
    well at 0 and two more at +-0.99."""
    np.testing.assert_allclose(np.array(wells(field), dtype=float), want, rtol=1e-13)


def test_positive_grid_argmin_at_its_first_point_raises():
    """|xi|^4.5 + 10 xi^2 rises from 0: no positive well."""
    field = FieldSpec((PowerTerm("abs_power", 4.5, 1.0),), (0.0, 0.0, 1.0), 10.0)
    with pytest.raises(NoConvergence, match="no positive well"):
        global_minimizer(field, positive=True)


def test_abs_power_grid_keeps_every_local_minimum():
    """|xi|^4.5 + 0.01 xi - 3 xi^2 has wells near +-1.6, both listed,
    the deeper one (on the side the tilt lowers) first."""
    field = FieldSpec((PowerTerm("abs_power", 4.5, 1.0), PowerTerm("monomial", 2, -3.0)),
                      (0.0, 1.0), 0.01)
    got = [float(x) for x in wells(field)]
    assert len(got) == 2 and got[0] < 0.0 < got[1]
    for x in got:
        assert abs(float(field.eval(x, 1))) <= 1e-12


def _problem(tmp_path, vstar, coeffs, t):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({
        "field": {"vstar": [{"kind": "monomial", "k": k, "c": 1.0} for k in vstar],
                  "p": {"coeffs": coeffs}, "t": t},
        "ansatz": "auto"}))
    return str(path)


def test_polynomial_solve_and_sweep_scan_no_grid(tmp_path, capsys, monkeypatch):
    """No polynomial solve or sweep reads search_radius or evaluates V
    on more than a handful of points."""
    def no_radius(field):
        raise AssertionError("search_radius called for a polynomial field")

    sizes = []
    evaluate = FieldSpec.eval

    def spy(self, xi, order=0, dtype=np.float64):
        if order == 0:
            sizes.append(np.size(xi))
        return evaluate(self, xi, order, dtype)

    wells_module._scan.cache_clear()
    monkeypatch.setattr(wells_module, "search_radius", no_radius)
    monkeypatch.setattr(FieldSpec, "eval", spy)
    for vstar, coeffs, t in (([4], [0.0, 0.0, 1.0], -10.0), ([6], [0.0, 0.0, 0.0, 1.0], -1e4),
                             ([8], [0.0, 0.0, 1.0, 0.0, -2.0, 0.0, 1.0], 100.0)):
        main(["solve", "--problem", _problem(tmp_path, vstar, coeffs, t)])
    assert main(["sweep", "--problem", _problem(tmp_path, [4], [0.0, 0.0, 1.0], -10.0),
                 "--t-from=-1e3", "--t-to=1e3", "--steps", "5"]) == 0
    capsys.readouterr()
    assert sizes and max(sizes) <= 4
