"""Wells of polynomial fields from the roots of V', against a dense scan.

The reference is the grid search the root finder replaced: the argmin
of V on 100001 points over ``search_radius``, the right half line only
for an even field, polished by the same ``refine_minimizer``.  Fields
whose V' has a multiple or near-double root off 0 are checked against
the steps of a dense long-double scan over which V' turns from - to +.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from eqm import cli
from eqm import wells as wells_module
from eqm.cli import main
from eqm.errors import EqmError, NoConvergence
from eqm.field import LONG, FieldSpec, PowerTerm, polynomial_field
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
def _polynomial_fields(draw, top=6):
    """xi^k + c xi^j + t p, k <= 8 even, j < k, p monic of degree n < k
    with only even or only odd powers, t = +-10^(-1..top)."""
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
    t = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.integers(-1, top))
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


@settings(max_examples=15, derandomize=True, database=None, deadline=2000)
@given(_polynomial_fields(top=4))
@example(quartic_field(-10.0))
@example(FieldSpec((PowerTerm("monomial", 6, 1.0), PowerTerm("monomial", 2, 0.5)),
                   (0.0, 0.0, 0.0, 0.0, 1.0), -3.0))
def test_every_certified_band_holds_a_well(field):
    """The paper's potential-well property: each component of a
    certified support contains a local minimizer of V."""
    try:
        _, _, tab, _, accepted = cli._construct(field, "auto", 1e-10, 100, cli._SWEEP_GRID,
                                                cli._SWEEP_PROBES)
    except EqmError:
        return
    if accepted:
        for band in tab.bands:
            assert any(band.lo <= w <= band.hi for w in wells(field)), (field, band)


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


def test_abs_power_field_rising_from_0_has_no_positive_well():
    """|xi|^4.5 + 10 xi^2 rises from 0: its one well is 0, and the
    two-band anchor asks in vain for one on x > 0."""
    field = FieldSpec((PowerTerm("abs_power", 4.5, 1.0),), (0.0, 0.0, 1.0), 10.0)
    assert wells(field) == (0.0,)
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


def _turns(field, window=None):
    """Reference wells from a dense long-double scan: the grid steps
    (a, b] over which V' turns from - to +, on 100001 points of
    [-L, L] and, if window = (c, h) is given, 20001 more on [c-h, c+h]."""
    L = search_radius(field)
    xs = np.linspace(-LONG(L), LONG(L), _DENSE_N)
    if window is not None:
        c, h = window
        xs = np.sort(np.concatenate([xs, np.linspace(LONG(c - h), LONG(c + h), 20001)]))
    dv = field.eval(xs, 1, dtype=LONG)
    i = np.flatnonzero((dv[:-1] < 0.0) & (dv[1:] >= 0.0)) + 1
    return list(zip(xs[i - 1], xs[i]))


def _assert_wells_match_turns(field, mult, window=None):
    """One well in each step of _turns, widened by (1e-18)^(1/mult):
    long double resolves a root of V' of multiplicity mult no closer."""
    got, ref = sorted(wells(field)), _turns(field, window)
    slack = LONG(1e-18) ** (LONG(1) / mult)
    assert len(got) == len(ref), ([float(x) for x in got], ref)
    for x, (a, b) in zip(got, ref):
        assert a - slack <= x <= b + slack, (float(x), float(a), float(b))


@pytest.mark.parametrize("coeffs_desc", [
    [1.0, -4.0, 6.0, -4.0, 1.0],
    [1.0, 0.0, -4.0, 0.0, 6.0, 0.0, -4.0, 0.0, 1.0],
], ids=["(xi-1)^4", "(xi^2-1)^4"])
def test_triple_root_of_dv_off_0_is_a_well(coeffs_desc):
    """V' has a triple root at 1 (and at -1 for the even field), where
    V'' = 0 and Newton polishes only linearly: the table still lists
    one well there, within long double's reach of the dense scan."""
    _assert_wells_match_turns(polynomial_field(coeffs_desc), 3)


@pytest.mark.parametrize("c, eps", [
    (3.0, 1e-4), (3.0, 1e-6), (3.0, 1e-7), (3.0, 3e-8),
    (-2.0, 1e-4), (-2.0, 1e-6), (-2.0, 1e-7), (-2.0, 3e-8),
])
def test_near_double_root_pair_of_dv(c, eps):
    """V' = (xi + 1)(xi - c)(xi - c - eps): a well and a maximum eps
    apart, which the dense scan resolves on a window around c.  polyroots
    may return the pair as complex conjugates with imaginary parts below
    its 1e-7 cut (at c = 3, eps = 3e-8 too)."""
    v = P.polyint(P.polyfromroots([-1.0, c, c + eps]))
    _assert_wells_match_turns(polynomial_field(v[::-1].tolist()), 2, (c, 1e-6))


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
