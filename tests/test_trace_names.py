"""The benchmark tracer finds eqm's layers by name; every name must
resolve, and the CLI's commands must record a span under each."""

import importlib
import importlib.util
import json
import os

import pytest

from eqm import cli, onecut, twocut
from eqm.field import FieldSpec, PowerTerm
from eqm.rhp import q_polynomial

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "tracing.py",
)


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # stdlib only, no eqm import
    return module


@pytest.mark.parametrize("name", _tracing().SPAN_NAMES)
def test_span_name_resolves_in_eqm(name):
    mod, attr, *method = name.split(".")
    obj = getattr(importlib.import_module(f"eqm.{mod}"), attr)
    if isinstance(obj, type):
        # the tracer patches the class's own method, or its constructor
        obj = vars(obj)[method[0] if method else "__init__"]
    assert callable(obj)


def _problem(tmp_path, name, vstar, t, output=None):
    obj = {"field": {"vstar": vstar, "p": {"coeffs": [0.0, 0.0, 1.0]}, "t": t}}
    if output:
        obj["output"] = output
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_every_span_name_records_a_span(tmp_path):
    """solve, sweep, predict and oracle, run in process, pass through
    every traced layer but the tensor rule at least once.  The
    principal-value kernels run only for a band of a non-polynomial
    field that no Chebyshev series resolves: the one solve of |xi|^4.5
    + 30 xi^2 (one band across the kink at 0) reaches both the field
    form and the caller's-integrand form it calls; the sweep row of
    |xi|^4.5 - 3 xi^2 (two bands clear of 0) takes the series and
    reaches neither.  No CLI command runs the tensor rule, so ``rhp.q_polynomial``
    at a one-band solution (shared anchor: ``phi_eval_anchored``) and a
    two-band one (mirrored anchors: ``phi_eval``) does, in the same
    traced block."""
    quartic = [{"kind": "monomial", "k": 4, "c": 1.0}]
    abs45 = [{"kind": "abs_power", "a": 4.5, "c": 1.0}]
    semicircle = _problem(tmp_path, "semicircle", [], 1.0)
    quartic_path = _problem(tmp_path, "quartic", quartic, -10.0)
    abs_path = _problem(tmp_path, "abs4.5", abs45, -3.0)
    abs_onecut = _problem(tmp_path, "abs4.5-onecut", abs45, 30.0)
    oracle_path = _problem(tmp_path, "oracle", quartic, -10.0,
                           {"density": str(tmp_path / "oracle.csv")})
    runs = [
        ["solve", "--problem", semicircle, "--out", str(tmp_path / "semi")],
        ["solve", "--problem", quartic_path, "--out", str(tmp_path / "quartic")],
        ["sweep", "--problem", quartic_path, "--t-from", "-10", "--t-to", "-10",
         "--steps", "1"],
        ["sweep", "--problem", abs_path, "--t-from=-3", "--t-to=-3", "--steps", "1"],
        ["solve", "--problem", abs_onecut],
        ["predict", "--problem", quartic_path, "--sign", "-"],
        ["oracle", "--problem", oracle_path, "--grid-n", "201", "--iters", "2000"],
    ]
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in runs:
            assert cli.main(argv) == 0, argv
        for solve, t in ((onecut.solve_endpoints, 1.0),
                         (twocut.solve_endpoints_symmetric, -10.0)):
            field = FieldSpec((PowerTerm("monomial", 4, 1.0),), (0.0, 0.0, 1.0), t)
            q_polynomial(solve(field).endpoint_vector(), field)
    finally:
        tracer.uninstall()
    recorded = {span[3] for span in tracer.spans}
    assert [n for n in tracing.SPAN_NAMES if n not in recorded] == []
