"""The benchmark tracer finds eqm's layers by name; every name must resolve."""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "tracing.py",
)


def _span_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # stdlib only, no eqm import
    return module.SPAN_NAMES


@pytest.mark.parametrize("name", _span_names())
def test_span_name_resolves_in_eqm(name):
    mod, attr, *method = name.split(".")
    obj = getattr(importlib.import_module(f"eqm.{mod}"), attr)
    if isinstance(obj, type):
        # the tracer patches the class's own method, or its constructor
        obj = vars(obj)[method[0] if method else "__init__"]
    assert callable(obj)
