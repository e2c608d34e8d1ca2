"""Byte-identity of CLI outputs against stored golden files.

The files under ``tests/data/golden`` hold the ``eqm sweep --log`` CSV
of two short two-band sweeps and, for three one-band problems and one
two-band problem, the ``density.csv`` plus the report's ``endpoints``
and ``lagrange_l``.
They pin the numbers a kernel or quadrature change must not move.
Regenerate them only for a deliberate change of results, with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest

from eqm.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")

MONO4 = {"kind": "monomial", "k": 4, "c": 1.0}
MONO6 = {"kind": "monomial", "k": 6, "c": 1.0}
ABS45 = {"kind": "abs_power", "a": 4.5, "c": 1.0}

# name: (vstar, ascending p coefficients, t)
SOLVES = {
    "semicircle": ([], [0.0, 0.0, 1.0], 1.0),
    "quartic-onecut": ([MONO4], [0.0, 0.0, 1.0], 1e4),
    "abs4.5-linear": ([ABS45], [0.0, 1.0], -30.0),
    "quartic-twocut": ([MONO4], [0.0, 0.0, 1.0], -10.0),
}
# name: (vstar, t_from, t_to); three log rows of V = vstar + t xi^2
SWEEPS = {
    "sweep-quartic": ([MONO4], -10.0, -1000.0),
    "sweep-sextic-even": ([MONO6], -10.0, -1000.0),
}


def _problem(tmp, name, vstar, p, t):
    path = os.path.join(tmp, f"{name}.json")
    obj = {"ansatz": "auto", "field": {"vstar": vstar, "p": {"coeffs": p}, "t": t}}
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _read(path):
    with open(path) as fh:
        return fh.read()


def _solve_outputs(tmp, name):
    vstar, p, t = SOLVES[name]
    out = os.path.join(tmp, name)
    code = main(["solve", "--problem", _problem(tmp, name, vstar, p, t), "--out", out])
    assert code == 0, name
    report = json.loads(_read(os.path.join(out, "report.json")))
    pinned = {key: report[key] for key in ("endpoints", "lagrange_l")}
    return {
        f"{name}-density.csv": _read(os.path.join(out, "density.csv")),
        f"{name}-report.json": json.dumps(pinned, sort_keys=True, indent=2) + "\n",
    }


def _sweep_outputs(tmp, name):
    vstar, t_from, t_to = SWEEPS[name]
    path = _problem(tmp, name, vstar, [0.0, 0.0, 1.0], t_from)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["sweep", "--problem", path, f"--t-from={t_from!r}",
                     f"--t-to={t_to!r}", "--steps", "3", "--log"])
    assert code == 0, name
    return {f"{name}.csv": buf.getvalue()}


def _outputs(tmp, name):
    if name in SOLVES:
        return _solve_outputs(tmp, name)
    return _sweep_outputs(tmp, name)


@pytest.mark.parametrize("name", [*SOLVES, *SWEEPS])
def test_outputs_match_golden(tmp_path, name):
    for fname, text in _outputs(str(tmp_path), name).items():
        assert text == _read(os.path.join(GOLDEN, fname)), fname


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in [*SOLVES, *SWEEPS]:
            for fname, text in _outputs(tmp, name).items():
                with open(os.path.join(GOLDEN, fname), "w") as fh:
                    fh.write(text)
