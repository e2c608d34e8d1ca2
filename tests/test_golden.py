"""Byte-identity of CLI outputs against stored golden files.

The files under ``tests/data/golden`` hold the ``eqm sweep --log`` CSV
of two short two-band sweeps and, for five one-band problems and one
two-band problem, the ``density.csv`` plus the report's ``endpoints``
and ``lagrange_l``.  The two non-even one-band fields, xi^4 - 10 xi and
xi^6 - 1e4 xi^3, have endpoints that move with the last bit of the
g = 0 endpoint residual.
They pin the numbers a kernel or quadrature change must not move.
Regenerate them only for a deliberate change of results, with

    PYTHONPATH=src python tests/test_golden.py --write

A change that claims unchanged results is checked on a wider set, the
DUMP_SOLVES problems, DUMP_SWEEPS sweeps and DUMP_ORACLES oracle runs
below.  Run

    PYTHONPATH=src python tests/test_golden.py --dump DIR

on each tree, then ``diff -r`` the two directories.  Every case gets a
directory holding its exit code, stdout and stderr (a sweep's CSV is
its stdout); a solve adds the ``problem.json``, ``report.json`` and
``density.csv`` of ``eqm solve --out``.  Each solve case also gets a
``predict+`` and a ``predict-`` directory with the output of
``eqm predict --sign +`` and ``--sign -`` on its problem, and, when the
solve wrote ``density.csv``, a ``verify`` directory with the output of
``eqm verify`` reading that file back.  The DUMP_ORACLES cases, the
four problems of criterion 8 and a one-band octic whose window reaches
wells off its support, run ``eqm oracle --grid-n 2001 --iters 40000``
in their directory, which also gets the ``oracle-density.csv``
it writes there.  No CLI output reads a solution's split-precision
endpoint vector, so the dump also writes ``criterion-7/<config>`` for
each ``conftest.solve_configs`` configuration: the ``endpoint_vector()``
fields, the ``q_polynomial`` coefficients there and at the 1.01x
perturbation criterion 7 uses, and the ``check_sign_and_gaps`` flags.

For the semicircle and every xi^4 + t xi^2 solve that wrote
``report.json``, the dump also writes ``reference``: each reported
endpoint against its closed form, evaluated by mpmath at 30 digits,
with the error in ulps of the reference.  The forms are r = 1/sqrt(pi t)
for the semicircle, b^2 = (-t + sqrt(t^2 + 6/pi))/3 for the quartic's
one band [-b, b], and u1^2 + u2^2 = -t, u1^2 - u2^2 = sqrt(2/pi) for its
two bands; the report's ansatz picks the form.  A change that moves
endpoints compares these errors between the two dumps.

To see which library lines that traffic runs, for instance to show that
code a change deletes is never reached from the CLI, run

    PYTHONPATH=src python tests/test_golden.py --dump DIR --lines FILE

``--lines`` runs the dump under ``sys.settrace`` and writes FILE with
one line per module of the eqm package, ``name.py: n1 n2 ...``, listing
the line numbers executed in process (empty for a module never entered;
``def`` lines and module-level code run at import are not counted).
Without ``--dump`` the dump goes to a temporary directory.  Tracing
makes the run several times slower but leaves the dump's files as they
are.
"""

import argparse
import contextlib
import inspect
import io
import json
import os
import sys
import tempfile

import numpy as np
import pytest

import eqm
from eqm import rhp, verify
from eqm.cli import main
from eqm.field import polynomial_field, validate_growth

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")

MONO4 = {"kind": "monomial", "k": 4, "c": 1.0}
MONO6 = {"kind": "monomial", "k": 6, "c": 1.0}
ABS45 = {"kind": "abs_power", "a": 4.5, "c": 1.0}
ABS35 = {"kind": "abs_power", "a": 3.5, "c": 1.0}
MONO8 = {"kind": "monomial", "k": 8, "c": 1.0}

# name: (vstar, ascending p coefficients, t)
SOLVES = {
    "semicircle": ([], [0.0, 0.0, 1.0], 1.0),
    "quartic-onecut": ([MONO4], [0.0, 0.0, 1.0], 1e4),
    "abs4.5-linear": ([ABS45], [0.0, 1.0], -30.0),
    "quartic-twocut": ([MONO4], [0.0, 0.0, 1.0], -10.0),
    "quartic-linear": ([MONO4], [0.0, 1.0], -10.0),
    "sextic-cubic": ([MONO6], [0.0, 0.0, 0.0, 1.0], -1e4),
}
# name: (vstar, t_from, t_to); three log rows of V = vstar + t xi^2
SWEEPS = {
    "sweep-quartic": ([MONO4], -10.0, -1000.0),
    "sweep-sextic-even": ([MONO6], -10.0, -1000.0),
}


# The dump set: one-band, two-band and fallback cases across the
# one/two-band transitions.  family: (vstar, {degree of p: t values}),
# with p = xi^degree.
_FAMILIES = {
    "abs3.5": ([ABS35], {1: (-10.0, 10.0), 2: (-5.0, -1.0, 1.0, 3.0)}),
    "abs4.5": ([ABS45], {1: (-30.0, 300.0),
                         2: (-30.0, -3.0, -1.6, -1.0, 0.3, 1.0, 3.0, 30.0)}),
    "quartic": ([MONO4], {1: (-10.0, 100.0),
                          2: (-1e8, -5e6, -2.5e6, -1e5, -1000.0, -10.0, -0.8,
                              -0.75, -0.1, 0.0, 100.0, 1e4, 1e12)}),
    "sextic": ([MONO6], {2: (-1e4, -1000.0, -10.0, -0.65, -0.6),
                         3: (-1e6, -1e4, -100.0)}),
}
DUMP_SOLVES = {
    f"{family}-x{deg}-t{t:g}": (vstar, [0.0] * deg + [1.0], t)
    for family, (vstar, tilts) in _FAMILIES.items()
    for deg, ts in tilts.items()
    for t in ts
}
DUMP_SOLVES["semicircle"] = SOLVES["semicircle"]
DUMP_SOLVES["octic-x4-t10"] = ([MONO8], [0.0, 0.0, -3.0, 0.0, 1.0], 10.0)
# An even field with V''(0) > 0 whose global minimizers sit off 0, at
# +-1.383: xi^6 - 3 xi^4 + 0.5 xi^2, certified as twocut-sym
DUMP_SOLVES["sextic-side-wells-x4-t-3"] = (
    [MONO6, {"kind": "monomial", "k": 2, "c": 0.5}], [0.0] * 4 + [1.0], -3.0)
# name: (vstar, p, t, ansatz); the oracle runs of criterion 8, and
# xi^8 + 100 xi^2 (xi^2 - 1)^2 forced onto one band, whose window
# reaches the wells at +-0.99 that the band misses
DUMP_ORACLES = {
    **{f"oracle-semicircle-t{t:g}": ([], [0.0, 0.0, 1.0], t, "auto") for t in (0.5, 1.0, 2.0)},
    "oracle-quartic-t-10": ([MONO4], [0.0, 0.0, 1.0], -10.0, "auto"),
    "oracle-octic-onecut-t100": ([MONO8], [0.0, 0.0, 1.0, 0.0, -2.0, 0.0, 1.0], 100.0,
                                 "onecut"),
}
# name: (vstar, t_from, t_to, steps, log) of V = vstar + t xi^2
DUMP_SWEEPS = {
    "sweep-quartic-log5": ([MONO4], -10.0, -1e5, 5, True),
    "sweep-abs4.5-log4": ([ABS45], 3.0, 3000.0, 4, True),
    "sweep-abs4.5-neg-log3": ([ABS45], -3.0, -300.0, 3, True),
    "sweep-quartic-log160": ([MONO4], -0.1, -1e6, 160, True),
    "sweep-sextic-log160": ([MONO6], -0.1, -1e6, 160, True),
    "sweep-quartic-offset-log5": ([MONO4], -6.31, -6.31e4, 5, True),
    "sweep-sextic-offset-log4": ([MONO6], -7.9, -7.9e3, 4, True),
    "sweep-abs3.5-log12": ([ABS35], -0.1, -100.0, 12, True),
    "sweep-quartic-lin51": ([MONO4], -0.5, -1.0, 51, False),
    "sweep-sextic-lin51": ([MONO6], -0.4, -0.9, 51, False),
    "sweep-abs4.5-lin6": ([ABS45], -1.5, -1.75, 6, False),
}


def _problem(tmp, name, vstar, p, t, ansatz="auto"):
    path = os.path.join(tmp, f"{name}.json")
    obj = {"ansatz": ansatz, "field": {"vstar": vstar, "p": {"coeffs": p}, "t": t}}
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


def _run_captured(argv, case_dir):
    """Run the CLI in process; write its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    for fname, text in (("exit_code", f"{code}\n"), ("stdout", out.getvalue()),
                        ("stderr", err.getvalue())):
        with open(os.path.join(case_dir, fname), "w") as fh:
            fh.write(text)


def _reference_endpoints(name, ansatz, t):
    """Closed-form endpoints, descending, as 30-digit mpmath numbers."""
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 30
    t = mp.mpf(t)
    if name == "semicircle":
        r = 1 / mp.sqrt(mp.pi * t)
        return [r, -r]
    if ansatz == "onecut":
        b = mp.sqrt((-t + mp.sqrt(t * t + 6 / mp.pi)) / 3)
        return [b, -b]
    split = mp.sqrt(2 / mp.pi)
    u1, u2 = mp.sqrt((-t + split) / 2), mp.sqrt((-t - split) / 2)
    return [u1, u2, -u2, -u1]


def _write_reference(case, name, t):
    """The reference file of a semicircle or xi^4 + t xi^2 case: one
    line per report endpoint with its value, the closed form and the
    error in ulps of the closed form."""
    path = os.path.join(case, "report.json")
    if not os.path.exists(path):
        return
    report = json.loads(_read(path))
    lines = [f"ansatz: {report['ansatz']}", f"converged: {report['converged']}",
             "endpoint value reference error_ulps"]
    exact = _reference_endpoints(name, report["ansatz"], t)
    for k, (value, ref) in enumerate(zip(report["endpoints"], exact), 1):
        ulps = float((value - ref) / np.spacing(abs(float(ref))))
        lines.append(f"u{k} {value!r} {ref} {ulps:+.3g}")
    with open(os.path.join(case, "reference"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def dump(root):
    """Write the outputs of every DUMP_SOLVES, DUMP_SWEEPS and
    DUMP_ORACLES case under root, with each solve case's predict runs
    and density read-back."""
    for name, (vstar, p, t) in DUMP_SOLVES.items():
        case = os.path.join(root, name)
        os.makedirs(case)
        path = _problem(case, "problem", vstar, p, t)
        _run_captured(["solve", "--problem", path, "--out", case], case)
        for sign in "+-":
            sub = os.path.join(case, f"predict{sign}")
            os.makedirs(sub)
            _run_captured(["predict", "--problem", path, "--sign", sign], sub)
        if name == "semicircle" or name.startswith("quartic-x2-"):
            _write_reference(case, name, t)
        density_csv = os.path.join(case, "density.csv")
        if os.path.exists(density_csv):
            sub = os.path.join(case, "verify")
            os.makedirs(sub)
            _run_captured(["verify", "--problem", path, "--density", density_csv],
                          sub)
    for name, (vstar, t_from, t_to, steps, log) in DUMP_SWEEPS.items():
        case = os.path.join(root, name)
        os.makedirs(case)
        path = _problem(case, "problem", vstar, [0.0, 0.0, 1.0], t_from)
        argv = ["sweep", "--problem", path, f"--t-from={t_from!r}",
                f"--t-to={t_to!r}", "--steps", str(steps)]
        _run_captured(argv + (["--log"] if log else []), case)
    for name, (vstar, p, t, ansatz) in DUMP_ORACLES.items():
        case = os.path.abspath(os.path.join(root, name))
        os.makedirs(case)
        path = _problem(case, "problem", vstar, p, t, ansatz)
        cwd = os.getcwd()
        os.chdir(case)  # where the oracle writes oracle-density.csv
        try:
            _run_captured(["oracle", "--problem", path, "--grid-n", "2001",
                           "--iters", "40000"], case)
        finally:
            os.chdir(cwd)
    _dump_criterion_7(os.path.join(root, "criterion-7"))


def _dump_criterion_7(root):
    from conftest import solve_configs

    os.makedirs(root)
    for name, cfg in solve_configs().items():
        u = cfg.solution.endpoint_vector()
        perturbed = rhp.EndpointVector(u.g, tuple(1.01 * x for x in u.u))
        lines = [
            f"g: {u.g!r}",
            f"base: {u.base!r}",
            f"offsets: {u.offsets!r}",
            f"u: {u.u!r}",
            f"q: {rhp.q_polynomial(u, cfg.field).coefficients!r}",
            f"q_perturbed: {rhp.q_polynomial(perturbed, cfg.field).coefficients!r}",
            f"sign_and_gaps: {verify.check_sign_and_gaps(u, cfg.field)!r}",
        ]
        with open(os.path.join(root, name), "w") as fh:
            fh.write("\n".join(lines) + "\n")


def executed_lines(run):
    """Call run() under sys.settrace; return {module file name: sorted
    line numbers executed} for every module of the eqm package."""
    package = os.path.dirname(eqm.__file__)
    hits = {name: set() for name in sorted(os.listdir(package))
            if name.endswith(".py")}

    def trace_lines(frame, event, arg):
        if event == "line":
            hits[os.path.basename(frame.f_code.co_filename)].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        if os.path.dirname(frame.f_code.co_filename) == package:
            return trace_lines
        return None

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        run()
    finally:
        sys.settrace(previous)
    return {name: sorted(lines) for name, lines in hits.items()}


def test_executed_lines_cover_only_what_runs():
    source, first = inspect.getsourcelines(validate_growth)
    field = polynomial_field([1.0, 0.0, 0.0])
    lines = executed_lines(lambda: validate_growth(field))
    assert {name for name, hit in lines.items() if hit} == {"field.py"}
    assert "cli.py" in lines and "__init__.py" in lines
    assert first + len(source) - 1 in lines["field.py"]  # its return line
    assert first not in lines["field.py"]  # a def line is not an event


def _write_lines(path, root):
    with open(path, "w") as fh:
        for name, lines in executed_lines(lambda: dump(root)).items():
            fh.write(f"{name}: {' '.join(map(str, lines))}\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        usage="test_golden.py --write | --dump DIR [--lines FILE] | --lines FILE")
    parser.add_argument("--write", action="store_true")
    parser.add_argument("--dump", metavar="DIR")
    parser.add_argument("--lines", metavar="FILE")
    args = parser.parse_args()
    if args.write == bool(args.dump or args.lines):
        parser.error("give --write, or --dump DIR and/or --lines FILE")
    if args.write:
        os.makedirs(GOLDEN, exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            for name in [*SOLVES, *SWEEPS]:
                for fname, text in _outputs(tmp, name).items():
                    with open(os.path.join(GOLDEN, fname), "w") as fh:
                        fh.write(text)
    elif args.lines is None:
        dump(args.dump)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            _write_lines(args.lines, args.dump or os.path.join(tmp, "dump"))
