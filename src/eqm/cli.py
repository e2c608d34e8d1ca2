"""Command line interface: solve, sweep, predict, oracle, verify.

Problem files are JSON with a canonical rendering (sorted keys, two
space indent) so parse-then-emit is byte identical.  All numeric CSV
cells use shortest round-trip decimals capped at 12 significant digits,
and sweep rows run in input order, so repeated runs produce
byte-identical output.

Exit codes: 0 success, 2 no convergence, 3 verification failure,
4 unparseable input, 5 unsupported asymptotic regime.  Failures emit a
machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .asymptotics import _SWEEP_GRID, _SWEEP_PROBES, predict
from .density import DensityTable, csv_rows
from .errors import (EqmError, NoConvergence, NotEven, ParseError,
                     UnsupportedRegime)
from .field import (FieldSpec, field_from_json, field_to_json, json_number,
                    validate_growth)
from .onecut import density, solve_endpoints
from .oracle import compare, direct_minimize, discretize
from .twocut import density_symmetric, solve_endpoints_symmetric
from .verify import check_variational
from .wells import wells

__all__ = ["main", "ProblemFile", "parse_problem", "emit_problem"]

_ANSATZE = ("auto", "onecut", "twocut-sym")
_EXIT_OK = 0
_EXIT_NO_CONVERGENCE = 2
_EXIT_VERIFY = 3
_EXIT_PARSE = 4
_EXIT_REGIME = 5
_SOLVE_GRID = 801


def _fmt(x):
    return f"{x:.12g}"


@dataclass
class ProblemFile:
    """Parsed problem description: field, ansatz, solver and output options."""

    field: FieldSpec
    ansatz: str = "auto"
    tol: float = 1e-10
    max_iter: int = 100
    report_path: str = None
    density_path: str = None

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0) or self.max_iter < 1:
            raise ParseError(
                "tol must be finite and positive and max_iter at least 1, "
                f"got tol={self.tol}, max_iter={self.max_iter}"
            )


def parse_problem(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("problem file must hold a JSON object")
    unknown = set(obj) - {"field", "ansatz", "solver", "output"}
    if unknown:
        raise ParseError(f"unknown problem keys: {sorted(unknown)}")
    if "field" not in obj:
        raise ParseError("problem file needs a 'field' entry")
    field = field_from_json(obj["field"])
    _check_field(field)
    ansatz = obj.get("ansatz", "auto")
    if ansatz not in _ANSATZE:
        raise ParseError(f"ansatz must be one of {_ANSATZE}, got {ansatz!r}")
    solver = obj.get("solver", {})
    if not isinstance(solver, dict) or set(solver) - {"tol", "max_iter"}:
        raise ParseError("solver options are 'tol' and 'max_iter'")
    tol = json_number(solver.get("tol", 1e-10), "tol")
    max_iter = json_number(solver.get("max_iter", 100), "max_iter")
    if not max_iter.is_integer():
        raise ParseError(f"max_iter must be an integer, got {max_iter}")
    output = obj.get("output", {})
    if (not isinstance(output, dict) or set(output) - {"report", "density"}
            or not all(isinstance(path, str) for path in output.values())):
        raise ParseError("output paths are 'report' and 'density', as strings")
    return ProblemFile(
        field=field,
        ansatz=ansatz,
        tol=tol,
        max_iter=int(max_iter),
        report_path=output.get("report"),
        density_path=output.get("density"),
    )


def _check_field(field):
    """Reject non-finite numbers, fields that do not confine, and
    polynomial fields of degree 50 or more, tilt included at any t.

    The degree limit is where the two-band tensor rule of ``epd`` would
    need more than 24 Gauss nodes per slot, 24^4 per point.  No command
    runs that rule, so this is not a limit of what the CLI computes.
    Fields with |xi|^a terms are admitted at any degree.
    """
    numbers = [field.t, *field.p_coeffs]
    for term in field.vstar:
        numbers += [term.exponent, term.coefficient]
    if not all(math.isfinite(x) for x in numbers):
        raise ParseError("t, coefficients and exponents must be finite")
    tilted = dataclasses.replace(field, t=1.0)  # a sweep may tilt a t = 0 file
    if tilted.is_polynomial and tilted.max_degree >= 50:
        raise ParseError(f"degree {tilted.max_degree:g} exceeds 49, the most "
                         "the two-band tensor rule's node cap allows")
    ok, diagnostic = validate_growth(field)
    if not ok:
        raise ParseError(f"field does not confine: {diagnostic}")


def emit_problem(problem):
    """Canonical problem JSON text (sorted keys, two-space indent)."""
    obj = {
        "ansatz": problem.ansatz,
        "field": field_to_json(problem.field),
        "solver": {"max_iter": problem.max_iter, "tol": problem.tol},
    }
    output = {}
    if problem.report_path is not None:
        output["report"] = problem.report_path
    if problem.density_path is not None:
        output["density"] = problem.density_path
    if output:
        obj["output"] = output
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _construct(field, ansatz, tol, max_iter, grid_n, probe_n=120):
    """Solve, build the density and verify, with the auto fallback.

    Returns (name, solution, table, report, accepted).  ``auto`` tries
    the single band and, for even fields, the symmetric two-band ansatz.
    Each support component holds a well of V, so at an even double well
    (the global minimizer of V off 0) the two-band attempt runs first;
    elsewhere the single band does.  The first attempt whose report
    passes wins, and the rest never run.  If none passes, the attempts
    rank in the canonical order onecut, then twocut-sym: the
    canonically later one that got as far as verification is returned
    with accepted=False; otherwise the error of the attempt that got
    furthest propagates, the canonically later one on a tie.

    Both ansaetze can pass.  The certificate holds each condition to a
    tolerance, and next to a critical tilt, where the support changes
    topology, the other ansatz meets them too: for xi^4 + t xi^2 at
    t = -sqrt(2/pi) - 1e-6 and - 1e-8, ``onecut`` and ``twocut-sym``
    each certify on their own.  There the try order picks the answer,
    and ``auto`` returns ``twocut-sym``.
    """
    attempts = []
    if ansatz in ("auto", "onecut"):
        attempts.append(("onecut", solve_endpoints, density))
    if ansatz == "twocut-sym" or (ansatz == "auto" and field.is_even):
        attempts.append(("twocut-sym", solve_endpoints_symmetric,
                         density_symmetric))
    ranked = list(enumerate(attempts))
    if len(attempts) > 1 and wells(field)[0] != 0.0:
        ranked.reverse()

    reported = {}  # rank -> (name, solution, table, report)
    failed = []  # (stage reached, rank, its error)
    for rank, (name, solve, build) in ranked:
        stage = 0  # 0 solving, 1 solved, 2 converged
        try:
            sol = solve(field, tol=tol, max_iter=max_iter)
            stage = 1
            if not sol.converged:
                raise NoConvergence(f"residual {sol.residual_norm:.3e}")
            stage = 2
            tab = build(sol, field, grid_n)
            report = check_variational(tab, field, probe_n=probe_n)
            if report.passed():
                return name, sol, tab, report, True
            reported[rank] = name, sol, tab, report
        except EqmError as exc:
            failed.append((stage, rank, exc))
    if reported:
        return (*reported[max(reported)], False)
    raise max(failed, key=lambda f: f[:2])[2]


def _report_obj(name, sol, tab, report):
    """The report of a constructed solution.  endpoints and lagrange_l
    are those of its density table tab, the one density.csv prints."""
    return {
        "ansatz": name,
        "endpoints": [float(u) for u in tab.endpoints_desc],
        "lagrange_l": tab.lagrange_l,
        "residual_norm": sol.residual_norm,
        "converged": sol.converged,
        "verification": report.as_dict(),
    }


def _emit_json(obj, path=None):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _fail(kind, message, code):
    sys.stderr.write(
        json.dumps({"error": kind, "message": message}, sort_keys=True) + "\n"
    )
    return code


def cmd_solve(args):
    problem = _load_problem(args.problem)
    ansatz = args.ansatz or problem.ansatz
    if args.tol is not None:
        problem = dataclasses.replace(problem, tol=args.tol)
    name, sol, tab, report, accepted = _construct(
        field=problem.field,
        ansatz=ansatz,
        tol=problem.tol,
        max_iter=problem.max_iter,
        grid_n=_SOLVE_GRID,
    )

    report_path = problem.report_path
    density_path = problem.density_path
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        report_path = os.path.join(args.out, "report.json")
        density_path = os.path.join(args.out, "density.csv")
    _emit_json(_report_obj(name, sol, tab, report), report_path)
    if density_path is not None:
        with open(density_path, "w") as fh:
            fh.write(tab.to_csv())
    if not accepted:
        return _fail(
            "VerificationFailure",
            f"the {name} construction failed variational checks",
            _EXIT_VERIFY,
        )
    return _EXIT_OK


def _sweep_values(t_from, t_to, steps, log_scale):
    if steps < 1:
        raise ParseError("sweep needs at least one step")
    if not (math.isfinite(t_from) and math.isfinite(t_to)):
        raise ParseError("--t-from and --t-to must be finite")
    if steps == 1:
        return [t_from]
    if not log_scale:
        return list(np.linspace(t_from, t_to, steps))
    if t_from == 0.0 or t_to == 0.0 or (t_from < 0.0) != (t_to < 0.0):
        raise ParseError("a log sweep needs a sign-definite, nonzero t range")
    sign = -1.0 if t_from < 0.0 else 1.0
    mags = np.geomspace(abs(t_from), abs(t_to), steps)
    return list(sign * mags)


def _sweep_row(tilted, tol, max_iter):
    t = tilted.t
    cells = {
        "t": t,
        "ansatz": "unresolved",
        "gaps": "",
        "u": ("", "", "", ""),
        "scaled": ("", "", "", ""),
        "verify": "",
    }
    try:
        name, sol, tab, report, accepted = _construct(
            field=tilted,
            ansatz="auto",
            tol=tol,
            max_iter=max_iter,
            grid_n=_SWEEP_GRID,
            probe_n=_SWEEP_PROBES,
        )
    except EqmError:
        return cells
    u = [float(x) for x in tab.endpoints_desc]
    upad = [_fmt(x) for x in u] + [""] * (4 - len(u))
    scaled = [""] * 4
    if t != 0.0:
        try:
            pred = predict(tilted, 1 if t > 0 else -1)
            s = abs(t) ** pred.scaling_exponent
            scaled = [_fmt(x / s) for x in u] + [""] * (4 - len(u))
        except UnsupportedRegime:
            pass
    cells.update(
        ansatz=name,
        gaps=str(len(u) // 2 - 1),
        u=tuple(upad),
        scaled=tuple(scaled),
        verify="pass" if accepted else "fail",
    )
    return cells


def cmd_sweep(args):
    problem = _load_problem(args.problem)
    fields = [dataclasses.replace(problem.field, t=float(t))
              for t in _sweep_values(args.t_from, args.t_to, args.steps, args.log)]
    for tilted in fields:
        ok, diagnostic = validate_growth(tilted)
        if not ok:
            raise ParseError(f"field does not confine at t = {_fmt(tilted.t)}: "
                             f"{diagnostic}")
    rows = [_sweep_row(tilted, problem.tol, problem.max_iter) for tilted in fields]
    header = (
        "t,ansatz,gaps,u1,u2,u3,u4,"
        "scaled_u1,scaled_u2,scaled_u3,scaled_u4,verify"
    )
    lines = [header]
    for row in rows:
        lines.append(
            ",".join(
                [_fmt(row["t"]), row["ansatz"], row["gaps"]]
                + list(row["u"])
                + list(row["scaled"])
                + [row["verify"]]
            )
        )
    sys.stdout.write("\n".join(lines) + "\n")
    if all(row["ansatz"] == "unresolved" for row in rows):
        return _fail(
            "NoConvergence", "no sweep row was resolved", _EXIT_NO_CONVERGENCE
        )
    return _EXIT_OK


def cmd_predict(args):
    problem = _load_problem(args.problem)
    sign = 1 if args.sign == "+" else -1
    _emit_json(predict(problem.field, sign).as_dict())
    return _EXIT_OK


def cmd_oracle(args):
    if args.grid_n < 2 or args.iters < 1:
        raise ParseError("oracle needs --grid-n >= 2 and --iters >= 1")
    problem = _load_problem(args.problem)
    constructed = None
    obj = {"constructed": None, "oracle": None, "comparison": None}
    try:
        name, sol, tab, report, accepted = _construct(
            field=problem.field,
            ansatz=problem.ansatz,
            tol=problem.tol,
            max_iter=problem.max_iter,
            grid_n=_SOLVE_GRID,
        )
        constructed = tab
        obj["constructed"] = _report_obj(name, sol, tab, report)
        lo, hi = tab.bands[0].lo, tab.bands[-1].hi
        mid, width = 0.5 * (lo + hi), hi - lo
        xs = [mid] + [float(w) for w in wells(problem.field) if not lo <= w <= hi]
        a, b = min(xs) - width, max(xs) + width
    except EqmError as exc:
        obj["constructed"] = {"error": f"{type(exc).__name__}: {exc}"}
        a, b = -2.0, 2.0

    disc = discretize(problem.field, a, b, args.grid_n)
    result = direct_minimize(disc, iters=args.iters)
    obj["oracle"] = {
        "interval": [a, b],
        "grid_n": args.grid_n,
        "iterations": result.iterations,
        "residual": result.residual,
        "converged": result.converged,
    }
    if constructed is not None:
        metrics = compare(constructed, result)
        metrics["band_edges"] = [
            [float(lo), float(hi)] for lo, hi in metrics["band_edges"]
        ]
        obj["comparison"] = metrics

    density_path = problem.density_path or "oracle-density.csv"
    with open(density_path, "w") as fh:
        fh.write("xi,psi\n" + csv_rows(disc.grid, result.psi))
    _emit_json(obj)
    return _EXIT_OK


def cmd_verify(args):
    problem = _load_problem(args.problem)
    try:
        with open(args.density) as fh:
            tab = DensityTable.from_csv(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read density CSV: {exc}") from exc
    report = check_variational(tab, problem.field)
    _emit_json(report.as_dict())
    if not report.passed():
        return _fail(
            "VerificationFailure",
            "the density failed variational checks",
            _EXIT_VERIFY,
        )
    return _EXIT_OK


def _load_problem(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read problem file: {exc}") from exc
    return parse_problem(text)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own matcher misses exponent notation, so it would
        # read "--t-to -1e6" as a flag without its value
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$"
        )

    def error(self, message):
        raise ParseError(message)


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    parser = _Parser(prog="eqm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a problem file")
    p.add_argument("--problem", required=True)
    p.add_argument("--ansatz", choices=_ANSATZE)
    p.add_argument("--tol", type=float)
    p.add_argument("--out", help="directory for report.json and density.csv")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="scan the tilt strength")
    p.add_argument("--problem", required=True)
    p.add_argument("--t-from", type=float, required=True, dest="t_from")
    p.add_argument("--t-to", type=float, required=True, dest="t_to")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--log", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("predict", help="large-tilt endpoint scaling")
    p.add_argument("--problem", required=True)
    p.add_argument("--sign", choices=["+", "-"], required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("oracle", help="direct discretized minimization")
    p.add_argument("--problem", required=True)
    p.add_argument("--grid-n", type=int, required=True, dest="grid_n")
    p.add_argument("--iters", type=int, required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="check a stored density table")
    p.add_argument("--problem", required=True)
    p.add_argument("--density", required=True)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ParseError as exc:
        return _fail("ParseError", str(exc), _EXIT_PARSE)
    except UnsupportedRegime as exc:
        return _fail("UnsupportedRegime", str(exc), _EXIT_REGIME)
    except NotEven as exc:
        return _fail("NotEven", str(exc), _EXIT_PARSE)
    except NoConvergence as exc:
        return _fail("NoConvergence", str(exc), _EXIT_NO_CONVERGENCE)
    except EqmError as exc:
        return _fail(type(exc).__name__, str(exc), _EXIT_VERIFY)


if __name__ == "__main__":
    sys.exit(main())
