"""Command-line interface: exit codes, formats, determinism."""

import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import eqm
from eqm import anchored, cli, verify
from eqm import wells as wells_module
from eqm.cli import emit_problem, main, parse_problem
from eqm.errors import EqmError, NoConvergence, ParseError, PrecisionLoss
from eqm.field import FieldSpec, PowerTerm

# the directory holding the eqm package under test, for child processes
EQM_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(eqm.__file__)))

SEMI = {
    "field": {"vstar": [], "p": {"coeffs": [0.0, 0.0, 1.0]}, "t": 1.0},
    "ansatz": "auto",
    "solver": {"max_iter": 100, "tol": 1e-10},
}

QUARTIC = {
    "field": {
        "vstar": [{"kind": "monomial", "k": 4, "c": 1.0}],
        "p": {"coeffs": [0.0, 0.0, 1.0]},
        "t": -10.0,
    },
    "ansatz": "auto",
    "solver": {"max_iter": 100, "tol": 1e-10},
}

# xi^8 - 1e5 xi^2 (xi^2 - 1)^2: the two-band solve converges but its
# density misses unit mass; the one-band fallback does not converge
OCTIC = {
    "field": {
        "vstar": [{"kind": "monomial", "k": 8, "c": 1.0}],
        "p": {"coeffs": [0.0, 0.0, 1.0, 0.0, -2.0, 0.0, 1.0]},
        "t": -1e5,
    },
    "ansatz": "auto",
    "solver": {"max_iter": 100, "tol": 1e-10},
}

NONCONVEX = {
    "field": {
        "vstar": [{"kind": "monomial", "k": 8, "c": 1.0}],
        "p": {"coeffs": [0.0, 0.0, -3.0, 0.0, 1.0]},
        "t": 10.0,
    },
    "ansatz": "auto",
    "solver": {"max_iter": 100, "tol": 1e-10},
}


def write_problem(tmp_path, obj, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def child_env():
    """The environment of a child process that imports eqm under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (EQM_ROOT, env.get("PYTHONPATH")) if p
    )
    return env


def run_cli(args, cwd, env_extra=None):
    """Run the CLI in a child process whose working directory is cwd, so
    default output files (e.g. oracle-density.csv) stay out of the tree."""
    env = child_env()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "eqm.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def test_problem_roundtrip_canonical():
    text = emit_problem(parse_problem(json.dumps(SEMI)))
    assert emit_problem(parse_problem(text)) == text
    assert text.endswith("\n")


def test_problem_rejects_unknown_keys():
    from eqm.errors import ParseError

    bad = dict(SEMI)
    bad["mystery"] = 1
    with pytest.raises(ParseError):
        parse_problem(json.dumps(bad))


def test_integer_literals_parse():
    """JSON integers are numbers: exponents, coefficients, t and the
    solver options may be written without a decimal point."""
    problem = parse_problem(
        '{"field": {"vstar": [{"kind": "monomial", "k": 4, "c": 1}],'
        ' "p": {"coeffs": [0, 0, 1]}, "t": -10},'
        ' "solver": {"max_iter": 50, "tol": 1}}'
    )
    assert problem.field == parse_problem(json.dumps(QUARTIC)).field
    assert (problem.max_iter, problem.tol) == (50, 1.0)


def test_solve_semicircle(tmp_path):
    problem = write_problem(tmp_path, SEMI)
    proc = run_cli(["solve", "--problem", problem], tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["ansatz"] == "onecut"
    assert report["verification"]["passed"] is True
    assert report["endpoints"][0] == pytest.approx(0.5641895835, abs=1e-7)

    out = tmp_path / "out"
    proc2 = run_cli(["solve", "--problem", problem, "--out", str(out)], tmp_path)
    assert proc2.returncode == 0, proc2.stderr
    saved = json.loads((out / "report.json").read_text())
    assert saved["ansatz"] == report["ansatz"]
    assert saved["endpoints"] == report["endpoints"]
    header = (out / "density.csv").read_text().splitlines()
    assert any(line == "xi,psi" for line in header)


def test_solve_auto_falls_back_to_twocut(tmp_path):
    problem = write_problem(tmp_path, QUARTIC)
    proc = run_cli(["solve", "--problem", problem], tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["ansatz"] == "twocut-sym"
    assert len(report["endpoints"]) == 4
    assert report["verification"]["passed"] is True


def test_solve_forced_wrong_ansatz_exits_3(tmp_path):
    bad = dict(QUARTIC)
    bad["ansatz"] = "onecut"
    problem = write_problem(tmp_path, bad, "forced.json")
    proc = run_cli(["solve", "--problem", problem], tmp_path)
    assert proc.returncode == 3
    report = json.loads(proc.stdout)
    assert report["verification"]["passed"] is False


def test_solve_reports_furthest_failure(tmp_path, capsys):
    """xi^8 - 1e5 xi^2 (xi^2 - 1)^2: the one-band solve stalls, and the
    two-band solve converges but its density misses unit mass, which is
    the furthest either attempt got."""
    problem = write_problem(tmp_path, OCTIC)
    code = main(["solve", "--problem", problem])
    err = json.loads(capsys.readouterr().err)
    assert code == 3
    assert err["error"] == "PrecisionLoss"
    assert err["message"].startswith("total mass 0.9999996")
    assert err["message"].endswith("deviates from 1")
    code = main(["sweep", "--problem", problem, "--t-from=-1e5",
                 "--t-to=-1e5", "--steps", "1"])
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert code == 2
    assert [row.split(",")[1] for row in rows] == ["unresolved"]


def test_malformed_json_exits_4(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    proc = run_cli(["solve", "--problem", str(path)], tmp_path)
    assert proc.returncode == 4
    err = json.loads(proc.stderr)
    assert err["error"]


def test_missing_flag_exits_4(tmp_path):
    proc = run_cli(["solve"], tmp_path)
    assert proc.returncode == 4


def test_predict_json(tmp_path):
    problem = write_problem(tmp_path, QUARTIC)
    proc = run_cli(["predict", "--problem", problem, "--sign", "-"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    pred = json.loads(proc.stdout)
    assert pred["limit_constant"] == pytest.approx(0.7071067812, abs=1e-9)
    assert pred["scaling_exponent"] == pytest.approx(0.5)


def test_predict_unsupported_exits_5(tmp_path):
    problem = write_problem(tmp_path, NONCONVEX)
    proc = run_cli(["predict", "--problem", problem, "--sign", "+"], tmp_path)
    assert proc.returncode == 5
    err = json.loads(proc.stderr)
    assert err["error"]


def test_verify_roundtrip(tmp_path):
    problem = write_problem(tmp_path, SEMI)
    out = tmp_path / "out"
    run_cli(["solve", "--problem", problem, "--out", str(out)], tmp_path)
    proc = run_cli(
        ["verify", "--problem", problem, "--density", str(out / "density.csv")],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["passed"] is True


def test_verify_rejects_scaled_density(tmp_path):
    problem = write_problem(tmp_path, SEMI)
    out = tmp_path / "out"
    run_cli(["solve", "--problem", problem, "--out", str(out)], tmp_path)
    csv_path = out / "density.csv"
    lines = csv_path.read_text().splitlines()
    scaled = []
    for line in lines:
        if line.startswith("#") or line == "xi,psi" or not line:
            scaled.append(line)
        else:
            xi, psi = line.split(",")
            scaled.append(f"{xi},{1.01 * float(psi):.12g}")
    csv_path.write_text("\n".join(scaled) + "\n")
    proc = run_cli(
        ["verify", "--problem", problem, "--density", str(csv_path)],
        tmp_path,
    )
    assert proc.returncode == 3
    report = json.loads(proc.stdout)
    assert report["passed"] is False


def test_oracle_command(tmp_path):
    problem = write_problem(tmp_path, SEMI)
    proc = run_cli(
        ["oracle", "--problem", problem, "--grid-n", "401", "--iters", "20000"],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    metrics = payload["comparison"]
    assert metrics["band_count"] == 1
    assert metrics["l1_distance"] < 2e-2
    assert (tmp_path / "oracle-density.csv").exists()


def test_sweep_positive_quartic_all_onecut(tmp_path):
    pos = dict(QUARTIC)
    pos["field"] = dict(QUARTIC["field"], t=10.0)
    problem = write_problem(tmp_path, pos, "pos.json")
    proc = run_cli(
        ["sweep", "--problem", problem, "--t-from", "10", "--t-to", "10000",
         "--steps", "4", "--log"],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == (
        "t,ansatz,gaps,u1,u2,u3,u4,"
        "scaled_u1,scaled_u2,scaled_u3,scaled_u4,verify"
    )
    assert len(lines) == 5
    for row in lines[1:]:
        cells = row.split(",")
        assert cells[1] == "onecut"
        assert cells[2] == "0"
        assert cells[-1] == "pass"


def test_sweep_log_needs_sign_definite_range(tmp_path):
    problem = write_problem(tmp_path, SEMI)
    proc = run_cli(
        ["sweep", "--problem", problem, "--t-from", "-1", "--t-to", "1",
         "--steps", "3", "--log"],
        tmp_path,
    )
    assert proc.returncode == 4


def test_sweep_accepts_exponent_negative_values(tmp_path, capsys):
    problem = write_problem(tmp_path, QUARTIC)
    code = main(["sweep", "--problem", problem, "--t-from", "-1e6",
                 "--t-to", "-2.5e-3", "--steps", "2"])
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert code == 0
    assert [row.split(",")[0] for row in rows] == ["-1000000", "-0.0025"]


def test_sweep_rejects_non_confining_tilt(tmp_path, capsys):
    """xi^2 + t xi^4 confines at t = 1 and 0 but not at -1: the range is
    rejected before any row is solved, naming the first failing t."""
    problem = write_problem(tmp_path, {"field": {
        "vstar": [{"kind": "monomial", "k": 2, "c": 1.0}],
        "p": {"coeffs": [0.0, 0.0, 0.0, 0.0, 1.0]}, "t": 1.0}})
    code = main(["sweep", "--problem", problem, "--t-from", "1",
                 "--t-to", "-1", "--steps", "3"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ParseError"
    assert err["message"].startswith("field does not confine at t = -1:")


def test_twocut_on_uneven_field_exits_4(tmp_path, capsys):
    problem = write_problem(tmp_path, {"field": {
        "vstar": [{"kind": "monomial", "k": 4, "c": 1.0}],
        "p": {"coeffs": [0.0, 1.0]}, "t": -10.0}})
    code = main(["solve", "--problem", problem, "--ansatz", "twocut-sym"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "NotEven",
        "message": "symmetric two-band solve requires an even field"}


@pytest.mark.parametrize("log", [False, True])
@pytest.mark.parametrize("bound", ["t-from", "t-to"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_sweep_rejects_non_finite_bounds(tmp_path, capsys, value, bound, log):
    problem = write_problem(tmp_path, QUARTIC)
    bounds = {"t-from": "-10", "t-to": "-100", bound: value}
    argv = ["sweep", "--problem", problem, f"--t-from={bounds['t-from']}",
            f"--t-to={bounds['t-to']}", "--steps", "3"]
    code = main(argv + (["--log"] if log else []))
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ParseError",
        "message": "--t-from and --t-to must be finite",
    }


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc")
def test_repeated_sweeps_reuse_freed_memory(tmp_path):
    # each call frees hundreds of arrays of 64-160 KiB; a later call must
    # take them from the heap, not fault fresh pages in (about 450 minor
    # faults per one-row sweep under glibc's adaptive thresholds, under
    # 10 with fixed ones)
    problem = write_problem(tmp_path, QUARTIC)
    code = (
        "import contextlib, io, resource, sys\n"
        "from eqm.cli import main\n"
        "argv = ['sweep', '--problem', sys.argv[1], '--t-from=-10',\n"
        "        '--t-to=-10', '--steps', '1']\n"
        "for _ in range(3):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, problem], capture_output=True, text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; importing it would double start-up
    code = (
        "import sys, eqm, eqm.cli; "
        "print(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_main_in_process(tmp_path, capsys):
    problem = write_problem(tmp_path, SEMI)
    code = main(["solve", "--problem", problem])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["converged"] is True


def test_reused_parser_matches_fresh_process(tmp_path, capsys):
    """The parser is built once per process; a call that fails to parse
    leaves nothing behind, so a valid solve after it prints what a
    fresh process prints."""
    problem = write_problem(tmp_path, QUARTIC)
    assert main(["solve", "--problem", problem, "--steps", "3"]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"
    code = main(["solve", "--problem", problem])
    out = capsys.readouterr().out
    fresh = run_cli(["solve", "--problem", problem], cwd=str(tmp_path))
    assert (code, out) == (fresh.returncode, fresh.stdout)
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize(
    "field_text, reason",
    [
        ('{"vstar": [], "p": {"coeffs": [0.0, 0.0, 1.0]}, "t": -1.0}', "confine"),
        ('{"vstar": [], "p": {"coeffs": [0.0, 0.0, 1.0]}, "t": NaN}', "finite"),
        ('{"vstar": [], "p": {"coeffs": [0.0, 0.0, 1.0]}, "t": Infinity}', "finite"),
        ('{"vstar": [], "p": {"coeffs": [0.0, 0.0, 1.0]}, "t": true}', "number"),
        ('{"vstar": [], "p": {"coeffs": [0.0, 0.0, 1.0]}, "t": "1"}', "number"),
        ('{"vstar": [], "p": {"coeffs": [0, 0, true]}, "t": 1.0}', "number"),
        ('{"vstar": [], "p": {"coeffs": [0, 0, "1"]}, "t": 1.0}', "number"),
        ('{"vstar": [{"kind": "monomial", "k": 4, "c": "1"}], '
         '"p": {"coeffs": [0.0, 0.0, 1.0]}, "t": 1.0}', "number"),
        ('{"vstar": [{"kind": "monomial", "k": true, "c": 1.0}], '
         '"p": {"coeffs": [0.0, 0.0, 1.0]}, "t": 1.0}', "number"),
        ('{"vstar": [{"kind": "abs_power", "a": "4.5", "c": 1.0}], '
         '"p": {"coeffs": [0.0, 0.0, 1.0]}, "t": 1.0}', "number"),
        ("[]", "JSON object"),
    ],
    ids=["nonconfining", "t-nan", "t-infinity", "t-bool", "t-string",
         "coeff-bool", "coeff-string", "c-string", "k-bool", "a-string",
         "field-list"],
)
def test_invalid_field_exits_4(tmp_path, capsys, field_text, reason):
    path = tmp_path / "problem.json"
    path.write_text('{"field": ' + field_text + "}")
    code = main(["solve", "--problem", str(path)])
    err = json.loads(capsys.readouterr().err)
    assert code == 4
    assert err["error"] == "ParseError"
    assert reason in err["message"]


def _monomial_field(k, p, t):
    return {"vstar": [{"kind": "monomial", "k": k, "c": 1.0}],
            "p": {"coeffs": p}, "t": t}


def test_field_at_tensor_cap_parses():
    """xi^48 - xi^2 takes 24 nodes per slot of the two-band rule, the
    count the tensor cap is sized for."""
    parse_problem(json.dumps({"field": _monomial_field(48, [0.0, 0.0, 1.0], -1.0)}))


@pytest.mark.parametrize(
    "field",
    [_monomial_field(50, [0.0, 0.0, 1.0], -1.0),
     _monomial_field(400, [0.0, 0.0, 1.0], -1.0),
     _monomial_field(4, [0.0] * 50 + [1.0], 0.0)],
    ids=["x50", "x400", "p-x50-at-t0"],
)
def test_field_over_tensor_cap_exits_4(tmp_path, capsys, field):
    """A degree above 49 in V* or p (p at any t, as a sweep changes t)
    would need more than 24^4 tensor nodes per point; at degree 400 one
    point asks for 12 GiB.  Such fields are rejected at parse time; the
    parser is checked first, so no solve starts if it lets one through."""
    text = json.dumps({"field": field})
    with pytest.raises(ParseError, match="degree"):
        parse_problem(text)
    path = tmp_path / "problem.json"
    path.write_text(text)
    sweep = ["sweep", "--t-from=-1", "--t-to=-10", "--steps", "2"]
    for argv in (["solve"], sweep):
        assert main([*argv, "--problem", str(path)]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


@pytest.mark.parametrize("output", ['{"report": 7}', '{"density": null}'],
                         ids=["report-int", "density-null"])
def test_output_path_not_a_string_exits_4(tmp_path, capsys, output):
    """An output path that is not a string is rejected at input, before
    open() could read an integer as a file descriptor."""
    path = tmp_path / "problem.json"
    path.write_text(
        '{"field": {"vstar": [], "p": {"coeffs": [0.0, 0.0, 1.0]}, "t": 1.0},'
        ' "output": ' + output + "}"
    )
    assert main(["solve", "--problem", str(path)]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


_ROWS = "-0.3,0.1\n0.0,0.2\n0.15,0.1\n0.3,0.1\n"


@pytest.mark.parametrize(
    "header, rows",
    [
        ("# support: 5.0,6.0", _ROWS),
        ("# support: 0.5,-0.5", _ROWS),
        ("# support: -0.5,0.0,0.5", _ROWS),
        ("# support: -0.5", _ROWS),
        ("# lagrange-l: abc", _ROWS),
        ("# support: -0.5,0.2;0.1,0.5", _ROWS),
        ("# support: -0.5,0.5", _ROWS + "3.0,5.0\n"),
        ("# support: -0.5,0.5", _ROWS.replace("0.0,0.2", "0.0,nan")),
        ("# support: -0.5,0.5", _ROWS.replace("0.15,0.1", "inf,0.1")),
        ("", _ROWS.replace("0.0,0.2", "0.0,-inf")),
        ("# support: -inf,inf", _ROWS),
        ("# support: -0.5,0.5\n# lagrange-l: nan", _ROWS),
        ("", _ROWS),
    ],
    ids=["empty-band", "reversed-band", "two-commas", "no-comma",
         "bad-lagrange", "overlapping-bands", "row-outside-support",
         "psi-nan", "xi-inf", "psi-inf-no-header", "support-inf",
         "lagrange-nan", "no-support-header"],
)
def test_verify_malformed_density_exits_4(tmp_path, capsys, header, rows):
    problem = write_problem(tmp_path, SEMI)
    csv_path = tmp_path / "density.csv"
    csv_path.write_text(header + "\nxi,psi\n" + rows)
    code = main(["verify", "--problem", problem, "--density", str(csv_path)])
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


@pytest.mark.parametrize(
    "args",
    [
        ["oracle", "--grid-n", "1", "--iters", "10"],
        ["oracle", "--grid-n", "401", "--iters", "0"],
        ["solve", "--tol", "0"],
        ["solve", "--tol", "-1e-10"],
        ["solve", "--tol", "nan"],
        ["solve", "--tol", "inf"],
    ],
    ids=["grid-n-1", "iters-0", "tol-0", "tol-negative", "tol-nan", "tol-inf"],
)
def test_invalid_numeric_option_exits_4(tmp_path, capsys, args):
    problem = write_problem(tmp_path, SEMI)
    code = main([args[0], "--problem", problem, *args[1:]])
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


@pytest.mark.parametrize(
    "solver",
    ['{"tol": NaN}', '{"tol": 0}', '{"tol": -1e-10}', '{"max_iter": 0}',
     '{"max_iter": Infinity}', '{"tol": true}', '{"tol": "1e-10"}',
     '{"max_iter": 2.7}', '{"max_iter": true}', '{"max_iter": "100"}'],
    ids=["tol-nan", "tol-0", "tol-negative", "max-iter-0", "max-iter-inf",
         "tol-bool", "tol-string", "max-iter-fraction", "max-iter-bool",
         "max-iter-string"],
)
def test_invalid_solver_options_exit_4(tmp_path, capsys, solver):
    path = tmp_path / "problem.json"
    path.write_text(
        '{"field": {"vstar": [], "p": {"coeffs": [0.0, 0.0, 1.0]}, "t": 1.0},'
        ' "solver": ' + solver + "}"
    )
    code = main(["solve", "--problem", str(path)])
    err = json.loads(capsys.readouterr().err)
    assert code == 4
    assert err["error"] == "ParseError"


def test_two_band_sweep_row_builds_no_one_band_table(tmp_path, capsys, monkeypatch):
    """At a double well the two-band attempt runs first and passes, so
    no one-band density is sampled or sign-checked."""
    built, checked = [], []
    density, check = cli.density, verify.check_sign_and_gaps

    def counted_density(*args):
        built.append(args)
        return density(*args)

    def counted_check(u, field):
        checked.append(u.g)
        return check(u, field)

    monkeypatch.setattr(cli, "density", counted_density)
    monkeypatch.setattr(verify, "check_sign_and_gaps", counted_check)
    problem = write_problem(tmp_path, QUARTIC)
    code = main(["sweep", "--problem", problem, "--t-from=-100", "--t-to=-100",
                 "--steps", "1"])
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert code == 0
    assert (row[1], row[-1]) == ("twocut-sym", "pass")
    assert built == []
    assert checked == [1]  # the two-band report's own sign check


M4 = {"kind": "monomial", "k": 4, "c": 1.0}
A35 = {"kind": "abs_power", "a": 3.5, "c": 1.0}
A45 = {"kind": "abs_power", "a": 4.5, "c": 1.0}


def _field_problem(vstar, coeffs, t):
    return {"field": {"vstar": vstar, "p": {"coeffs": coeffs}, "t": t},
            "ansatz": "auto"}


@pytest.mark.parametrize("problem, code, error, ansatz", [
    (_field_problem([A35], [0.0, 0.0, 1.0], 3.0), 0, None, "onecut"),
    (_field_problem([A35], [0.0, 0.0, 1.0], -5.0), 0, None, "twocut-sym"),
    (_field_problem([A45], [0.0, 0.0, 1.0], 0.3), 0, None, "onecut"),
    (_field_problem([M4], [0.0, 0.0, 1.0], 1e12), 2, "NoConvergence", None),
    (_field_problem([M4], [0.0, 0.0, 1.0], -1e8), 3, "VerificationFailure", "twocut-sym"),
    (_field_problem([M4], [0.0, 0.0, 1.0], -5e6), 0, None, "twocut-sym"),
    (_field_problem([A35], [0.0, 0.0, 1.0], -1.0), 0, None, "twocut-sym"),
    (_field_problem([A45], [0.0, 0.0, 1.0], -1.6), 0, None, "twocut-sym"),
    (_field_problem([A45], [0.0, 0.0, 1.0], -1.0), 0, None, "twocut-sym"),
], ids=["abs3.5+3x2", "abs3.5-5x2", "abs4.5+0.3x2", "quartic+1e12",
        "quartic-1e8", "quartic-5e6", "abs3.5-x2", "abs4.5-1.6x2", "abs4.5-x2"])
def test_auto_fallback_outcomes(tmp_path, capsys, problem, code, error, ansatz):
    """The outcome is the one that building every table at once gives:
    exit code, error kind and ansatz.  When both attempts fail, a report
    is written only if one got as far as verification; the absolute-
    power fields certify, by the one band or the mirror pair."""
    out = tmp_path / "out"
    got = main(["solve", "--problem", write_problem(tmp_path, problem),
                "--out", str(out)])
    assert got == code
    err = capsys.readouterr().err
    if error is None:
        assert err == ""
    else:
        assert json.loads(err)["error"] == error
    if ansatz is None:
        assert not (out / "report.json").exists()
    else:
        report = json.loads((out / "report.json").read_text())
        assert report["ansatz"] == ansatz
        assert report["verification"]["passed"] is (code == 0)


def test_oracle_reports_no_convergence(tmp_path, capsys, monkeypatch):
    """A construction that does not converge is named by its public
    error type in the oracle's JSON, and the oracle still runs, from
    the uniform density."""
    monkeypatch.chdir(tmp_path)
    starts, minimize = [], cli.direct_minimize
    monkeypatch.setattr(cli, "direct_minimize", lambda problem, iters, start:
                        starts.append(start) or minimize(problem, iters, start))
    problem = write_problem(tmp_path, _field_problem([M4], [0.0, 0.0, 1.0], 1e12))
    got = main(["oracle", "--problem", problem, "--grid-n", "101", "--iters", "50"])
    assert got == 0
    assert starts == [None]
    payload = json.loads(capsys.readouterr().out)
    assert payload["constructed"] == {"error": "NoConvergence: residual 1.481e-10"}
    assert payload["oracle"]["interval"] == [-2.0, 2.0]
    assert payload["comparison"] is None


def test_oracle_window_reaches_every_well(tmp_path, capsys, monkeypatch):
    """xi^8 + 100 xi^2 (xi^2 - 1)^2 on one band: the support [-0.057,
    0.057] misses the wells at +-0.990, so the window reaches each of
    them padded by the support's width, and the oracle finds the two
    side bands the one-band construction lacks."""
    monkeypatch.chdir(tmp_path)
    problem = dict(OCTIC, field=dict(OCTIC["field"], t=100.0), ansatz="onecut")
    assert main(["oracle", "--problem", write_problem(tmp_path, problem),
                 "--grid-n", "201", "--iters", "2000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    u = payload["constructed"]["endpoints"]
    assert u[0] < 0.06 and payload["constructed"]["verification"]["passed"] is False
    reach = 0.99024088583806 + u[0] - u[-1]
    assert payload["oracle"]["interval"] == pytest.approx([-reach, reach], rel=1e-12)
    assert payload["comparison"]["band_count"] == 3
    assert payload["comparison"]["l1_distance"] > 0.3


@pytest.mark.parametrize("later_fails, want", [(True, "two-band"), (False, "twocut-sym")])
def test_construct_tie_goes_to_later_attempt(monkeypatch, later_fails, want):
    """Both ansaetze converge for xi^4 - 10 xi^2.  If both density builds
    raise, the later (two-band) error wins the tie; if only the one-band
    build raises, the two-band report is returned."""

    def fails(message):
        def build(sol, field, grid_n):
            raise PrecisionLoss(message)
        return build

    monkeypatch.setattr(cli, "density", fails("one-band"))
    if later_fails:
        monkeypatch.setattr(cli, "density_symmetric", fails("two-band"))
    field = parse_problem(json.dumps(QUARTIC)).field
    try:
        name = cli._construct(field, "auto", 1e-10, 100, 101, probe_n=40)[0]
    except PrecisionLoss as exc:
        name = str(exc)
    assert name == want


X4 = PowerTerm("monomial", 4, 1.0)


def _even_field(term, t):
    return FieldSpec((term,), (0.0, 0.0, 1.0), float(t))


def _outcome(field, ansatz):
    """(ansatz, accepted) of one construction, or (error kind, None)."""
    try:
        name, _, _, _, accepted = cli._construct(field, ansatz, 1e-10, 100, 101,
                                                 probe_n=40)
        return name, accepted
    except EqmError as exc:
        return type(exc).__name__, None


@pytest.mark.parametrize("k, t_from, t_to", [(4, -0.73, -0.85), (6, -0.57, -0.69)],
                         ids=["quartic", "sextic"])
def test_auto_outcome_independent_of_try_order(k, t_from, t_to):
    """Across the one/two-band transition (quartic near t = -0.8, sextic
    near -0.64) at most one ansatz passes on its own, and auto returns
    that one.  So trying two bands first at a double well returns what
    trying one band first did."""
    term = PowerTerm("monomial", k, 1.0)
    kinds = set()
    for t in np.linspace(t_from, t_to, 7):
        field = _even_field(term, t)
        one, two = _outcome(field, "onecut"), _outcome(field, "twocut-sym")
        assert not (one[1] and two[1]), t
        passing = one if one[1] else two
        assert passing[1], t
        assert _outcome(field, "auto") == passing, t
        kinds.add(passing[0])
    assert kinds == {"onecut", "twocut-sym"}


@pytest.mark.parametrize("below", [1e-6, 1e-8])
def test_both_ansatze_certify_next_to_the_critical_tilt(tmp_path, capsys, below):
    """xi^4 + t xi^2 just below t_c = -sqrt(2/pi), where the one band
    splits in two: each forced ansatz exits 0 with a passing
    certificate, and auto returns the two bands, which it tries first
    at a double well."""
    problem = write_problem(tmp_path, _field_problem([M4], [0.0, 0.0, 1.0],
                                                     -math.sqrt(2.0 / math.pi) - below))
    for ansatz, want in [("onecut", "onecut"), ("twocut-sym", "twocut-sym"),
                         ("auto", "twocut-sym")]:
        out = tmp_path / ansatz
        assert main(["solve", "--problem", problem, "--ansatz", ansatz,
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["ansatz"] == want
        assert report["verification"]["passed"] is True
    assert capsys.readouterr().err == ""


def test_failed_reports_rank_in_canonical_order(monkeypatch):
    """xi^4 - 1e8 xi^2 fails both certificates.  The one-band table is
    built and certified after the two-band one, yet the canonically
    later two-band report is returned."""
    built = _spy(monkeypatch, cli, "density", lambda sol, field, grid_n: grid_n)
    field = _even_field(X4, -1e8)
    assert _outcome(field, "auto") == ("twocut-sym", False)
    assert built == [101]


@pytest.mark.parametrize("t", [10.0, -10.0], ids=["single-well", "double-well"])
def test_error_tie_goes_to_two_band_in_either_order(monkeypatch, t):
    """Both attempts fail at the same stage: the two-band error wins
    whether one band runs first (xi^4 + 10 xi^2) or last (xi^4 - 10 xi^2)."""
    def fails(message):
        def solve(field, tol, max_iter):
            raise NoConvergence(message)
        return solve

    monkeypatch.setattr(cli, "solve_endpoints", fails("one-band"))
    monkeypatch.setattr(cli, "solve_endpoints_symmetric", fails("two-band"))
    field = _even_field(X4, t)
    with pytest.raises(NoConvergence, match="two-band"):
        cli._construct(field, "auto", 1e-10, 100, 101, probe_n=40)


def test_double_well_solves_no_single_band(monkeypatch):
    """xi^4 - 10 xi^2 passes on two bands without a one-band Newton solve."""
    def no_solve(*args, **kwargs):
        raise AssertionError("one-band solve attempted")

    monkeypatch.setattr(cli, "solve_endpoints", no_solve)
    field = _even_field(X4, -10.0)
    assert _outcome(field, "auto") == ("twocut-sym", True)


def test_two_band_density_error_precedes_any_g1_sign_check(monkeypatch):
    """xi^6 - 3e5 xi^4: the two-band density build raises PrecisionLoss
    before any g=1 sign check could run; the only sign check is the
    one-band (g=0) one."""
    events = []
    check, build = verify.check_sign_and_gaps, cli.density_symmetric

    def spy_check(u, field):
        events.append(("check", u.g))
        return check(u, field)

    def spy_build(*args):
        try:
            return build(*args)
        except PrecisionLoss:
            events.append(("raise", "PrecisionLoss"))
            raise

    monkeypatch.setattr(verify, "check_sign_and_gaps", spy_check)
    monkeypatch.setattr(cli, "density_symmetric", spy_build)
    field = FieldSpec((PowerTerm("monomial", 6, 1.0),), (0.0,) * 4 + (1.0,), -3e5)
    assert _outcome(field, "auto") == ("onecut", False)
    assert events == [("raise", "PrecisionLoss"), ("check", 0)]


def test_shallow_double_well_stays_one_band(tmp_path, capsys):
    """xi^4 - 0.1 xi^2 has its wells off 0, so two bands run first, but
    the support is one band: auto prints what --ansatz onecut prints."""
    problem = write_problem(tmp_path, _field_problem([M4], [0.0, 0.0, 1.0], -0.1))
    assert cli.wells(_even_field(X4, -0.1))[0] != 0.0
    outs = []
    for extra in ([], ["--ansatz", "onecut"]):
        assert main(["solve", "--problem", problem, *extra]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["ansatz"] == "onecut"
    assert report["verification"]["passed"] is True


def _spy(monkeypatch, module, name, record, calls=None):
    """Replace module.name by a wrapper that appends record(*args) to
    calls (a new list unless given) before each call; returns calls."""
    calls, fn = [] if calls is None else calls, getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_two_band_sweep_row_runs_one_well_search(tmp_path, capsys, monkeypatch):
    """A sweep row of xi^4 - 1e3 xi^2 searches its field's wells once:
    the try order, the two-band seed and the certificate's probes read
    one table.  It samples only sweep-grid densities."""
    wells_module._scan.cache_clear()
    grids = _spy(monkeypatch, anchored, "_sample", lambda lf, dm, half, n, mirror: n)
    problem = write_problem(tmp_path, QUARTIC)
    code = main(["sweep", "--problem", problem, "--t-from=-1e3", "--t-to=-1e3",
                 "--steps", "1"])
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert code == 0
    assert (row[1], row[-1]) == ("twocut-sym", "pass")
    info = wells_module._scan.cache_info()
    assert (info.misses, info.currsize) == (1, 1) and info.hits >= 2
    assert grids and set(grids) == {cli._SWEEP_GRID}


def test_sweep_grid_is_5_smooth():
    """Each band of a sweep row is transformed by a real FFT of the
    sweep grid's length; with no prime factor above 5 it stays on
    pocketfft's mixed-radix path (a prime length such as 401 takes
    Bluestein's, about 3x slower).  It is odd, so the band midpoint is
    a node."""
    n = cli._SWEEP_GRID
    assert n % 2 == 1
    for p in (3, 5):
        while n % p == 0:
            n //= p
    assert n == 1


@pytest.mark.parametrize("problem, code", [
    (SEMI, 0),
    (_field_problem([M4], [0.0, 0.0, 1.0], -5e6), 0),
    (_field_problem([M4], [0.0, 0.0, 1.0], -1e8), 3),
], ids=["semicircle", "quartic-5e6", "quartic-1e8"])
def test_solve_reads_lagrange_constant_once(tmp_path, capsys, monkeypatch, problem, code):
    """eqm solve reads the Lagrange constant off the density table it
    writes: it samples one solve-grid density per attempt that reaches
    verification and no other (at xi^4 - 1e8 xi^2 both ansaetze
    converge and fail)."""
    grids = _spy(monkeypatch, anchored, "_sample", lambda lf, dm, half, n, mirror: n)
    checks = _spy(monkeypatch, cli, "check_variational", lambda *a, **k: None)
    assert main(["solve", "--problem", write_problem(tmp_path, problem)]) == code
    assert math.isfinite(json.loads(capsys.readouterr().out)["lagrange_l"])
    assert checks and grids == [cli._SOLVE_GRID] * len(checks)


def test_side_wells_with_convex_origin_try_two_bands_first(monkeypatch):
    """xi^6 - 3 xi^4 + 0.5 xi^2 has V''(0) = 1 > 0 but its global
    minimizers at +-1.383: the one well search finds them off 0, and the
    two-band attempt, which passes, runs first."""
    field = FieldSpec((PowerTerm("monomial", 6, 1.0), PowerTerm("monomial", 2, 0.5)),
                      (0.0, 0.0, 0.0, 0.0, 1.0), -3.0)
    wells_module._scan.cache_clear()
    order = []
    for name in ("solve_endpoints", "solve_endpoints_symmetric"):
        _spy(monkeypatch, cli, name, lambda *a, name=name, **k: name, order)
    assert _outcome(field, "auto") == ("twocut-sym", True)
    assert order == ["solve_endpoints_symmetric"]
    assert wells_module._scan.cache_info().misses == 1
    assert abs(float(cli.wells(field)[0])) == pytest.approx(1.3830657718, rel=1e-9)


def test_one_band_rows_of_a_symmetric_double_well_take_the_right_well():
    """|xi|^4.5 + t xi^2 for t in -1.5..-1.75 has mirror wells; every
    one-band construction at sweep settings seeds at the right-hand
    one, so u1 > 0 on all of them (argmin rounding on the full line used
    to pick either image).  auto certifies these rows as the mirror
    pair, so the one band is asked for by name."""
    right = []
    for t in np.linspace(-1.5, -1.75, 6):
        field = _even_field(PowerTerm("abs_power", 4.5, 1.0), t)
        try:
            _, _, tab, _, _ = cli._construct(field, "onecut", 1e-10, 100,
                                             cli._SWEEP_GRID, cli._SWEEP_PROBES)
        except EqmError:
            continue
        right.append(tab.endpoints_desc[0] > 0.0)
    assert len(right) >= 5 and all(right)
