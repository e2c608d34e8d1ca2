"""Command-line interface: exit codes, formats, determinism."""

import json
import os
import platform
import subprocess
import sys

import pytest

import eqm
from eqm import cli, verify
from eqm.cli import emit_problem, main, parse_problem
from eqm.errors import PrecisionLoss

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

# |xi|^3.5 + 3 xi^2: the one-band solve converges but its density misses
# unit mass; the two-band fallback does not converge
ABS35 = {
    "field": {
        "vstar": [{"kind": "abs_power", "a": 3.5, "c": 1.0}],
        "p": {"coeffs": [0.0, 0.0, 1.0]},
        "t": 3.0,
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
    problem = write_problem(tmp_path, ABS35)
    code = main(["solve", "--problem", problem])
    err = json.loads(capsys.readouterr().err)
    assert code == 3
    assert err["error"] == "PrecisionLoss"
    assert err["message"].startswith("band mass 0.9999974")
    assert err["message"].endswith("deviates from 1")
    code = main(["sweep", "--problem", problem, "--t-from", "3",
                 "--t-to", "3", "--steps", "1"])
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


@pytest.mark.parametrize(
    "field_text, reason",
    [
        ('{"vstar": [], "p": {"coeffs": [0.0, 0.0, 1.0]}, "t": -1.0}', "confine"),
        ('{"vstar": [], "p": {"coeffs": [0.0, 0.0, 1.0]}, "t": NaN}', "finite"),
        ('{"vstar": [], "p": {"coeffs": [0.0, 0.0, 1.0]}, "t": Infinity}', "finite"),
    ],
    ids=["nonconfining", "t-nan", "t-infinity"],
)
def test_invalid_field_exits_4(tmp_path, capsys, field_text, reason):
    path = tmp_path / "problem.json"
    path.write_text('{"field": ' + field_text + "}")
    code = main(["solve", "--problem", str(path)])
    err = json.loads(capsys.readouterr().err)
    assert code == 4
    assert err["error"] == "ParseError"
    assert reason in err["message"]


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
    ],
    ids=["empty-band", "reversed-band", "two-commas", "no-comma",
         "bad-lagrange", "overlapping-bands", "row-outside-support",
         "psi-nan", "xi-inf", "psi-inf-no-header"],
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
     '{"max_iter": Infinity}'],
    ids=["tol-nan", "tol-0", "tol-negative", "max-iter-0", "max-iter-inf"],
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
    """The one-band attempt fails its sign checks, so its density is
    never sampled once the two-band attempt passes."""
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
    assert checked == [0, 1]  # one sign check per attempt


M4 = {"kind": "monomial", "k": 4, "c": 1.0}
A35 = {"kind": "abs_power", "a": 3.5, "c": 1.0}
A45 = {"kind": "abs_power", "a": 4.5, "c": 1.0}


def _field_problem(vstar, coeffs, t):
    return {"field": {"vstar": vstar, "p": {"coeffs": coeffs}, "t": t},
            "ansatz": "auto"}


@pytest.mark.parametrize("problem, code, error, ansatz", [
    (_field_problem([A35], [0.0, 0.0, 1.0], 3.0), 3, "PrecisionLoss", None),
    (_field_problem([A35], [0.0, 0.0, 1.0], -5.0), 3, "VerificationFailure", "onecut"),
    (_field_problem([A45], [0.0, 0.0, 1.0], 0.3), 3, "PrecisionLoss", None),
    (_field_problem([M4], [0.0, 0.0, 1.0], 1e12), 2, "NoConvergence", None),
    (_field_problem([M4], [0.0, 0.0, 1.0], -5e6), 3, "VerificationFailure", "twocut-sym"),
], ids=["abs3.5+3x2", "abs3.5-5x2", "abs4.5+0.3x2", "quartic+1e12",
        "quartic-5e6"])
def test_auto_fallback_outcomes(tmp_path, capsys, problem, code, error, ansatz):
    """When both attempts fail, the outcome is the one that building
    every table at once gives: exit code, error kind and ansatz."""
    out = tmp_path / "out"
    got = main(["solve", "--problem", write_problem(tmp_path, problem),
                "--out", str(out)])
    assert got == code
    assert json.loads(capsys.readouterr().err)["error"] == error
    if ansatz is None:
        assert not (out / "report.json").exists()
    else:
        report = json.loads((out / "report.json").read_text())
        assert report["ansatz"] == ansatz
        assert report["verification"]["passed"] is False


@pytest.mark.parametrize("later_fails, want", [(True, "two-band"), (False, "twocut-sym")])
def test_construct_tie_goes_to_later_attempt(monkeypatch, later_fails, want):
    """Both ansaetze converge for xi^4 - 10 xi^2 and the one-band sign
    checks fail.  If both density builds then raise, the later (two-band)
    error wins the tie; if only the one-band build raises, the two-band
    report is returned."""

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
