"""The benchmark's own checks accept closed-form answers and reject
perturbed ones: endpoints moved by 1%, a density scaled by 1.01, a
sweep row with one endpoint changed.  Run: python3 -m pytest perfbench
"""

import math

import numpy as np
import pytest

import checks
from workloads import EVEN2, MONO4, MONO6, problem


def fmt(x):
    return f"{x:.12g}"


def rejects(fn, *args):
    with pytest.raises(checks.CheckFailed):
        fn(*args)


# ---- one band ---------------------------------------------------------


def semicircle(t=1.3):
    return problem([], EVEN2, t), 1.0 / math.sqrt(math.pi * t)


def quartic_onecut(t=50.0):
    """V = xi^4 + t xi^2, t > 0: (3 pi / 2) b^4 + pi t b^2 = 1."""
    b2 = (-math.pi * t + math.sqrt((math.pi * t) ** 2 + 6.0 * math.pi)) / (3.0 * math.pi)
    return problem([MONO4], EVEN2, t), math.sqrt(b2)


def report(ends):
    return {"ansatz": "onecut", "converged": True, "endpoints": list(ends),
            "verification": {"passed": True}}


@pytest.mark.parametrize("case", [semicircle, quartic_onecut])
def test_solve_report_accepts_exact_and_rejects_moved_endpoints(case):
    prob, b = case()
    checks.check_solve_report(prob, report([b, -b]))
    rejects(checks.check_solve_report, prob, report([1.01 * b, -1.01 * b]))
    rejects(checks.check_solve_report, prob, report([b + 0.01 * b, -b + 0.01 * b]))
    rejects(checks.check_solve_report, prob, report([1.01 * b, -b]))


def test_solve_report_rejects_failed_verification():
    prob, b = semicircle()
    bad = report([b, -b])
    bad["verification"]["passed"] = False
    rejects(checks.check_solve_report, prob, bad)


def density_csv(lo, hi, psi, n=801, scale=1.0):
    """eqm's density CSV layout: Chebyshev nodes, 12 significant digits."""
    theta = (2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n)
    xs = (0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta))[::-1]
    lines = [f"# support: {fmt(lo)},{fmt(hi)}", "# lagrange-l: 0.5", "xi,psi"]
    lines += [f"{fmt(x)},{fmt(scale * p)}" for x, p in zip(xs, psi(xs))]
    return "\n".join(lines) + "\n"


def test_density_accepts_semicircle_and_rejects_scaled_or_negative():
    t = 1.3
    prob, r = semicircle(t)
    exact = density_csv(-r, r, lambda x: checks.semicircle_density(t, x))
    checks.check_density(prob, report([r, -r]), exact)
    scaled = density_csv(-r, r, lambda x: checks.semicircle_density(t, x), scale=1.01)
    rejects(checks.check_density, prob, report([r, -r]), scaled)
    negative = exact.replace(exact.splitlines()[400].split(",")[1], "-1e-3")
    rejects(checks.check_density, prob, report([r, -r]), negative)
    rejects(checks.check_density, prob, report([1.01 * r, -1.01 * r]), exact)


def test_density_mass_check_without_closed_form():
    prob, b = quartic_onecut()
    t = prob["field"]["t"]
    psi = lambda x: (4.0 * x * x + 2.0 * t + 2.0 * b * b) * np.sqrt(b * b - x * x)
    checks.check_density(prob, report([b, -b]), density_csv(-b, b, psi))
    rejects(checks.check_density, prob, report([b, -b]), density_csv(-b, b, psi, scale=1.01))


# ---- mirror pairs (sweep rows) ----------------------------------------


def sextic_twocut(t):
    """V = xi^6 + t xi^2: 2W' = 6 s^2 + 2t on [m - h, m + h] with
    6 m^2 + 3 h^2 + 2 t = 0 and 6 pi m h^2 = 1."""
    roots = np.roots([12.0 * math.pi, 0.0, 4.0 * math.pi * t, 1.0])
    m = max(r.real for r in roots if abs(r.imag) < 1e-12)
    h = math.sqrt(1.0 / (6.0 * math.pi * m))
    return math.sqrt(m + h), math.sqrt(m - h)


def row(t, u1, u2, exponent):
    s = abs(t) ** exponent
    u = [fmt(u1), fmt(u2), fmt(-u2), fmt(-u1)]
    scaled = [fmt(float(c) / s) for c in u]
    return ",".join([fmt(t), "twocut-sym", "1", *u, *scaled, "pass"])


@pytest.mark.parametrize("vstar,exact,exponent,ts", [
    ([MONO4], checks.quartic_twocut_endpoints, 0.5, [-10.0, -1e3, -1e6]),
    ([MONO6], sextic_twocut, 0.25, [-10.0, -1e2, -1e4]),
])
def test_sweep_accepts_exact_rows_and_rejects_one_changed_endpoint(vstar, exact, exponent, ts):
    field = problem(vstar, EVEN2, ts[0])["field"]
    for t in ts:
        u1, u2 = exact(t)
        checks.check_sweep_row(field, row(t, u1, u2, exponent), t, exponent)
        rejects(checks.check_sweep_row, field, row(t, 1.01 * u1, u2, exponent), t, exponent)
        rejects(checks.check_sweep_row, field, row(t, u1, 1.01 * u2, exponent), t, exponent)
        cells = row(t, u1, u2, exponent).split(",")
        cells[3] = fmt(1.01 * u1)  # u1 changed alone: no longer mirrored
        rejects(checks.check_sweep_row, field, ",".join(cells), t, exponent)


def test_sweep_rejects_missing_rows_and_wrong_ansatz():
    prob = problem([MONO4], EVEN2, -10.0)
    rows = [row(t, *checks.quartic_twocut_endpoints(t), 0.5) for t in (-10.0, -100.0)]
    text = "\n".join([checks.SWEEP_HEADER, *rows]) + "\n"
    checks.check_sweep(prob, -10.0, -100.0, 2, 0.5, text)
    rejects(checks.check_sweep, prob, -10.0, -1000.0, 3, 0.5, text)
    rejects(checks.check_sweep, prob, -10.0, -100.0, 2, 0.5, text.replace("twocut-sym", "onecut", 1))


# ---- oracle -----------------------------------------------------------


def oracle_output(prob, ends, scale=1.0, n=2001):
    density, bands = checks.reference_measure(prob)
    lo, hi = bands[0][0], bands[-1][1]
    a, b = 1.5 * lo - 0.5 * hi, 1.5 * hi - 0.5 * lo
    grid = np.linspace(a, b, n)
    psi = density(grid)
    psi *= scale / (np.sum(psi) * (b - a) / (n - 1))
    obj = {
        "constructed": {"endpoints": list(ends), "verification": {"passed": True}},
        "oracle": {"interval": [a, b], "grid_n": n, "converged": True},
    }
    csv = "xi,psi\n" + "".join(f"{fmt(x)},{fmt(p)}\n" for x, p in zip(grid, psi))
    return obj, csv


@pytest.mark.parametrize("t", [1.3, -10.0])
def test_oracle_accepts_closed_form_and_rejects_perturbations(t):
    prob = problem([] if t > 0 else [MONO4], EVEN2, t)
    _, bands = checks.reference_measure(prob)
    ends = sorted(x for band in bands for x in band)
    checks.check_oracle(prob, *oracle_output(prob, ends))
    rejects(checks.check_oracle, prob, *oracle_output(prob, ends, scale=1.01))
    rejects(checks.check_oracle, prob, *oracle_output(prob, [1.01 * x for x in ends]))
    obj, csv = oracle_output(prob, ends)
    obj["oracle"]["converged"] = False
    rejects(checks.check_oracle, prob, obj, csv)


def test_oracle_rejects_shifted_minimizer():
    prob = problem([], EVEN2, 1.3)
    _, bands = checks.reference_measure(prob)
    ends = [bands[0][0], bands[0][1]]
    obj, csv = oracle_output(prob, ends)
    lines = csv.splitlines()
    shifted = [lines[0]] + [
        f"{a.split(',')[0]},{b.split(',')[1]}" for a, b in zip(lines[1:], lines[1 + 8:] + lines[1:1 + 8])
    ]
    rejects(checks.check_oracle, prob, obj, "\n".join(shifted) + "\n")
