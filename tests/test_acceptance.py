"""Acceptance suite: one test per shipped guarantee.

Each test prints a single CRITERION line so a verbose run reads as a
checklist.  Closed-form targets (semicircle radius, quartic two-cut
endpoints, scaling constants) were frozen before the solvers existed.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from eqm import onecut, oracle, rhp, twocut, verify
from eqm.density import Band, DensityTable
from eqm.epd import EpdSpec, epd_residual, phi_eval, phi_eval_grad
from eqm.field import FieldSpec, PowerTerm
from eqm.wells import global_minimizer

from conftest import quartic_field, semicircle_field, sextic_field


def _monomial(k):
    return FieldSpec(
        vstar=(PowerTerm("monomial", float(k), 1.0),),
        p_coeffs=(0.0, 1.0),
        t=0.0,
    )


def test_criterion_01_semicircle_exactness():
    for t in (0.5, 1.0, 2.0):
        start = time.monotonic()
        field = semicircle_field(t)
        sol = onecut.solve_endpoints(field)
        tab = onecut.density(sol, field, 2000)
        elapsed = time.monotonic() - start
        radius = 1.0 / math.sqrt(math.pi * t)
        assert abs(sol.u1 - radius) < 1e-8
        assert abs(sol.u2 + radius) < 1e-8
        center = 2.0 * math.sqrt(t / math.pi)
        psi0 = float(tab.interp(np.array([0.0]))[0])
        assert abs(psi0 - center) < 1e-6 * center
        assert elapsed < 1.0, f"t={t}: {elapsed:.2f}s"
    print("CRITERION 1: PASS (endpoints 1e-8 abs, psi(0) 1e-6 rel, <1s/case)")


def test_criterion_02_quartic_twocut_exactness():
    start = time.monotonic()
    sol = twocut.solve_endpoints_symmetric(quartic_field(-10.0))
    elapsed = time.monotonic() - start
    assert sol.converged
    assert abs(sol.u1 ** 2 + sol.u2 ** 2 - 10.0) < 1e-6
    assert abs(sol.u1 ** 2 - sol.u2 ** 2 - math.sqrt(2.0 / math.pi)) < 1e-6
    assert elapsed < 5.0, f"{elapsed:.2f}s"
    print("CRITERION 2: PASS (u1^2+u2^2=10, u1^2-u2^2=sqrt(2/pi), <5s)")


def test_criterion_03_sextic_scaling():
    start = time.monotonic()
    limit = 0.5 ** (1.0 / 3.0)
    devs, widths = [], []
    for t in (-1e2, -1e4, -1e6):
        field = sextic_field(t)
        sol = onecut.solve_endpoints(field)
        assert sol.converged
        assert len(sol.endpoint_vector().gaps) == 0
        tab = onecut.density(sol, field, 600)
        rep = verify.check_variational(tab, field)
        assert rep.passed(), f"t={t}: {rep.as_dict()}"
        scale = abs(t) ** (1.0 / 3.0)
        devs.append(
            max(abs(sol.u1 / scale - limit), abs(sol.u2 / scale - limit))
        )
        widths.append(sol.u1 - sol.u2)
    elapsed = time.monotonic() - start
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.01 * limit
    assert widths[0] > widths[1] > widths[2]
    assert elapsed < 30.0, f"{elapsed:.2f}s"
    print(
        "CRITERION 3: PASS (scaled deviation down to "
        f"{devs[2] / limit:.2e} rel, width shrinking, verified, <30s)"
    )


def test_criterion_04_quartic_negative_scaling(solved_configs):
    limit = 1.0 / math.sqrt(2.0)
    final_dev = None
    for t in (-10.0, -100.0, -10000.0):
        cfg = solved_configs[f"quartic_t{t:g}"]
        assert len(cfg.endpoint_vector.gaps) == 1
        scale = math.sqrt(abs(t))
        dev = max(abs(abs(x) / scale - limit) for x in cfg.endpoint_vector.u)
        if t == -10000.0:
            final_dev = dev
    assert final_dev < 0.01 * limit
    print(
        "CRITERION 4: PASS (gap count 1 each, scaled endpoints at "
        f"{final_dev / limit:.2e} rel from 1/sqrt(2))"
    )


def test_criterion_05_quartic_positive_convex(solved_configs):
    cfg = solved_configs["quartic_t1e4"]
    assert len(cfg.endpoint_vector.gaps) == 0
    want = 1.0 / math.sqrt(math.pi)
    got = cfg.solution.u1 * math.sqrt(1e4)
    assert abs(got - want) < 0.01 * want
    print(
        "CRITERION 5: PASS (gap count 0, u1*sqrt(t) = "
        f"{got:.6f} vs 1/sqrt(pi) = {want:.6f})"
    )


def test_criterion_06_epd_property_suite():
    rng = np.random.default_rng(11)
    fields = [_monomial(4), sextic_field(-2.0), quartic_field(1.5)]
    for field in fields:
        spec = EpdSpec(0, "phi", field)
        for _ in range(20):
            u1 = rng.uniform(0.5, 1.5)
            u2 = u1 - rng.uniform(0.5, 1.5)
            xi = rng.uniform(-2.0, 2.0)
            scale = max(1.0, abs(phi_eval(spec, xi, (u1, u2))))
            for i, j in ((0, 1), (1, 2)):
                r2 = abs(epd_residual(spec, xi, (u1, u2), i, j, 1e-2))
                r3 = abs(epd_residual(spec, xi, (u1, u2), i, j, 1e-3))
                assert r3 < 0.05 * r2 + 1e-9 * scale

    quartic = _monomial(4)
    val = phi_eval(EpdSpec(0, "phi", quartic), 1.0, (1.0, 1.0))
    assert abs(val - 6.0) < 1e-9
    val = phi_eval(EpdSpec(1, "phi", quartic), 1.0, (1.0,) * 4)
    assert abs(val - 6.0) < 1e-9
    val = phi_eval(EpdSpec(0, "psi", _monomial(2)), 1.0, (1.0, 1.0))
    assert abs(val - 1.0) < 1e-9
    val = phi_eval(EpdSpec(1, "psi", quartic), 0.5, (0.5,) * 4)
    assert abs(val - 0.75) < 1e-9

    field = sextic_field(-3.0)
    spec = EpdSpec(0, "psi", field)
    u1, u2 = 1.4, -0.6
    a = phi_eval(spec, u1, (u1, u2))
    b = phi_eval(spec, u2, (u1, u2))
    _, grad = phi_eval_grad(spec, u1, (u1, u2))
    assert abs(a - b - 2.0 * (u1 - u2) * grad[2]) < 1e-7 * max(1.0, abs(a))

    for g, field, xi, u in (
        (0, sextic_field(-2.0), 2.2, (1.1, -0.7)),
        (1, quartic_field(-6.0), 2.8, (2.0, 1.7, -1.6, -2.1)),
    ):
        phi = phi_eval(EpdSpec(g, "phi", field), xi, u)
        psi_spec = EpdSpec(g, "psi", field)
        val, grad = phi_eval_grad(psi_spec, xi, u)
        acc = grad[0]
        for ui in u:
            acc += 0.5 * (val - phi_eval(psi_spec, ui, u)) / (xi - ui)
        assert abs(phi - acc) < 1e-7 * max(1.0, abs(phi))

    lam = 1.7
    for k, g in ((4, 0), (6, 0), (4, 1)):
        field = _monomial(k)
        u = (1.2, 0.3, -0.5, -1.1)[: 2 * g + 2]
        for which, drop in (("phi", g + 2), ("psi", g + 1)):
            spec = EpdSpec(g, which, field)
            base = phi_eval(spec, 0.8, u)
            scaled = phi_eval(spec, lam * 0.8, tuple(lam * x for x in u))
            assert scaled == pytest.approx(lam ** (k - drop) * base, rel=1e-10)
    print(
        "CRITERION 6: PASS (O(h^2) decay at 20 pts x 3 fields, diagonals "
        "1e-9, identities 1e-7, homogeneity 1e-10)"
    )


def test_criterion_07_q_identically_zero(solved_configs):
    worst, worst_pert = 0.0, math.inf
    for name, cfg in solved_configs.items():
        u = cfg.endpoint_vector
        q = rhp.q_polynomial(u, cfg.field)
        assert q.max_abs_coefficient < 1e-7, name
        worst = max(worst, q.max_abs_coefficient)
        perturbed = rhp.EndpointVector(u.g, tuple(1.01 * x for x in u.u))
        qp = rhp.q_polynomial(perturbed, cfg.field)
        assert qp.max_abs_coefficient > 1e-3, name
        worst_pert = min(worst_pert, qp.max_abs_coefficient)
    print(
        f"CRITERION 7: PASS (max |Q coeff| {worst:.2e} across 10 configs; "
        f"1% perturbation lifts it to >= {worst_pert:.2e})"
    )


def test_criterion_08_oracle_equivalence():
    cases = [
        ("semicircle t=0.5", semicircle_field(0.5), "onecut", (-1.0, 1.0)),
        ("semicircle t=1", semicircle_field(1.0), "onecut", (-1.0, 1.0)),
        ("semicircle t=2", semicircle_field(2.0), "onecut", (-1.0, 1.0)),
        ("quartic t=-10", quartic_field(-10.0), "twocut", (-3.0, 3.0)),
    ]
    for name, field, kind, (a, b) in cases:
        start = time.monotonic()
        if kind == "onecut":
            sol = onecut.solve_endpoints(field)
            tab = onecut.density(sol, field, 800)
            want_bands = 1
        else:
            sol = twocut.solve_endpoints_symmetric(field)
            tab = twocut.density_symmetric(sol, field, 800)
            want_bands = 2
        problem = oracle.discretize(field, a, b, 2001)
        result = oracle.direct_minimize(problem, iters=40000)
        metrics = oracle.compare(tab, result)
        elapsed = time.monotonic() - start
        assert metrics["l1_distance"] < 2e-2, name
        assert metrics["band_count"] == want_bands, name
        assert metrics["edge_error"] <= 2.0 * problem.h, name
        assert metrics["active_gradient_spread"] < 1e-3, name
        assert metrics["inactive_gradient_margin"] > -1e-3, name
        assert elapsed < 120.0, f"{name}: {elapsed:.1f}s"
    print(
        "CRITERION 8: PASS (N=2001 minimizer: L1 < 2e-2, band count and "
        "edges match, complementarity holds, <2min each)"
    )


def test_criterion_09_variational_certification(solved_configs):
    for name, cfg in solved_configs.items():
        rep = cfg.report
        assert rep.passed(), name
        assert rep.equality_deviation < 1e-6, name
        assert rep.inequality_margin > -1e-8, name

    base = solved_configs["semicircle_t1"]
    bands = [
        Band(b.lo, b.hi, b.xs.copy(), 1.01 * b.psis)
        for b in base.table.bands
    ]
    bad = DensityTable(bands, base.table.lagrange_l)
    assert not verify.check_variational(bad, base.field).passed()

    field = quartic_field(-10.0)
    sol = onecut.solve_endpoints(field)
    assert sol.converged
    tab = onecut.density(sol, field, 400)
    rep = verify.check_variational(tab, field)
    assert not rep.passed()
    print(
        "CRITERION 9: PASS (10 reports certify; mis-scaled and "
        "wrong-ansatz densities both rejected)"
    )


def test_criterion_10_wells_inside_support(solved_configs):
    def inside(bands, point):
        return any(lo <= point <= hi for lo, hi in bands)

    for key in ("sextic_t-100", "sextic_t-10000", "sextic_t-1e+06"):
        cfg = solved_configs[key]
        well = float(global_minimizer(cfg.field)[0])
        assert inside(cfg.endpoint_vector.bands, well), key

    for key in ("quartic_t-10", "quartic_t-100", "quartic_t-10000"):
        cfg = solved_configs[key]
        well = float(global_minimizer(cfg.field, positive=True)[0])
        bands = cfg.endpoint_vector.bands
        assert inside(bands, well), key
        assert inside(bands, -well), key

    cfg = solved_configs["quartic_t1e4"]
    assert inside(cfg.endpoint_vector.bands, 0.0)
    print("CRITERION 10: PASS (every potential well sits inside the support)")


def test_criterion_11_sweep_determinism(tmp_path):
    problem = {
        "field": {
            "vstar": [{"kind": "monomial", "k": 4, "c": 1.0}],
            "p": {"coeffs": [0.0, 0.0, 1.0]},
            "t": -10.0,
        },
        "ansatz": "auto",
        "solver": {"max_iter": 100, "tol": 1e-10},
    }
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps(problem))
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [
                sys.executable, "-m", "eqm.cli", "sweep",
                "--problem", str(path),
                "--t-from", "-10", "--t-to", "-10000",
                "--steps", "5", "--log",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    rows = outputs[0].strip().splitlines()
    assert len(rows) == 6
    print("CRITERION 11: PASS (two fresh processes: byte-identical CSV)")
