"""Discretized direct minimizer: projection, energy, comparisons."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from eqm import cli, onecut, oracle, twocut
from eqm.field import FieldSpec, PowerTerm
from eqm.wells import wells

from conftest import quartic_field, semicircle_field, semicircle_radius
from test_golden import DUMP_ORACLES, _problem
from test_wells import _polynomial_fields


def test_fast_len_matches_scipy():
    for n in range(1, 10001):
        assert oracle._fast_len(n) == next_fast_len(n, real=True), n


def fixed_step_pgd(problem, iters=50000):
    """The fixed-step projected gradient descent the minimizer replaced:
    steps of 1/L from the uniform density until one moves the iterate by
    less than 1e-10."""
    step = 1.0 / oracle._lipschitz(problem)
    total = 1.0 / problem.h
    psi = np.full(problem.n, total / problem.n)
    for _ in range(iters):
        candidate = oracle._project_scaled_simplex(
            psi - step * problem.gradient(psi), total
        )
        residual = float(np.linalg.norm(candidate - psi))
        psi = candidate
        if residual < 1e-10:
            return psi
    raise AssertionError("reference PGD did not converge")


def pgd_step_residual(problem, psi):
    """How far one plain projected-gradient step of size 1/L moves psi."""
    step = 1.0 / oracle._lipschitz(problem)
    moved = oracle._project_scaled_simplex(
        psi - step * problem.gradient(psi), 1.0 / problem.h
    )
    return float(np.linalg.norm(moved - psi))


def _shifted(problem, c):
    problem.potential += c
    return problem


N301_CASES = {
    "semicircle t=1": lambda: oracle.discretize(semicircle_field(1.0), -1.0, 1.0, 301),
    "quartic t=-10": lambda: oracle.discretize(quartic_field(-10.0), -3.0, 3.0, 301),
    "semicircle t=1, V+5": lambda: _shifted(
        oracle.discretize(semicircle_field(1.0), -1.0, 1.0, 301), 5.0
    ),
}


def test_matvec_matches_dense():
    # odd and even n; 2n - 1 = 4001 embeds in 4050, not 2n = 4002
    rng = np.random.default_rng(3)
    for n in (257, 2000, 2001):
        prob = oracle.discretize(semicircle_field(1.0), -1.0, 1.0, n)
        v = rng.standard_normal(prob.n)
        np.testing.assert_allclose(prob.matvec(v), prob.kernel @ v, rtol=0.0, atol=1e-10)
        block = rng.standard_normal((prob.n, 2))
        np.testing.assert_allclose(prob.matvec(block), prob.kernel @ block,
                                   rtol=0.0, atol=1e-10)


def test_simplex_projection_properties():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(200)
    total = 37.5
    p = oracle._project_scaled_simplex(v, total)
    assert np.all(p >= 0.0)
    assert np.sum(p) == pytest.approx(total, rel=1e-12)
    # projection is idempotent
    np.testing.assert_allclose(oracle._project_scaled_simplex(p, total), p, atol=1e-12)
    # feasible points project to themselves
    q = np.abs(rng.standard_normal(50))
    q *= total / q.sum()
    np.testing.assert_allclose(oracle._project_scaled_simplex(q, total), q, atol=1e-12)


def test_energy_gradient_consistency():
    field = semicircle_field(1.0)
    prob = oracle.discretize(field, -1.0, 1.0, 101)
    rng = np.random.default_rng(11)
    psi = np.abs(rng.standard_normal(prob.n))
    psi /= prob.h * psi.sum()
    d = rng.standard_normal(prob.n)
    eps = 1e-6
    fd = (prob.energy(psi + eps * d) - prob.energy(psi - eps * d)) / (2 * eps)
    assert fd == pytest.approx(prob.h * float(prob.gradient(psi) @ d), rel=1e-5)


def test_semicircle_oracle_agreement():
    field = semicircle_field(1.0)
    sol = onecut.solve_endpoints(field)
    tab = onecut.density(sol, field, 400)
    prob = oracle.discretize(field, -1.0, 1.0, 801)
    res = oracle.direct_minimize(prob)
    assert res.converged
    metrics = oracle.compare(tab, res)
    assert metrics["l1_distance"] < 2e-2
    assert metrics["band_count"] == 1
    assert metrics["edge_error"] < 2.0 * prob.h
    assert metrics["optimality_gap"] > -1e-8
    assert metrics["active_gradient_spread"] < 1e-3
    assert metrics["inactive_gradient_margin"] > -1e-3
    # multiplier approximates -l
    assert metrics["multiplier"] == pytest.approx(-tab.lagrange_l, abs=5e-3)


def test_quartic_oracle_band_detection():
    field = quartic_field(-10.0)
    sol = twocut.solve_endpoints_symmetric(field)
    tab = twocut.density_symmetric(sol, field, 400)
    prob = oracle.discretize(field, -3.0, 3.0, 1001)
    res = oracle.direct_minimize(prob)
    metrics = oracle.compare(tab, res)
    assert metrics["band_count"] == 2
    assert metrics["edge_error"] < 2.0 * prob.h
    assert metrics["optimality_gap"] > -1e-8
    assert metrics["active_gradient_spread"] < 1e-3
    assert metrics["inactive_gradient_margin"] > -1e-3


def test_energy_shift_invariance_of_minimizer():
    # adding a constant to V shifts energies, not the minimizer
    f0 = semicircle_field(1.0)
    prob0 = oracle.discretize(f0, -1.0, 1.0, 301)
    res0 = oracle.direct_minimize(prob0, iters=20000)
    prob1 = oracle.discretize(f0, -1.0, 1.0, 301)
    prob1.potential += 5.0
    res1 = oracle.direct_minimize(prob1, iters=20000)
    np.testing.assert_allclose(res0.psi, res1.psi, atol=1e-8)


def test_not_converged_flag():
    field = semicircle_field(1.0)
    prob = oracle.discretize(field, -1.0, 1.0, 301)
    res = oracle.direct_minimize(prob, iters=3)
    assert not res.converged
    assert res.iterations == 3


@pytest.mark.parametrize("case", sorted(N301_CASES))
def test_matches_fixed_step_pgd(case):
    prob = N301_CASES[case]()
    res = oracle.direct_minimize(prob)
    ref = fixed_step_pgd(N301_CASES[case]())
    assert res.converged
    assert prob.h * float(np.sum(np.abs(res.psi - ref))) <= 1e-8
    assert abs(prob.energy(res.psi) - prob.energy(ref)) <= 1e-12
    if case.startswith("quartic"):
        assert len(oracle._detect_bands(prob.grid, res.psi, 1e-4)) == 2


@settings(max_examples=20, derandomize=True, database=None, deadline=1000)
@given(field=_polynomial_fields(top=1), n=st.integers(31, 301))
@example(field=FieldSpec((PowerTerm("monomial", 4, 1.0),), (0.0, 0.0, 0.0, 1.0), -10.0), n=32)
def test_matches_fixed_step_pgd_on_generated_fields(field, n):
    """Confining polynomial fields of degree <= 8 with even or odd tilts
    t = +-0.1, 1 or 10, on a window one unit beyond their outer wells.
    The energies are compared at equal mass: masses that differ by
    rounding (about 1e-14) move the energy by the multiplier mu times
    that, 3e-11 for xi^4 - 10 xi^3 (mu = -1053)."""
    xs = [float(x) for x in wells(field)]
    prob = oracle.discretize(field, min(xs) - 1.0, max(xs) + 1.0, n)
    res = oracle.direct_minimize(prob)
    ref = fixed_step_pgd(prob)
    assert res.converged
    assert prob.h * float(np.sum(np.abs(res.psi - ref))) <= 1e-8
    mu = float(np.mean(prob.gradient(res.psi)[res.psi > 0.0]))
    mass = prob.h * (float(np.sum(res.psi)) - float(np.sum(ref)))
    assert abs(prob.energy(res.psi) - prob.energy(ref) - mu * mass) <= 1e-12


@pytest.mark.parametrize("case", sorted(N301_CASES))
def test_returned_iterate_is_certified(case):
    prob = N301_CASES[case]()
    res = oracle.direct_minimize(prob)
    assert res.converged
    assert res.iterations < 1000
    assert np.all(res.psi >= 0.0)
    # the reported residual is the step from the returned iterate itself
    assert pgd_step_residual(prob, res.psi) == res.residual < 1e-10
    assert abs(prob.h * float(np.sum(res.psi)) - 1.0) <= 1e-13


@pytest.mark.parametrize("case", ["quartic t=-10", "semicircle t=1"])
def test_restarted_fista_alone_converges(monkeypatch, case):
    # every active-set solve rejected: FISTA with restart must finish
    # alone, well inside the ~3100-3500 steps fixed-step PGD takes here
    prob = N301_CASES[case]()
    monkeypatch.setattr(oracle, "_active_set_solve", lambda p, a: -np.ones(p.n))
    res = oracle.direct_minimize(prob)
    assert res.converged
    assert res.iterations < 1000
    assert np.all(res.psi >= 0.0)
    assert pgd_step_residual(prob, res.psi) == res.residual < 1e-10
    ref = fixed_step_pgd(N301_CASES[case]())
    assert prob.h * float(np.sum(np.abs(res.psi - ref))) <= 1e-8


def test_iterations_never_exceed_budget():
    prob = oracle.discretize(quartic_field(-10.0), -3.0, 3.0, 301)
    full = oracle.direct_minimize(prob)
    for budget in (1, oracle._ACTIVE_HOLD, full.iterations - 1):
        res = oracle.direct_minimize(prob, iters=budget)
        assert res.iterations == budget
        assert not res.converged
        assert abs(prob.h * float(np.sum(res.psi)) - 1.0) <= 1e-13
    res = oracle.direct_minimize(prob, iters=full.iterations)
    assert res.converged
    np.testing.assert_array_equal(res.psi, full.psi)


def _spy_solves(monkeypatch, prob, negative):
    """Record (gradients taken on prob so far, set) at each active-set
    solve, and put -1e-3 on the first node of solve k's set when
    negative(k)."""
    real = oracle._active_set_solve
    steps, calls = [], []
    gradient = prob.gradient

    def counting_gradient(psi):
        steps.append(1)
        return gradient(psi)

    def spy(problem, active):
        psi = real(problem, active)
        calls.append((len(steps), active.copy()))
        if negative(len(calls)):
            psi[np.flatnonzero(active)[0]] = -1e-3
        return psi

    monkeypatch.setattr(prob, "gradient", counting_gradient)
    monkeypatch.setattr(oracle, "_active_set_solve", spy)
    return calls


def test_negative_active_set_solve_is_rejected(monkeypatch):
    prob = oracle.discretize(semicircle_field(1.0), -1.0, 1.0, 301)
    # on the whole grid the equality-constrained minimizer goes negative
    whole = oracle._active_set_solve(prob, np.ones(prob.n, dtype=bool))
    assert whole.min() < 0.0
    clean = oracle.direct_minimize(prob)

    # a rejected solve is re-solved at once, one gradient of it later, on
    # the set its KKT signs give: the negative node leaves the set
    prob = oracle.discretize(semicircle_field(1.0), -1.0, 1.0, 301)
    calls = _spy_solves(monkeypatch, prob, lambda k: k == 1)
    res = oracle.direct_minimize(prob)
    (step0, set0), (step1, set1) = calls[:2]
    assert step1 == step0 + 1
    assert step0 >= oracle._ACTIVE_HOLD
    assert set0[np.flatnonzero(set0)[0]] and not set1[np.flatnonzero(set0)[0]]
    assert res.converged
    assert np.all(res.psi >= 0.0)
    assert prob.h * float(np.sum(np.abs(res.psi - clean.psi))) <= 1e-8

    # every solve rejected: each pass stops at a repeated or empty set,
    # no set twice in a row, and FISTA converges alone
    prob = oracle.discretize(semicircle_field(1.0), -1.0, 1.0, 301)
    calls = _spy_solves(monkeypatch, prob, lambda k: True)
    alone = oracle.direct_minimize(prob)
    assert 2 <= len(calls) < 20
    assert all(not np.array_equal(a, b) for (_, a), (_, b) in zip(calls, calls[1:]))
    assert alone.converged
    assert alone.iterations < 1000
    assert np.all(alone.psi >= 0.0)
    assert pgd_step_residual(prob, alone.psi) == alone.residual < 1e-10
    assert prob.h * float(np.sum(np.abs(alone.psi - clean.psi))) <= 1e-8

    # stop right after the first rejected pass: the iterate is FISTA's,
    # as if no solve had been tried
    first = calls[0][0]
    calls.clear()
    cut = oracle.direct_minimize(prob, iters=first)
    assert len(calls) >= 2
    assert not cut.converged
    assert np.all(cut.psi >= 0.0)
    monkeypatch.setattr(oracle, "_primal_dual_active_set", lambda p, a: None)
    plain = oracle.direct_minimize(prob, iters=first)
    np.testing.assert_array_equal(cut.psi, plain.psi)


def _spied_dump_run(tmp_path, monkeypatch, name):
    """One DUMP_ORACLES run of `eqm oracle` at N = 2001: its printed
    JSON, the problem, start and result of its one minimizer call, and
    the constructed table the comparison read."""
    vstar, p, t, ansatz = DUMP_ORACLES[name]
    path = _problem(str(tmp_path), name, vstar, p, t, ansatz)
    runs, tables = [], []
    minimize, compare = oracle.direct_minimize, oracle.compare

    def spy_minimize(problem, iters, start=None):
        runs.append((problem, start, minimize(problem, iters=iters, start=start)))
        return runs[-1][2]

    monkeypatch.setattr(cli, "direct_minimize", spy_minimize)
    monkeypatch.setattr(cli, "compare",
                        lambda table, result: tables.append(table) or compare(table, result))
    monkeypatch.chdir(tmp_path)  # where the oracle writes oracle-density.csv
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["oracle", "--problem", path, "--grid-n", "2001",
                         "--iters", "40000"]) == 0
    (prob, start, res), = runs
    table, = tables
    return json.loads(out.getvalue()), prob, start, res, table


@pytest.mark.parametrize("name", sorted(DUMP_ORACLES))
def test_dump_oracles_take_few_steps_and_solves(tmp_path, monkeypatch, name):
    """The N = 2001 runs of `eqm oracle` in the golden dump: 12-14 FISTA
    steps from a certified construction (40-46 from the uniform density),
    59 from the uniform density after the octic's one-band construction
    failed its certificate, with at most 3 active-set solves each (at a
    hold of 30 with one solve per set they took 104-207 from the uniform
    density), returning an exact solve on the final set, bit for bit."""
    solves = []
    solve = oracle._active_set_solve
    monkeypatch.setattr(oracle, "_active_set_solve",
                        lambda problem, active: solves.append(1) or solve(problem, active))
    printed, prob, start, res, _ = _spied_dump_run(tmp_path, monkeypatch, name)
    certified = printed["constructed"]["verification"]["passed"]
    assert certified is (name != "oracle-octic-onecut-t100")
    assert (start is not None) is certified
    assert res.converged
    assert res.iterations <= (16 if certified else 64)
    assert len(solves) <= 3
    np.testing.assert_array_equal(res.psi, solve(prob, res.psi > 0.0))


@pytest.mark.parametrize("name", sorted(DUMP_ORACLES))
def test_oracle_answer_does_not_depend_on_its_start(tmp_path, monkeypatch, name):
    """The energy has one minimizer on the simplex and the exit is a
    fixed-point test, so each dumped problem gives the same density, bit
    for bit, from the uniform density, from the constructed one (failed
    for the octic), from it shifted by half its support's width, and
    from all the mass on the node where V is least, in one well."""
    _, prob, _, res, table = _spied_dump_run(tmp_path, monkeypatch, name)
    lo, hi = table.bands[0].lo, table.bands[-1].hi
    spike = np.zeros(prob.n)
    spike[np.argmin(prob.potential)] = 1.0
    starts = [None, table.interp(prob.grid), table.interp(prob.grid - 0.5 * (hi - lo)),
              spike]
    for start in starts:
        got = oracle.direct_minimize(prob, iters=40000, start=start)
        assert got.converged
        np.testing.assert_array_equal(got.psi, res.psi)


def _two_band_active_set(prob):
    return oracle.direct_minimize(prob).psi > 0.0


def _mirror_pair(prob):
    # V is equal on both nodes, so V - mean(V) is exactly zero there
    active = np.zeros(prob.n, dtype=bool)
    active[[100, prob.n - 101]] = True
    return active


@pytest.mark.parametrize("pick", [_two_band_active_set, _mirror_pair])
def test_active_set_solve_matches_dense_kkt(pick):
    # two runs of active nodes: the preconditioner is exact only per run
    prob = oracle.discretize(quartic_field(-10.0), -3.0, 3.0, 301)
    active = pick(prob)
    idx = np.flatnonzero(active)
    assert np.any(np.diff(idx) > 1)
    m = len(idx)
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = 2.0 * prob.h * prob.kernel[np.ix_(idx, idx)]
    kkt[:m, m] = kkt[m, :m] = 1.0
    rhs = np.append(-prob.potential[idx], 1.0 / prob.h)
    want = np.linalg.solve(kkt, rhs)[:m]
    got = oracle._active_set_solve(prob, active)
    np.testing.assert_allclose(got[idx], want, rtol=0.0, atol=1e-10 * np.max(want))
    assert np.all(got[~active] == 0.0)


@pytest.mark.parametrize("n", [2, 3, 17, 301, 1000])
def test_shifted_kernel_is_positive_definite(n):
    prob = oracle.discretize(semicircle_field(1.0), -1.0, 4.0, n)
    shift = math.log(prob.grid[-1] - prob.grid[0]) / (2.0 * math.pi)
    assert np.linalg.eigvalsh(prob.kernel + shift).min() > 0.0


@pytest.mark.parametrize("m", [1, 2, 3, 17, 400, 1000])
def test_toeplitz_inverse_matches_dense_solve(m):
    # the leading m x m block of the shifted kernel, as an active run has
    prob = oracle.discretize(semicircle_field(1.0), -2.0, 2.0, 1000)
    shift = math.log(4.0) / (2.0 * math.pi)
    rhs = np.random.default_rng(7).standard_normal((m, 2))
    want = np.linalg.solve(prob.kernel[:m, :m] + shift, rhs)
    got = oracle._toeplitz_inverse(1000, m)(rhs)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))


def _dense_sum_zero_spectrum(prob):
    """Eigenvalues of 2h PKP, P = I - 11'/n, by dense eigvalsh: PKP is
    K with its row and column means removed."""
    k = prob.kernel
    centred = k - k.mean(axis=0) - k.mean(axis=1)[:, None] + k.mean()
    return 2.0 * prob.h * np.linalg.eigvalsh(centred)


@pytest.mark.parametrize("family, t, half_width", [
    # the N = 2001 grids of `eqm oracle` (twice the support's half width)
    ("semicircle", 1.3, 2.0 * semicircle_radius(1.3)),
    ("quartic", -10.2, 2.0 * math.sqrt((10.2 + math.sqrt(2.0 / math.pi)) / 2.0)),
    # wider windows, where K's largest |eigenvalue| is negative
    ("semicircle", 1.3, 1.7),
    ("quartic", -10.2, 7.0),
])
def test_lipschitz_is_sum_zero_curvature(monkeypatch, family, t, half_width):
    field = semicircle_field(t) if family == "semicircle" else quartic_field(t)
    prob = oracle.discretize(field, -half_width, half_width, 2001)
    products = []
    toeplitz_product = oracle._toeplitz_product

    def counting(col):
        product = toeplitz_product(col)
        return lambda v: products.append(1) or product(v)

    monkeypatch.setattr(oracle, "_toeplitz_product", counting)
    oracle._sum_zero_curvature.cache_clear()
    got = oracle._lipschitz(prob)
    assert 0 < len(products) <= 30
    want = _dense_sum_zero_spectrum(prob)[-1]
    assert abs(got - want) <= 1e-13 * want
    # the curvature per unit h depends on n alone: another width reuses it
    products.clear()
    wider = oracle.discretize(field, -3.0 * half_width, 2.0 * half_width, 2001)
    assert oracle._lipschitz(wider) / wider.h == pytest.approx(got / prob.h, rel=1e-15)
    assert products == []


@settings(max_examples=30, derandomize=True, database=None, deadline=1000)
@given(n=st.integers(2, 300), log_width=st.floats(-2.0, math.log10(50.0)))
def test_lipschitz_matches_dense_on_generated_grids(n, log_width):
    width = 10.0**log_width
    prob = oracle.discretize(semicircle_field(1.0), -0.5 * width, 0.5 * width, n)
    spectrum = _dense_sum_zero_spectrum(prob)
    assert abs(oracle._lipschitz(prob) - spectrum[-1]) <= 1e-12 * spectrum[-1]
    # the step rule takes the energy to be convex along zero-sum moves
    assert spectrum[0] >= -1e-12 * spectrum[-1]


def _detect_bands_loop(grid, psi, threshold):
    above = psi > threshold
    bands = []
    start = None
    for i, flag in enumerate(above):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            bands.append((grid[start], grid[i - 1]))
            start = None
    if start is not None:
        bands.append((grid[start], grid[-1]))
    return bands


def test_detect_bands_matches_loop():
    rng = np.random.default_rng(13)
    grid = np.linspace(-1.0, 1.0, 40)
    masks = [np.zeros(40), np.ones(40), np.eye(40)[0], np.eye(40)[-1]]
    masks += [(rng.random(40) < p).astype(float) for p in (0.1, 0.5, 0.9) for _ in range(30)]
    assert any(m[0] and m[-1] and not m.all() for m in masks)
    for mask in masks:
        psi = mask * rng.uniform(0.5, 2.0, 40)
        assert oracle._detect_bands(grid, psi, 0.1) == _detect_bands_loop(grid, psi, 0.1)


def _rescaled(field, s):
    """The field V(s xi) of a polynomial field V, with a monic tilt."""
    vstar = tuple(PowerTerm("monomial", term.exponent, term.coefficient * s**term.exponent)
                  for term in field.vstar)
    p = tuple(c * s ** (j - field.n) for j, c in enumerate(field.p_coeffs))
    return FieldSpec(vstar, p[:-1] + (1.0,), field.t * s**field.n)


def _mass_bands(prob, psi):
    """Runs of cells holding more than 1e-6 of the largest cell mass:
    band detection that does not depend on the grid's scale."""
    mass = prob.h * psi
    return oracle._detect_bands(prob.grid, mass, 1e-6 * np.max(mass))


@settings(max_examples=40, derandomize=True, database=None, deadline=2000)
@given(field=_polynomial_fields(top=1), n=st.integers(31, 201),
       log_s=st.floats(-1.0, 1.0))
@example(field=FieldSpec((PowerTerm("monomial", 4, 1.0),), (0.0, 0.0, 1.0), -10.0), n=201,
         log_s=0.5)
def test_minimizer_obeys_the_discrete_scale_law(field, n, log_s):
    """Minimizing V on [a, b] and V(s xi) on [a/s, b/s] with the same n
    gives the same cell masses h psi: the grids are the same up to
    scale, and the kernels differ by the constant log(s) / 2pi, which
    changes the energy on the simplex by a constant only.  This is why
    the step size and the preconditioner depend on n alone."""
    s = 10.0**log_s
    xs = [float(x) for x in wells(field)]
    a, b = min(xs) - 1.0, max(xs) + 1.0
    prob = oracle.discretize(field, a, b, n)
    scaled = oracle.discretize(_rescaled(field, s), a / s, b / s, n)
    np.testing.assert_allclose(scaled.potential, prob.potential, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(prob.potential)))
    res, res_s = oracle.direct_minimize(prob), oracle.direct_minimize(scaled)
    assert res.converged and res_s.converged
    mass, mass_s = prob.h * res.psi, scaled.h * res_s.psi
    assert np.max(np.abs(mass - mass_s)) <= 1e-9 * np.max(mass)
    assert len(_mass_bands(prob, res.psi)) == len(_mass_bands(scaled, res_s.psi))


def _clear_oracle_memos():
    for memo in (oracle._shifted_column, oracle._sum_zero_curvature, oracle._levinson):
        memo.cache_clear()


def _dump_oracle_run(tmp_path, monkeypatch, name, case):
    """Exit code, stdout and oracle-density.csv of one DUMP_ORACLES run."""
    vstar, p, t, ansatz = DUMP_ORACLES[name]
    where = tmp_path / case
    where.mkdir()
    path = _problem(str(where), "problem", vstar, p, t, ansatz)
    monkeypatch.chdir(where)  # where the oracle writes oracle-density.csv
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["oracle", "--problem", path, "--grid-n", "2001", "--iters", "40000"])
    return code, out.getvalue(), (where / "oracle-density.csv").read_text()


@pytest.mark.parametrize("name", ["oracle-semicircle-t1", "oracle-quartic-t-10"])
def test_oracle_output_does_not_depend_on_earlier_runs(tmp_path, monkeypatch, name):
    """One dumped oracle run, first with empty memos, then with the memos
    the other dumped runs filled: the same bytes both times.  The
    semicircles share every block length, so the second semicircle run
    factors nothing itself."""
    _clear_oracle_memos()
    first = _dump_oracle_run(tmp_path, monkeypatch, name, "first")
    _clear_oracle_memos()
    for other in sorted(set(DUMP_ORACLES) - {name}):
        _dump_oracle_run(tmp_path, monkeypatch, other, other)
    misses = oracle._levinson.cache_info().misses
    assert _dump_oracle_run(tmp_path, monkeypatch, name, "again") == first
    assert oracle._sum_zero_curvature.cache_info().misses == 1
    if "semicircle" in name:
        assert oracle._levinson.cache_info().misses == misses


@settings(max_examples=60, derandomize=True, database=None, deadline=1000)
@given(a=st.floats(-1e4, 1e4), log_width=st.floats(-4.0, 4.0), n=st.integers(2, 4001))
def test_shifted_column_is_the_shifted_kernel_row(a, log_width, n):
    """_shifted_column(n) is kernel_row + log(b - a) / 2pi for any grid
    of n nodes on [a, b], to 8 ulps of the largest of the two terms and
    1/2pi: rounding a log's argument by one ulp moves the column by
    about one ulp of 1/2pi.  The right side rounds h, h j, both logs
    and their sum; 300 random grids showed at most 4 ulps."""
    b = a + 10.0**log_width
    prob = oracle.discretize(semicircle_field(1.0), a, b, n)
    shift = math.log(b - a) / (2.0 * math.pi)
    got = oracle._shifted_column(n)
    scale = np.maximum(np.abs(prob.kernel_row), max(abs(shift), 1.0 / (2.0 * math.pi)))
    assert np.all(np.abs(got - (prob.kernel_row + shift)) <= 8.0 * np.spacing(scale))


def test_memoised_arrays_are_read_only():
    col = oracle._shifted_column(17)
    x = oracle._levinson(17, 5)
    for cached in (col, x):
        with pytest.raises(ValueError):
            cached[0] = 1.0
    assert oracle._shifted_column(17) is col and oracle._levinson(17, 5) is x
