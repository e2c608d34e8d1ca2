"""Discretized direct minimizer: projection, energy, comparisons."""

import math

import numpy as np
import pytest
from scipy.fft import next_fast_len

from eqm import onecut, oracle, twocut

from conftest import quartic_field, semicircle_field, semicircle_radius


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
    assert metrics["multiplier"] == pytest.approx(-sol.lagrange_l, abs=5e-3)


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


def test_self_comparison_is_exact():
    field = semicircle_field(1.0)
    prob = oracle.discretize(field, -1.0, 1.0, 301)
    res = oracle.direct_minimize(prob, iters=5000)
    metrics = oracle.compare(res.psi, res)
    assert metrics["l1_distance"] == 0.0
    assert abs(metrics["optimality_gap"]) < 1e-12


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


def test_negative_active_set_solve_is_rejected(monkeypatch):
    prob = oracle.discretize(semicircle_field(1.0), -1.0, 1.0, 301)
    # on the whole grid the equality-constrained minimizer goes negative
    whole = oracle._active_set_solve(prob, np.ones(prob.n, dtype=bool))
    assert whole.min() < 0.0

    clean = oracle.direct_minimize(prob)
    real = oracle._active_set_solve
    steps = []
    calls = []

    def counting_gradient(psi, gradient=prob.gradient):
        steps.append(1)
        return gradient(psi)

    def first_one_negative(problem, active):
        psi = real(problem, active)
        calls.append(len(steps))
        if len(calls) == 1:
            psi[np.flatnonzero(active)[0]] = -1e-3
        return psi

    monkeypatch.setattr(prob, "gradient", counting_gradient)
    monkeypatch.setattr(oracle, "_active_set_solve", first_one_negative)
    res = oracle.direct_minimize(prob)
    # a rejected set is not solved again; a new one must hold first
    assert calls[0] >= oracle._ACTIVE_HOLD
    assert np.all(np.diff(calls) > oracle._ACTIVE_HOLD)
    assert res.converged
    assert res.iterations > clean.iterations
    assert np.all(res.psi >= 0.0)
    assert prob.h * float(np.sum(np.abs(res.psi - clean.psi))) <= 1e-8

    # stop right after the rejected solve: the iterate is still FISTA's
    first = calls[0]
    calls.clear()
    steps.clear()
    cut = oracle.direct_minimize(prob, iters=first)
    assert calls == [first]
    assert not cut.converged
    assert np.all(cut.psi >= 0.0)


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
    got = oracle._toeplitz_inverse(prob.kernel_row[:m] + shift)(rhs)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))


@pytest.mark.parametrize("family, t, half_width, settles", [
    # the N = 2001 grids of `eqm oracle` (twice the support's half
    # width): the two largest eigenvalues lie close, so all 100 steps run
    ("semicircle", 1.3, 2.0 * semicircle_radius(1.3), False),
    ("quartic", -10.2, 2.0 * math.sqrt((10.2 + math.sqrt(2.0 / math.pi)) / 2.0), False),
    ("semicircle", 1.3, 1.7, True),
    ("quartic", -10.2, 7.0, True),
])
def test_lipschitz_settles_to_full_estimate(monkeypatch, family, t, half_width, settles):
    field = semicircle_field(t) if family == "semicircle" else quartic_field(t)
    prob = oracle.discretize(field, -half_width, half_width, 2001)
    steps = []
    matvec = prob.matvec
    monkeypatch.setattr(prob, "matvec", lambda v: steps.append(1) or matvec(v))
    settled = oracle._lipschitz(prob)
    assert (len(steps) < 100) == settles
    # the 100-step estimate, without the early stop
    rng = np.random.default_rng(0)
    v = rng.standard_normal(prob.n)
    v /= np.linalg.norm(v)
    for _ in range(100):
        w = matvec(v)
        lam = float(np.linalg.norm(w))
        v = w / lam
    assert abs(settled - 2.0 * prob.h * lam) <= 1e-14 * settled


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
