"""Brute-force ground truth: direct minimization of the discretized energy.

The continuous energy
``-(1/2pi) iint log|xi-eta| psi psi + int V psi`` is discretized on a
uniform grid with the log kernel cell-averaged (exact in-cell double
integral on the diagonal) and minimized over the scaled simplex
``{psi_i >= 0, h * sum psi_i = 1}`` by accelerated projected gradient
(FISTA with gradient-mapping restart) plus exact solves of the
equality-constrained problem on a stable active set, re-solved on the
set the KKT signs give while a solution has a negative entry (primal-
dual active set).  The run starts from the uniform density, or from a
given density (``direct_minimize``'s ``start``): `eqm oracle` passes
the constructed density when it passed its certificate.  The energy is
strictly convex on the simplex, so the start moves the step count, not
the minimizer.  The step size is 1/L, with L the energy's curvature on
zero-sum moves, found by Lanczos in about 13 kernel products.  The
kernel matrix is symmetric Toeplitz, so matrix-vector products run
through a circulant FFT embedding, and the active-set solve is
preconditioned by the exact inverse of each active run's Toeplitz
block: one Levinson-Durbin pass per block, then the Gohberg-Semencul
formula applied with FFT convolutions.

The kernel is scale-free.  Adding log(b - a) / 2pi to every entry gives
the kernel of the same n-node grid stretched to width 1: its first
column is (log(n - 1) + 3/2) / 2pi on the diagonal and
log((n - 1) / j) / 2pi at distance j, whatever a and b are.  The
added constant changes the energy on the simplex by a constant only,
and P = I - 11'/n removes it from the curvature, so both the
preconditioner's blocks and L / 2h depend on n alone.  They are
memoised per grid size: the shifted column (``_shifted_column(n)``),
the curvature lambda(n) and the Levinson vector of each block length m
(keyed on (n, m), at most 32 kept).  Each is computed from scratch on
its first use, so no result depends on what ran before it in the
process; cached arrays are read-only.  At n = 2001 a column or a
Levinson vector holds at most 16 KB, and the memos at most 0.6 MB.
Only a process that runs several problems of one grid size gains:
criterion 8's checks, the golden dump and the benchmark do; a single
`eqm oracle` call computes each once, as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np
from numpy.fft import irfft, rfft

__all__ = [
    "DiscreteProblem",
    "OracleResult",
    "discretize",
    "direct_minimize",
    "compare",
]

_RESIDUAL_EXIT = 1e-10
_DETECT_THRESHOLD = 1e-4
_ACTIVE_THRESHOLD = 1e-6
# Iterations the set {psi > 0} must hold before it gets an exact solve.
# Of 5, 10, 15 and 30 on N = 2001 grids, 10 and 15 took the least time;
# at 5 the extra solves cost more than the steps they save.
_ACTIVE_HOLD = 10


@lru_cache(maxsize=64)
def _fast_len(n):
    """Smallest 2^a 3^b 5^c >= n: a length the real FFT factors into
    radix-2, -3 and -5 passes only."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            q = p35
            while q < n:
                q *= 2
            best = min(best, q)
            p35 *= 3
        p5 *= 5
    return best


def _toeplitz_product(col):
    """v -> T v for the symmetric Toeplitz T with first column ``col``,
    for a vector or each column of an (n, k) block, through a circulant
    embedding of fast FFT length."""
    n = len(col)
    size = _fast_len(2 * n - 1)
    circ = np.zeros(size)
    circ[:n] = col
    circ[size - n + 1:] = col[:0:-1]
    spectrum = rfft(circ)

    def product(psi):
        scale = spectrum if np.ndim(psi) == 1 else spectrum[:, None]
        return irfft(rfft(psi, size, axis=0) * scale, size, axis=0)[:n]

    return product


@lru_cache(maxsize=4)
def _shifted_column(n):
    """First column of the kernel of an n-node grid plus log(b - a) / 2pi,
    read-only: the kernel of that grid on an interval of width 1, which
    depends on n alone."""
    col = np.empty(n)
    col[0] = math.log(n - 1) + 1.5
    col[1:] = np.log((n - 1) / np.arange(1, n))
    col /= 2.0 * math.pi
    col.flags.writeable = False
    return col


@dataclass
class DiscreteProblem:
    """Discretized energy on a uniform grid.

    ``kernel_row`` holds the first row of the symmetric Toeplitz kernel
    ``-(1/2pi) * cell-averaged log|xi - eta|``; the diagonal entry is the
    exact per-cell average ``log h - 3/2`` of the in-cell double
    integral.  ``potential`` holds V at the grid points.
    """

    grid: np.ndarray
    h: float
    kernel_row: np.ndarray
    potential: np.ndarray
    _product: object = dc_field(default=None, repr=False, compare=False)
    _dense: np.ndarray = dc_field(default=None, repr=False, compare=False)

    @property
    def n(self):
        return len(self.grid)

    @property
    def kernel(self):
        """Dense kernel matrix (built on demand; tests only)."""
        if self._dense is None:
            idx = np.arange(self.n)
            self._dense = self.kernel_row[np.abs(idx[:, None] - idx[None, :])]
        return self._dense

    def matvec(self, psi):
        """Kernel times a vector, or times each column of an (n, k) block
        (``_toeplitz_product``)."""
        if self._product is None:
            self._product = _toeplitz_product(self.kernel_row)
        return self._product(psi)

    def energy(self, psi):
        """Discrete energy h^2 psi'K psi + h V'psi."""
        return self.h**2 * float(psi @ self.matvec(psi)) + self.h * float(
            self.potential @ psi
        )

    def gradient(self, psi):
        """Gradient of the energy per unit mass step: 2h K psi + V."""
        return 2.0 * self.h * self.matvec(psi) + self.potential


def discretize(field, a, b, n):
    """Build the discrete problem for a field on [a, b] with n points."""
    if not (b > a and n >= 2):
        raise ValueError("need b > a and at least two grid points")
    grid = np.linspace(a, b, n)
    h = (b - a) / (n - 1)
    row = np.empty(n)
    row[0] = math.log(h) - 1.5
    js = np.arange(1, n)
    row[1:] = np.log(h * js)
    row *= -1.0 / (2.0 * math.pi)
    potential = field.eval(grid, 0)
    return DiscreteProblem(grid=grid, h=h, kernel_row=row, potential=potential)


@dataclass
class OracleResult:
    """Minimizer iterate with convergence metadata."""

    problem: DiscreteProblem
    psi: np.ndarray
    iterations: int
    residual: float
    converged: bool


def _project_scaled_simplex(v, total):
    """Euclidean projection onto {x >= 0, sum x = total} (sort-threshold)."""
    u = np.sort(v)[::-1]
    cs = np.cumsum(u) - total
    ks = np.arange(1, len(v) + 1)
    mask = u - cs / ks > 0.0
    rho = np.nonzero(mask)[0][-1]
    tau = cs[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


@lru_cache(maxsize=16)
def _sum_zero_curvature(n):
    """The largest eigenvalue of PKP, P = I - 11'/n, for the kernel K of
    any n-node grid, by Lanczos on the shifted kernel (P removes the
    shift).

    From a seeded vector with its mean removed, each kernel product has
    its mean removed and is reorthogonalized against the whole basis;
    the estimate is the largest eigenvalue of the small tridiagonal.  It
    never decreases, so iteration stops once a step raises it by at most
    a few ulps, or when the sum-zero space (dimension n - 1) runs out.
    """
    product = _toeplitz_product(_shifted_column(n))
    v = np.random.default_rng(0).standard_normal(n)
    v -= v.mean()
    basis = np.empty((0, n))
    alpha, beta = [], []
    lam = -math.inf
    for _ in range(n - 1):
        basis = np.vstack([basis, v / np.linalg.norm(v)])
        w = product(basis[-1])
        w -= w.mean()
        coef = basis @ w
        v = w - coef @ basis
        alpha.append(coef[-1])
        beta.append(float(np.linalg.norm(v)))
        last, lam = lam, np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta[:-1], -1))[-1]
        if lam - last <= 4.0 * np.finfo(float).eps * abs(lam) or beta[-1] == 0.0:
            break
    return float(lam)


def _lipschitz(problem):
    """L = 2h * the largest eigenvalue of PKP, P = I - 11'/n: the
    energy's curvature on zero-sum moves.  The eigenvalue depends on
    the node count alone and is computed once per n
    (``_sum_zero_curvature``), about 13 kernel products at n = 2001."""
    return 2.0 * problem.h * _sum_zero_curvature(problem.n)


@lru_cache(maxsize=32)
def _levinson(n, m):
    """x = T^-1 e_1, read-only, for T the leading m x m block of the
    shifted kernel of an n-node grid (``_shifted_column``).

    One Levinson-Durbin pass from k = 1: ``x`` solves the leading
    k x k system T_k x = e_1, and by symmetry its reverse solves
    T_k b = e_k, which extends it one row at a time.
    """
    col = _shifted_column(n)[:m]
    rev = col[::-1].copy()
    x = np.zeros(m)
    x[0] = 1.0 / col[0]
    for k in range(1, m):
        refl = float(rev[m - 1 - k:m - 1] @ x[:k])
        # x[k] is still 0, so x[k::-1] is the shifted backward vector
        x[:k + 1] = (x[:k + 1] - refl * x[k::-1]) / (1.0 - refl * refl)
    x.flags.writeable = False
    return x


def _toeplitz_inverse(n, m):
    """T^-1 as a function of an (m, k) block, for T the leading m x m
    block of the shifted kernel of an n-node grid, which is symmetric
    positive definite Toeplitz.

    With x = T^-1 e_1 (``_levinson``, memoised per (n, m)),
    T^-1 = (L(x) L(x)' - L(y) L(y)') / x_0 with y = (0, x_{m-1}, ..., x_1),
    where L(v) is the lower-triangular Toeplitz matrix with first
    column v (Gohberg & Semencul 1972).  Each product with L(v) or
    L(v)' is an FFT convolution, so one application costs O(m log m)
    and the factor holds O(m) numbers.
    """
    x = _levinson(n, m)
    y = np.zeros(m)
    y[1:] = x[:0:-1]
    size = _fast_len(2 * m - 1)
    fx = rfft(x, size)[:, None]
    fy = rfft(y, size)[:, None]

    def apply(r):
        # L(v)' r is the correlation of v with r: conj(F v) * F r
        fr = rfft(r, size, axis=0)
        xr = rfft(irfft(fx.conj() * fr, size, axis=0)[:m], size, axis=0)
        yr = rfft(irfft(fy.conj() * fr, size, axis=0)[:m], size, axis=0)
        return irfft(fx * xr - fy * yr, size, axis=0)[:m] / x[0]

    return apply


def _active_set_solve(problem, active):
    """Minimizer of the energy over {h * sum psi = 1, psi = 0 off active}.

    Adding c = log(b - a) / 2pi to every kernel entry changes the
    energy on the constraint set by a constant only, and turns the
    kernel into -(1/2pi) log(|xi - eta| / (b - a)), which is positive
    definite on the grid.  With K' that shifted kernel on the active
    nodes, the KKT conditions 2h K' psi + V = mu and h sum psi = 1 give
    psi = (mu z1 - z2) / 2h for K' z1 = 1 and K' z2 = V - mean(V).
    Both systems go through conjugate gradients with the FFT matvec,
    preconditioned by the inverse of K' on each contiguous run of
    active nodes, exact to rounding: each run's block of K' is the
    leading block of the same Toeplitz matrix, which depends on n
    alone, so ``_toeplitz_inverse`` takes its factor from the memo of
    the grid size and run length, or computes it once (runs of equal
    length share one factor).  Iteration stops once the estimated
    error reaches rounding level or stops shrinking.  The result may
    have negative entries; the caller decides.
    """
    idx = np.flatnonzero(active)
    m = len(idx)
    shift = math.log(problem.grid[-1] - problem.grid[0]) / (2.0 * math.pi)
    runs = np.split(np.arange(m), np.flatnonzero(np.diff(idx) > 1) + 1)
    inverse = {k: _toeplitz_inverse(problem.n, k) for k in {len(run) for run in runs}}

    def apply(z):
        full = np.zeros((problem.n, z.shape[1]))
        full[idx] = z
        return problem.matvec(full)[idx] + shift * z.sum(axis=0)

    def precondition(r):
        out = np.empty(r.shape)
        for run in runs:
            out[run] = inverse[len(run)](r[run])
        return out

    v = problem.potential[idx]
    rhs = np.column_stack([np.ones(m), v - v.mean()])
    z = precondition(rhs)
    r = rhs - apply(z)
    s = precondition(r)
    p, rs = s, np.sum(r * s, axis=0)
    best = math.inf
    for _ in range(m):
        err = float(np.max(np.abs(s)) / np.max(np.abs(z)))
        if err <= np.finfo(float).eps or err >= best:
            break
        best = err
        q = apply(p)
        # a column already solved exactly (r = 0) stays as it is
        pq = np.sum(p * q, axis=0)
        alpha = np.divide(rs, pq, out=np.zeros(2), where=pq != 0.0)
        z = z + alpha * p
        r = r - alpha * q
        s = precondition(r)
        rs, rs_old = np.sum(r * s, axis=0), rs
        p = s + np.divide(rs, rs_old, out=np.zeros(2), where=rs_old != 0.0) * p
    mu = (2.0 + z[:, 1].sum()) / z[:, 0].sum()
    psi = np.zeros(problem.n)
    psi[idx] = (mu * z[:, 0] - z[:, 1]) / (2.0 * problem.h)
    return psi


def _primal_dual_active_set(problem, active):
    """The first nonnegative ``_active_set_solve`` along the primal-dual
    active-set updates from ``active`` (see ``direct_minimize``), or
    None once a set repeats or empties."""
    seen = set()
    while active.any() and active.tobytes() not in seen:
        seen.add(active.tobytes())
        psi = _active_set_solve(problem, active)
        if np.all(psi >= 0.0):
            return psi
        grad = problem.gradient(psi)
        mu = float(np.mean(grad[active]))
        active = (psi > 0.0) | (~active & (grad < mu))
    return None


def direct_minimize(problem, iters=50000, start=None):
    """Minimize the discretized energy over the scaled simplex.

    The first iterate is the uniform density, or, given ``start`` (a
    density on the grid), its projection onto the scaled simplex.  Each
    iteration is one projected-gradient step of size 1/L, taken
    from FISTA's extrapolated point (Beck & Teboulle 2009).  Every move
    has zero sum, since the projection keeps the mass, so L is the
    energy's curvature on such moves, 2h * the largest eigenvalue of the
    mean-removed kernel PKP (``_lipschitz``); K's large negative,
    near-constant mode is one the minimizer never moves along.  The
    momentum restarts whenever the gradient mapping points against the
    last move, (y - x+)'(x+ - x) > 0 (O'Donoghue & Candes 2015).  Once
    the set {psi > 0} has held for ``_ACTIVE_HOLD`` (10) iterations,
    the equality-constrained problem on it is solved exactly
    (``_active_set_solve``).  While a solution psi has a negative
    entry, it is re-solved on the nodes where psi > 0 plus those off
    the set whose gradient lies below its mean over the set, the
    primal-dual active-set update (Hintermueller, Ito & Kunisch 2002),
    until a set repeats or empties.  A nonnegative solution becomes the
    iterate and the momentum restarts; otherwise iteration carries on.

    Exits once one plain projected-gradient step from the current
    iterate moves it by less than 1e-10, and returns that iterate: the
    energy is convex, so it is the unique minimizer, and a wrong set
    costs only time.  So the start changes the steps taken, not the
    minimizer the run exits at: the exit is a fixed-point test wherever
    the run began, and a run that exits on an exact solve returns the
    solve on the minimizer's support, the same bits from any start.  A
    start near the minimizer saves the steps that shrink the uniform
    density's support; a poor one can cost more steps than the uniform
    start.  ``iterations`` counts gradient steps, not the active-set solves or
    the gradients of their updates, and never exceeds ``iters``; a
    budget exhausted before the fixed point is flagged, not raised.
    """
    step = 1.0 / _lipschitz(problem)
    total = 1.0 / problem.h
    if start is None:
        x = np.full(problem.n, total / problem.n)
    else:
        x = _project_scaled_simplex(np.asarray(start, dtype=float), total)
    y, t, plain = x, 1.0, True
    active, held = x > 0.0, 0
    residual = math.inf
    done = 0
    for done in range(1, iters + 1):
        x_new = _project_scaled_simplex(y - step * problem.gradient(y), total)
        residual = float(np.linalg.norm(x_new - y))
        if residual < _RESIDUAL_EXIT:
            if plain:
                return OracleResult(
                    problem=problem,
                    psi=y,
                    iterations=done,
                    residual=residual,
                    converged=True,
                )
            t = 1.0
        elif float((y - x_new) @ (x_new - x)) > 0.0:
            t = 1.0
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y = x_new + beta * (x_new - x)
        x, t, plain = x_new, t_next, beta == 0.0

        now = x > 0.0
        held = held + 1 if np.array_equal(now, active) else 0
        active = now
        if held == _ACTIVE_HOLD:
            solved = _primal_dual_active_set(problem, active)
            if solved is not None:
                x = y = solved
                t, plain = 1.0, True
    return OracleResult(
        problem=problem,
        psi=x,
        iterations=done,
        residual=residual,
        converged=False,
    )


def _detect_bands(grid, psi, threshold):
    """Contiguous runs of samples above the detection threshold."""
    above = np.concatenate([[False], psi > threshold, [False]])
    flips = np.flatnonzero(above[1:] != above[:-1])
    return [(grid[i], grid[j - 1]) for i, j in zip(flips[::2], flips[1::2])]


def _support_points(grid, bands):
    keep = np.zeros(grid.shape, dtype=bool)
    for lo, hi in bands:
        keep |= (grid >= lo) & (grid <= hi)
    return grid[keep]


def _directed_hausdorff(p, q):
    if len(p) == 0 or len(q) == 0:
        return math.inf
    idx = np.searchsorted(q, p)
    best = np.full(p.shape, math.inf)
    for shift in (idx - 1, idx):
        ok = (shift >= 0) & (shift < len(q))
        best[ok] = np.minimum(best[ok], np.abs(p[ok] - q[np.clip(shift, 0, len(q) - 1)][ok]))
    return float(np.max(best))


def compare(constructed, oracle: OracleResult):
    """Metrics between a constructed density and the oracle minimizer.

    ``constructed`` is a DensityTable, interpolated onto the oracle
    grid; its bands are the reference for the oracle's detected bands.
    The constructed density is projected onto the feasible simplex
    before the energy comparison so optimality is judged inside the
    constraint set.
    """
    problem = oracle.problem
    grid, h = problem.grid, problem.h
    values = constructed.interp(grid)
    true_bands = [(b.lo, b.hi) for b in constructed.bands]

    l1 = h * float(np.sum(np.abs(values - oracle.psi)))

    bands = _detect_bands(grid, oracle.psi, _DETECT_THRESHOLD)
    if len(bands) == len(true_bands):
        edge_error = max(
            max(abs(lo - tl), abs(hi - th))
            for (lo, hi), (tl, th) in zip(bands, true_bands)
        )
    else:
        edge_error = math.inf

    pa = _support_points(grid, bands)
    pb = _support_points(grid, true_bands)
    hausdorff = max(_directed_hausdorff(pa, pb), _directed_hausdorff(pb, pa))

    feasible = _project_scaled_simplex(values, 1.0 / h)
    energy_constructed = problem.energy(feasible)
    energy_oracle = problem.energy(oracle.psi)

    grad = problem.gradient(oracle.psi)
    active = oracle.psi > _ACTIVE_THRESHOLD
    lam = float(np.mean(grad[active])) if np.any(active) else math.nan
    spread = (
        float(np.max(np.abs(grad[active] - lam))) if np.any(active) else 0.0
    )
    inactive = ~active
    margin = (
        float(np.min(grad[inactive]) - lam) if np.any(inactive) else 0.0
    )

    return {
        "l1_distance": l1,
        "band_count": len(bands),
        "band_edges": bands,
        "edge_error": edge_error,
        "hausdorff": hausdorff,
        "energy_constructed": energy_constructed,
        "energy_oracle": energy_oracle,
        "optimality_gap": energy_constructed - energy_oracle,
        "multiplier": lam,
        "active_gradient_spread": spread,
        "inactive_gradient_margin": margin,
    }
