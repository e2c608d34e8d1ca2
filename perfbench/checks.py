"""Output checks computed apart from eqm.

Every check here uses only numpy and the classical one-cut endpoint
conditions for log-gas equilibrium measures (Saff & Totik, Logarithmic
Potentials with External Fields, 1997).  With the energy normalisation
eqm uses, a density on one band [a, b] is the equilibrium measure of V
when

    int V'(x) / sqrt((b-x)(x-a)) dx = 0,
    int (x - m) V'(x) / sqrt((b-x)(x-a)) dx = 1,   m = (a+b)/2,

(the second form equals the one with x in place of x - m once the first
holds, and keeps its precision on narrow bands far from 0).  Both are
evaluated by n-point Gauss-Chebyshev quadrature, exact for polynomial V'
of degree below 2n and converged for the |xi|^a terms.  A mirror pair
+-[u2, u1] of an even field V(xi) = W(xi^2) is a one-band problem for
2W on [u2^2, u1^2], and 2 W'(s) = V'(sqrt s) / sqrt s.

Each check raises CheckFailed with the reason; nothing imports eqm.
"""

import math

import numpy as np

GC_NODES = 512
# Tolerances.  report.json carries full double precision; sweep CSV
# cells carry 12 significant digits, which at |t| = 1e6 leaves about
# 1e-6 of relative precision in u1^2 - u2^2.
TOL_REPORT = 1e-8
TOL_CSV = 1e-4
TOL_DIGITS = 1e-11  # relative rounding of a 12-significant-digit cell
# Acceptance criterion 1: semicircle density to 1e-6 of its peak.
SEMICIRCLE_PSI = 1e-6
ORACLE_L1 = 2e-2
ORACLE_EDGE_CELLS = 2.0
ORACLE_DETECT = 1e-4


class CheckFailed(Exception):
    """An output disagrees with the benchmark's own computation."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


class Field:
    """V = sum of vstar terms + t * p, read from a problem's field JSON."""

    def __init__(self, obj, t=None):
        self.vstar = []
        for raw in obj.get("vstar", []):
            if raw["kind"] == "monomial":
                self.vstar.append(("monomial", float(raw["k"]), float(raw["c"])))
            else:
                self.vstar.append(("abs_power", float(raw["a"]), float(raw["c"])))
        self.p = [float(c) for c in obj["p"]["coeffs"]]
        self.t = float(obj["t"]) if t is None else float(t)

    def dv(self, x):
        """V'(x), term by term."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for kind, k, c in self.vstar:
            if kind == "monomial":
                out += c * k * x ** (k - 1.0)
            else:
                out += c * k * np.abs(x) ** (k - 1.0) * np.sign(x)
        for j, c in enumerate(self.p[1:], start=1):
            out += self.t * c * j * x ** (j - 1.0)
        return out


def endpoint_conditions(dv, a, b, n=GC_NODES):
    """Relative residuals (r0, r1) of the two one-band endpoint conditions.

    r0 = |int V'/sqrt| / int |V'|/sqrt and r1 = |int (x-m) V'/sqrt - 1|,
    both by n-point Gauss-Chebyshev quadrature on [a, b].
    """
    lo, hi = min(a, b), max(a, b)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    _require(half > 0.0, f"empty band [{lo!r}, {hi!r}]")
    c = np.cos((2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n))
    vals = dv(mid + half * c)
    w = math.pi / n
    scale = w * float(np.sum(np.abs(vals)))
    _require(scale > 0.0, "V' vanishes on the band")
    r0 = abs(w * float(np.sum(vals))) / scale
    r1 = abs(w * half * float(np.dot(c, vals)) - 1.0)
    return r0, r1


def check_band(dv, a, b, tol, what):
    r0, r1 = endpoint_conditions(dv, a, b)
    _require(
        r0 <= tol and r1 <= tol,
        f"{what}: endpoint conditions off by {r0:.3e}, {r1:.3e} (tol {tol:.0e})",
    )


def check_mirror_pair(dv, u1, u2, tol, what):
    """Endpoint conditions of 2W on [u2^2, u1^2] for V(xi) = W(xi^2)."""
    _require(0.0 < u2 < u1, f"{what}: need 0 < u2 < u1, got {u2!r}, {u1!r}")

    def dw2(s):
        r = np.sqrt(s)
        return dv(r) / r

    check_band(dw2, u2 * u2, u1 * u1, tol, what)


def _verified(report, what):
    ver = report.get("verification", {})
    _require(ver.get("passed") is True, f"{what}: report fails verification")


# ---- eqm solve ------------------------------------------------------------


def check_solve_report(problem, report):
    """One-band report.json: converged, verified, endpoint conditions."""
    _require(report.get("ansatz") == "onecut", "solve: ansatz is not onecut")
    _require(report.get("converged") is True, "solve: not converged")
    _verified(report, "solve")
    a, b = report["endpoints"]
    field = Field(problem["field"])
    check_band(field.dv, a, b, TOL_REPORT, "solve report")
    if _is_semicircle(problem):
        r = _semicircle_radius(field.t)
        _require(
            abs(max(a, b) - r) <= 1e-8 * r and abs(min(a, b) + r) <= 1e-8 * r,
            f"solve: semicircle endpoints {a!r}, {b!r} are not +-{r!r}",
        )


def parse_density_csv(text):
    """(bands, xs, psis) from eqm's density CSV; bands from '# support:'."""
    bands, xs, psis = None, [], []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("# support:"):
            bands = []
            for piece in line[len("# support:"):].split(";"):
                lo, hi = piece.split(",")
                bands.append((float(lo), float(hi)))
        elif line and not line.startswith("#") and not line.startswith("xi"):
            x, p = line.split(",")
            xs.append(float(x))
            psis.append(float(p))
    _require(bands, "density: no '# support:' header")
    _require(xs, "density: no samples")
    return bands, np.asarray(xs), np.asarray(psis)


def _band_mass(lo, hi, xs, psis):
    """int psi over [lo, hi], in theta with x = mid + half cos(theta).

    psi * sin(theta) extends to a smooth even periodic function of
    theta, so the trapezoid rule on that extension (each sample weighted
    by half the distance between its neighbours, mirrored at 0 and pi)
    converges spectrally on Chebyshev angles.
    """
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    c = np.clip((xs - mid) / half, -1.0, 1.0)
    theta = np.arccos(c)
    order = np.argsort(theta)
    theta, f = theta[order], (psis * np.sqrt(1.0 - c * c))[order]
    ext = np.concatenate([[-theta[0]], theta, [2.0 * math.pi - theta[-1]]])
    weights = 0.5 * (ext[2:] - ext[:-2])
    return half * float(np.dot(weights, f))


def check_density(problem, report, text):
    """density.csv: psi >= 0, unit mass, support matching the report.

    The mass tolerance follows the CSV's 12 significant digits: a
    coordinate error of 5e-13 |x| against a band of half-width h moves
    the mass by about that ratio.
    """
    bands, xs, psis = parse_density_csv(text)
    _require(float(np.min(psis)) >= 0.0, f"density: psi reaches {np.min(psis)!r}")
    ends = sorted(report["endpoints"])
    edges = sorted(x for band in bands for x in band)
    _require(
        np.allclose(edges, ends, rtol=TOL_DIGITS, atol=0.0),
        f"density: support {edges} differs from report endpoints {ends}",
    )
    mass, tol = 0.0, 1e-8
    for lo, hi in bands:
        inside = (xs > lo) & (xs < hi)
        _require(np.any(inside), f"density: no samples in [{lo}, {hi}]")
        mass += _band_mass(lo, hi, xs[inside], psis[inside])
        tol = max(tol, 1e-11 * max(abs(lo), abs(hi)) / (0.5 * (hi - lo)))
    _require(abs(mass - 1.0) <= tol, f"density: mass {mass!r} (tol {tol:.1e})")
    if _is_semicircle(problem):
        t = float(problem["field"]["t"])
        ref = semicircle_density(t, xs)
        err = float(np.max(np.abs(psis - ref)))
        _require(
            err <= SEMICIRCLE_PSI * float(np.max(ref)),
            f"density: semicircle deviation {err:.3e}",
        )


def _is_semicircle(problem):
    f = problem["field"]
    return not f.get("vstar") and list(f["p"]["coeffs"]) == [0.0, 0.0, 1.0]


def _semicircle_radius(t):
    return 1.0 / math.sqrt(math.pi * t)


def semicircle_density(t, x):
    """psi = 2t sqrt(r^2 - x^2), r = 1/sqrt(pi t), for V = t xi^2."""
    r = _semicircle_radius(t)
    return 2.0 * t * np.sqrt(np.maximum(r * r - np.asarray(x) ** 2, 0.0))


# ---- eqm sweep ------------------------------------------------------------

SWEEP_HEADER = (
    "t,ansatz,gaps,u1,u2,u3,u4,scaled_u1,scaled_u2,scaled_u3,scaled_u4,verify"
)


def check_sweep(problem, t_from, t_to, steps, exponent, text):
    """eqm sweep --log CSV of mirror two-band rows.

    Each row must be twocut-sym with one gap and a passing certificate;
    u3 = -u2 and u4 = -u1 exactly; the scaled columns must equal
    u / |t|^exponent; and (u1, u2) must satisfy the mirror-pair endpoint
    conditions at that row's t.
    """
    lines = text.strip().splitlines()
    _require(lines and lines[0] == SWEEP_HEADER, "sweep: bad header")
    _require(len(lines) == steps + 1, f"sweep: {len(lines) - 1} rows, want {steps}")
    for i, line in enumerate(lines[1:]):
        want_t = t_from * (t_to / t_from) ** (i / (steps - 1))
        check_sweep_row(problem["field"], line, want_t, exponent)


def check_sweep_row(field_json, line, want_t, exponent):
    cells = line.split(",")
    _require(len(cells) == 12, f"sweep: row {line!r} has {len(cells)} cells")
    t = float(cells[0])
    what = f"sweep row t={cells[0]}"
    field_at_t = Field(field_json, t=t)
    _require(abs(t - want_t) <= TOL_DIGITS * abs(want_t), f"{what}: want t={want_t!r}")
    _require(cells[1] == "twocut-sym", f"{what}: ansatz {cells[1]}")
    _require(cells[2] == "1", f"{what}: gaps {cells[2]}")
    _require(cells[11] == "pass", f"{what}: verify {cells[11]}")
    _require(
        cells[5] == "-" + cells[4] and cells[6] == "-" + cells[3],
        f"{what}: columns are not mirrored",
    )
    u = [float(c) for c in cells[3:7]]
    scaled = [float(c) for c in cells[7:11]]
    s = abs(t) ** exponent
    for ui, si in zip(u, scaled):
        _require(
            abs(si - ui / s) <= 2 * TOL_DIGITS * abs(si),
            f"{what}: scaled {si!r} != {ui!r} / |t|^{exponent}",
        )
    check_mirror_pair(field_at_t.dv, u[0], u[1], TOL_CSV, what)


# ---- eqm oracle -----------------------------------------------------------


def quartic_twocut_endpoints(t):
    """(u1, u2) of V = xi^4 + t xi^2 in the two-band regime:
    u1^2 + u2^2 = -t and u1^2 - u2^2 = sqrt(2/pi)."""
    d = math.sqrt(2.0 / math.pi)
    return math.sqrt(0.5 * (-t + d)), math.sqrt(0.5 * (-t - d))


def quartic_twocut_density(t, x):
    """psi = 4|x| sqrt((u1^2 - x^2)(x^2 - u2^2)) on +-[u2, u1]."""
    u1, u2 = quartic_twocut_endpoints(t)
    x = np.asarray(x)
    x2 = x * x
    return 4.0 * np.abs(x) * np.sqrt(np.maximum((u1 * u1 - x2) * (x2 - u2 * u2), 0.0))


def reference_measure(problem):
    """(density function, ascending bands) in closed form, or None."""
    t = float(problem["field"]["t"])
    if _is_semicircle(problem):
        r = _semicircle_radius(t)
        return (lambda x: semicircle_density(t, x)), [(-r, r)]
    f = problem["field"]
    quartic = f.get("vstar") == [{"kind": "monomial", "k": 4, "c": 1.0}]
    if quartic and list(f["p"]["coeffs"]) == [0.0, 0.0, 1.0] and t <= -5.0:
        u1, u2 = quartic_twocut_endpoints(t)
        return (lambda x: quartic_twocut_density(t, x)), [(-u1, -u2), (u2, u1)]
    return None


def parse_grid_csv(text):
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    arr = np.asarray(rows, dtype=float)
    return arr[:, 0], arr[:, 1]


def detect_bands(grid, psi, threshold=ORACLE_DETECT):
    """Contiguous runs of grid samples with psi above the threshold."""
    above = np.concatenate([[False], psi > threshold, [False]])
    flips = np.flatnonzero(above[1:] != above[:-1])
    return [(grid[i], grid[j - 1]) for i, j in zip(flips[::2], flips[1::2])]


def check_oracle(problem, obj, text):
    """eqm oracle: criterion 8's gates against the closed-form measure.

    The constructed report must verify, with the closed-form endpoints,
    and the minimizer must converge; from the minimizer's grid density
    the benchmark computes its mass (1: the minimizer keeps it exactly),
    the L1 distance to the closed form (< 2e-2), the band count and
    each band edge (within two grid cells).
    """
    ref = reference_measure(problem)
    _require(ref is not None, "oracle: no closed form for this problem")
    density, bands = ref
    _verified(obj["constructed"], "oracle constructed")
    _require(obj["oracle"]["converged"] is True, "oracle: minimizer not converged")
    ends = sorted(obj["constructed"]["endpoints"])
    want = sorted(x for band in bands for x in band)
    _require(
        np.allclose(ends, want, rtol=1e-8, atol=0.0),
        f"oracle: constructed endpoints {ends} differ from closed form {want}",
    )
    grid, psi = parse_grid_csv(text)
    n = obj["oracle"]["grid_n"]
    a, b = obj["oracle"]["interval"]
    _require(len(grid) == n, "oracle: grid size")
    h = (b - a) / (n - 1)
    mass = h * float(np.sum(psi))
    _require(abs(mass - 1.0) <= 1e-8, f"oracle: mass {mass!r}")
    l1 = h * float(np.sum(np.abs(psi - density(grid))))
    _require(l1 < ORACLE_L1, f"oracle: L1 distance {l1:.3e}")
    found = detect_bands(grid, psi)
    _require(len(found) == len(bands), f"oracle: {len(found)} bands, want {len(bands)}")
    for (lo, hi), (tlo, thi) in zip(found, bands):
        err = max(abs(lo - tlo), abs(hi - thi))
        _require(
            err <= ORACLE_EDGE_CELLS * h,
            f"oracle: band edge off by {err / h:.2f} cells",
        )
