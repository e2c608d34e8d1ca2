"""Density tables: banded square-root densities sampled on Chebyshev nodes.

A ``DensityTable`` stores one or more support bands (lo, hi) together
with samples of the density at first-kind Chebyshev angles inside each
band.  The density of interest behaves like
``psi(mid + half*cos(theta)) = half * sin(theta) * w(theta)`` with a
smooth, analytic factor ``w``.  Each band takes the sine-series
coefficients of ``sin(theta) * w(theta)`` by one type-II DST and folds
them once into the coefficients a_k of its logarithmic potential: a
constant plus ``sum a_k T_k(y)`` on the band, and a logarithm plus
``sum a_k v^-k`` off it, with ``y = (xi - mid) / half`` and
``v = y + sign(y) sqrt(y^2 - 1)``.  At the band's own nodes the sum is
one type-III DCT (Trefethen, *Approximation Theory and Approximation
Practice*, ch. 3 and 19).

The folded series is cut after its last coefficient with
|a_k| > eps * max|a| (eps = ``np.finfo(float).eps``): for a smooth density
the a_k decay to a roundoff plateau, and only the K terms above it are
summed (Trefethen, ch. 8; Aurentz & Trefethen, "Chopping a Chebyshev
series", ACM TOMS 2017).  Since |T_k| <= 1 on the band and |v^-k| < 1 off
it, the cut moves any value by at most (n + 2 - K) * eps * max|a| * half^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .errors import ParseError

__all__ = ["Band", "DensityTable", "chebyshev_angles", "chebyshev_coeffs", "chop",
           "csv_rows"]

# Entries of the largest point-by-term matrix one log-potential block
# holds (128 KiB of float64), so memory stays flat in the number of points.
_BLOCK = 2**14
_EPS = np.finfo(float).eps
# -log2 of the smallest subnormal float
_TINY_BITS = 1074


@lru_cache(maxsize=16)
def _twiddles(n, inverse):
    """exp(-+ i pi k / 2n), k = 0..n//2, read-only: the factors of the
    forward (``_dst2``) or inverse (``_dct3``) transform of length n."""
    unit = 0.5j if inverse else -0.5j
    w = np.exp(unit * np.pi / n * np.arange(n // 2 + 1))
    w.flags.writeable = False
    return w


def _dct2(x):
    """Type-II DCT, y_k = 2 sum_j x_j cos(pi k (2j+1) / 2n), by one real
    FFT.

    The FFT of the even-indexed entries followed by the odd-indexed ones
    reversed gives y_k = 2 Re z_k, y_(n-k) = -2 Im z_k with
    z_k = exp(-i pi k / 2n) times the k-th FFT coefficient (Makhoul
    1980, IEEE Trans. ASSP 28).
    """
    n = len(x)
    v = np.concatenate([x[::2], x[1::2][::-1]])
    z = _twiddles(n, False) * np.fft.rfft(v)
    c = np.empty(n)
    c[:n // 2 + 1] = 2.0 * z.real
    c[:n // 2:-1] = -2.0 * z.imag[1:(n + 1) // 2]
    return c


def _dst2(x):
    """Type-II DST, y_k = 2 sum_j x_j sin(pi (k+1)(2j+1) / 2n): the
    type-II DCT of (-1)^j x_j, reversed."""
    flip = np.array(x, dtype=float)
    flip[1::2] = -flip[1::2]
    return _dct2(flip)[::-1]


def chebyshev_coeffs(values):
    """Coefficients c_k of the Chebyshev series sum c_k T_k(s) through
    values at the first-kind nodes s = cos(theta), theta ascending as
    ``chebyshev_angles`` gives them: one type-II DCT, over n (c_0 over
    2n)."""
    c = _dct2(values) / len(values)
    c[0] *= 0.5
    return c


def chop(a):
    """a cut after its last entry with |a_k| > eps * max|a| (Aurentz &
    Trefethen 2017); kept whole when an entry is not finite, so a nan or
    inf reaches every sum."""
    mag = np.abs(a)
    top = mag.max()
    if np.isfinite(top):
        a = a[:np.flatnonzero(mag > _EPS * top).max(initial=0) + 1]
    return a


def _dct3(a):
    """Type-III DCT, y_j = a_0 + 2 sum_k a_k cos(pi k (2j+1) / 2n), by
    one inverse real FFT.

    The inverse of the type-II form in ``_dst2``: the Hermitian spectrum
    exp(i pi k / 2n) (a_k - i a_(n-k)), with a_n = 0, transforms to the
    even-indexed outputs followed by the odd-indexed ones reversed
    (Makhoul 1980).
    """
    n = len(a)
    rev = np.zeros(n // 2 + 1)
    rev[1:] = a[:(n - 1) // 2:-1]
    spec = _twiddles(n, True) * (a[:n // 2 + 1] - 1j * rev)
    v = np.fft.irfft(spec, n, norm="forward")
    y = np.empty(n)
    y[::2] = v[:(n + 1) // 2]
    y[1::2] = v[:(n - 1) // 2:-1]
    return y


def csv_rows(xs, ys):
    """Lines "x,y" of two columns, each value as f"{v:.12g}" writes it.

    One % operation formats each 64 rows of the interleaved values.  A
    single % over all rows is as fast, but in a process that writes
    many 801-row tables (perfbench's solve-onecut, 20 s runs) it raised
    peak RSS by about 0.6 MB, and 64-row blocks did not.
    """
    values = np.column_stack([xs, ys]).ravel().tolist()
    return "".join(("%.12g,%.12g\n" * (len(part) // 2)) % tuple(part)
                   for part in (values[i:i + 128] for i in range(0, len(values), 128)))


def chebyshev_angles(n):
    """First-kind Chebyshev angles (2j-1)pi/(2n), j = 1..n, ascending."""
    j = np.arange(1, n + 1)
    return (2.0 * j - 1.0) * np.pi / (2.0 * n)


@dataclass
class Band:
    """One support band with density samples at Chebyshev nodes.

    ``xs`` ascend inside (lo, hi); ``psis`` are the density values.  The
    node layout is xs = mid + half*cos(theta) with theta descending, so
    xs[j] corresponds to angle theta[n-1-j].
    """

    lo: float
    hi: float
    xs: np.ndarray
    psis: np.ndarray
    _coeffs: np.ndarray = dc_field(default=None, repr=False, compare=False)
    _series: np.ndarray = dc_field(default=None, repr=False, compare=False)

    @property
    def mid(self):
        return 0.5 * (self.lo + self.hi)

    @property
    def half(self):
        return 0.5 * (self.hi - self.lo)

    @classmethod
    def from_angles(cls, lo, hi, psis_at_angles):
        """Build from density values ordered by ascending angle."""
        psis = np.asarray(psis_at_angles)[::-1].copy()
        band = cls(lo, hi, np.empty(len(psis)), psis)
        band.xs = band.nodes().copy()
        return band

    def angles(self):
        return chebyshev_angles(len(self.xs))

    def nodes(self):
        """The Chebyshev nodes mid + half*cos(theta), in the order of xs:
        where the spectral sums take the samples to sit."""
        return (self.mid + self.half * np.cos(self.angles()))[::-1]

    def psis_by_angle(self):
        """Density samples ordered by ascending angle (descending x)."""
        return self.psis[::-1]

    def sine_coeffs(self):
        """Coefficients b_m of sin(theta)*w = sum b_m sin((m+1) theta)."""
        if self._coeffs is None:
            q = self.psis_by_angle() / self.half
            self._coeffs = _dst2(q) / len(q)
        return self._coeffs

    def _log_series(self):
        """Coefficients a_k, k = 0..K-1 (a_0 = 0), of the non-constant
        part of the band's log potential in T_k(y) on the band and in
        v^-k off it, folded once from the sine coefficients.

        The fold has n + 2 terms; it is cut after the last one with
        |a_k| > eps * max|a|, so the K <= n + 2 kept terms drop only
        coefficients below one ulp of the largest, and a sum moves by at
        most (n + 2 - K) * eps * max|a| * half^2.  A fold with a
        non-finite coefficient is kept whole, so the nan or inf reaches
        every sum.
        """
        if self._series is None:
            b = self.sine_coeffs()
            n = len(b)
            m = np.arange(1.0, n)
            a = np.zeros(n + 2)
            a[2] = 0.25 * b[0]
            a[1:n] -= b[1:] / (2.0 * m)
            a[3:] += b[1:] / (2.0 * (m + 2.0))
            self._series = chop(a)
        return self._series

    def mass(self):
        """Integral of the density over the band (spectral quadrature)."""
        n = len(self.xs)
        theta = self.angles()
        return (np.pi * self.half / n) * float(
            np.dot(self.psis_by_angle(), np.sin(theta))
        )

    def log_potential(self, xi):
        """(1/pi) * integral of log|xi - mu| psi(mu) dmu over this band.

        A point on the band sums a_k cos(k phi) with y = cos(phi); a
        point off it sums a_k w^k, w = 1/v, the powers taken by a
        running product (``np.cumprod``).  Under |w| = 1/2 that product
        is exactly zero two factors after |w|^k drops below the smallest
        subnormal (it then holds at most two subnormal steps, and each
        factor under 1/2 rounds that down by at least one), so only the
        columns up to there are multiplied out and the rest stay zero.
        Both sums run over the K terms ``_log_series`` keeps above the
        eps floor, which moves them by at most (n + 2 - K) * eps * max|a|
        * half^2.  Points go in blocks of at most _BLOCK matrix entries.
        """
        a = self._log_series()
        y = np.atleast_1d((np.asarray(xi, dtype=float) - self.mid) / self.half)
        band = np.abs(y) <= 1.0
        on, off = np.flatnonzero(band), np.flatnonzero(~band)
        step = max(1, _BLOCK // len(a))
        sums = np.empty(y.shape)
        ks = np.arange(len(a))
        for start in range(0, on.size, step):
            i = on[start:start + step]
            sums[i] = np.cos(np.multiply.outer(np.arccos(y[i]), ks)) @ a
        v = y[off] + np.copysign(np.sqrt(y[off] * y[off] - 1.0), y[off])
        for start in range(0, off.size, step):
            w = 1.0 / v[start:start + step, None]
            powers = np.zeros((w.size, len(a) - 1))
            cols = len(a) - 1
            wmax = float(np.max(np.abs(w)))
            if 0.0 < wmax < 0.5:
                cols = min(cols, int(_TINY_BITS / -math.log2(wmax)) + 3)
            np.cumprod(np.broadcast_to(w, (w.size, cols)), axis=1,
                       out=powers[:, :cols])
            sums[off[start:start + step]] = powers @ a[1:]
        c0 = np.full(y.shape, -math.log(2.0))
        c0[off] = np.log(np.abs(v) / 2.0)
        b0 = self.sine_coeffs()[0]
        out = self.half**2 * (0.5 * b0 * (math.log(self.half) + c0) + sums)
        return out if np.ndim(xi) else float(out[0])

    def log_potential_at_nodes(self):
        """log_potential at the band's own nodes(), in the order of xs.

        At theta_j the series, padded with zeros back to n + 2 terms, is
        one type-III DCT of a_0..a_{n-1}; the k = n term vanishes and the
        k = n+1 term is (-1)^(j+1) a_{n+1} sin(theta_j), with j counted
        from 0 by ascending angle.
        """
        n = len(self.xs)
        series = self._log_series()
        a = np.zeros(n + 2)
        a[:len(series)] = series
        theta = self.angles()
        sign = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
        sums = 0.5 * _dct3(a[:n]) + a[n + 1] * sign * np.sin(theta)
        b0 = self.sine_coeffs()[0]
        total = 0.5 * b0 * (math.log(self.half) - math.log(2.0)) + sums
        return (self.half**2 * total)[::-1]

    def interp(self, x):
        """Piecewise-linear interpolation with exact zeros at the edges."""
        xs = np.concatenate([[self.lo], self.xs, [self.hi]])
        ps = np.concatenate([[0.0], self.psis, [0.0]])
        return np.interp(x, xs, ps, left=0.0, right=0.0)


@dataclass
class DensityTable:
    """Banded density with optional Lagrange multiplier estimate.

    Parameters
    ----------
    bands : list of Band
        Ascending, non-overlapping support bands.
    lagrange_l : float or None
        Constant value of L(psi) - V on the support, if known.
    """

    bands: list
    lagrange_l: float = None

    def __post_init__(self):
        self.bands = sorted(self.bands, key=lambda b: b.lo)
        for a, b in zip(self.bands, self.bands[1:]):
            if b.lo <= a.hi:
                raise ValueError("bands must be disjoint and ascending")

    @property
    def endpoints_desc(self):
        u = []
        for b in reversed(self.bands):
            u.extend([b.hi, b.lo])
        return np.asarray(u)

    def mass(self):
        return sum(b.mass() for b in self.bands)

    def log_potential(self, xi):
        """Integral of log|xi - mu| against the density (all bands)."""
        vals = [b.log_potential(xi) for b in self.bands]
        return sum(vals[1:], start=vals[0])

    def log_potential_at_nodes(self):
        """log_potential at every band's nodes(), concatenated in band
        order: one DCT per band on its own nodes, the off-band series
        on the other bands' nodes."""
        total = 0.0
        for band in self.bands:
            total = total + np.concatenate([
                band.log_potential_at_nodes() if other is band
                else band.log_potential(other.nodes())
                for other in self.bands
            ])
        return total

    def interp(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for b in self.bands:
            mask = (x >= b.lo) & (x <= b.hi)
            if np.any(mask):
                out[mask] = b.interp(x[mask])
        return out

    def to_csv(self):
        """Render as CSV text with columns xi,psi plus support headers."""
        supp = ";".join(f"{b.lo:.12g},{b.hi:.12g}" for b in self.bands)
        lines = [f"# support: {supp}"]
        if self.lagrange_l is not None:
            lines.append(f"# lagrange-l: {self.lagrange_l:.12g}")
        lines.append("xi,psi")
        rows = (csv_rows(b.xs, b.psis) for b in self.bands)
        return "\n".join(lines) + "\n" + "".join(rows)

    @classmethod
    def from_csv(cls, text):
        """Parse CSV produced by ``to_csv``.

        The ``# support:`` header is required; ``# lagrange-l:`` is
        optional.  A missing support header, a malformed or non-finite
        line (row, support edge or lagrange-l), an empty or overlapping
        band and a sample outside every declared band are each a
        ParseError.
        """
        support = None
        lagrange = None
        xs, ps = [], []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                values = []
                try:
                    if body.startswith("support:"):
                        support = []
                        for piece in body[len("support:"):].split(";"):
                            lo, hi = piece.split(",")
                            support.append((float(lo), float(hi)))
                            values += support[-1]
                    elif body.startswith("lagrange-l:"):
                        lagrange = float(body[len("lagrange-l:"):])
                        values.append(lagrange)
                except ValueError as exc:
                    raise ParseError(f"bad density header {line!r}") from exc
                if not all(map(math.isfinite, values)):
                    raise ParseError(f"non-finite density header {line!r}")
                continue
            if line.lower().startswith("xi"):
                continue
            try:
                sx, sp = line.split(",")
                x, p = float(sx), float(sp)
            except ValueError as exc:
                raise ParseError(f"bad density row {line!r}") from exc
            if not (math.isfinite(x) and math.isfinite(p)):
                raise ParseError(f"non-finite density row {line!r}")
            xs.append(x)
            ps.append(p)
        if not xs:
            raise ParseError("density CSV holds no samples")
        xs = np.asarray(xs)
        ps = np.asarray(ps)
        order = np.argsort(xs)
        xs, ps = xs[order], ps[order]
        if support is None:
            raise ParseError("density CSV needs a '# support:' header")
        covered = np.zeros(xs.shape, dtype=bool)
        bands = []
        for lo, hi in support:
            mask = (xs >= lo) & (xs <= hi)
            covered |= mask
            bx, bp = xs[mask], ps[mask]
            interior = (bx > lo) & (bx < hi)
            if not interior.any():
                raise ParseError(f"support band ({lo}, {hi}) holds no samples")
            bands.append(Band(lo, hi, bx[interior], bp[interior]))
        if not covered.all():
            raise ParseError(
                f"density row at xi = {xs[~covered][0]!r} lies outside "
                "the declared support"
            )
        try:
            return cls(bands, lagrange_l=lagrange)
        except ValueError as exc:
            raise ParseError(f"declared support: {exc}") from exc

