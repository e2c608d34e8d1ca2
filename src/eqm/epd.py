"""Mean-value evaluators for the band-count-g density and potential kernels.

The central objects are two functions Phi_g and Psi_g of a point xi and
an endpoint vector u (length 2g+2, descending).  Both are weighted means
of a derivative of the external field over nested affine pullbacks of
the arguments:

    a_0 = xi,   a_k = (1+m_k)/2 * a_{k-1} + (1-m_k)/2 * u_k,

with m_k drawn from a Jacobi weight (1-m)^(-1/2) (1+m)^((k-1)/2) on
(-1, 1).  Phi_g uses the (g+2)-th derivative of V, Psi_g the (g+1)-th.
The normalization is fixed numerically by the diagonal (boundary)
condition: on the full diagonal xi = u_1 = ... = u_{2g+2},

    Phi_g = V^(g+2)(xi) / (2 (g+1)!),   Psi_g = V^(g+1)(xi) / (2 (g+1)!).

Both satisfy the same hyperbolic Euler-Poisson-Darboux-type system in
(xi, u); ``epd_residual`` measures it by finite differences.

The tensor rule takes m Gauss-Jacobi nodes per slot.  For a polynomial
field of degree M the integrand is a polynomial of degree
D = M - order in every slot, so m = ceil((D+1)/2) nodes are exact and
are the default; fields with absolute-power terms default to m = 32
(g = 0) or m = 24 (g = 1).  ``phi_eval`` takes a single point or a 1-D
array of points and evaluates an array in one tensor contraction.  The
rule's per-slot vectors are built once per (g, m, dtype).

The tensor rule is the library's evaluator (``phi_eval``,
``phi_eval_grad``, ``epd_residual``, and ``phi_eval_anchored`` for
``rhp.q_polynomial``) and the tests' reference; solve, sweep and verify
run none of it.  The anchored solver reads its slope dPsi_g/du_2 at
xi = u_1, for either ansatz, as a band moment of V' from one kernel
(``quadrature.field_band_integral_delta``).

The density on band j (counting from the right) of a valid solution is
psi(xi) = 2 (-1)^(j-1) sqrt(-prod(xi - u_i)) Phi_g(xi).  The density
sampler and the certificate take Phi_g from ``rhp.band_factor``, which
alone chooses its form: a closed form for a polynomial field, principal
values of V' over the bands otherwise, summed from each band's
Chebyshev series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field import LONG, FieldSpec, LocalField

__all__ = [
    "EpdSpec",
    "phi_eval",
    "phi_eval_grad",
    "phi_eval_anchored",
    "epd_residual",
]

_DEFAULT_NODES = {0: 32, 1: 24}
# Largest argument tensor one contraction holds: one g = 1 point at the
# non-polynomial default, 24^4 nodes.
_TENSOR_CAP = 24**4


@dataclass(frozen=True)
class EpdSpec:
    """Selects the kernel: band count g, 'phi' or 'psi', and the field."""

    g: int
    which: str
    field: FieldSpec

    def __post_init__(self):
        if self.g not in (0, 1):
            raise ValueError("only g in {0, 1} is supported")
        if self.which not in ("phi", "psi"):
            raise ValueError("which must be 'phi' or 'psi'")

    @property
    def order(self):
        return self.g + (2 if self.which == "phi" else 1)

    def nodes(self, m=None):
        """Nodes per slot of the tensor rule; an explicit m wins.

        Exact for polynomial fields: V^(order) has degree D = M - order
        in every slot, which ceil((D+1)/2) Gauss nodes integrate
        exactly.  The gradient needs no more, as V^(order+1) has lower
        degree.
        """
        if m is not None:
            return m
        if self.field.is_polynomial:
            deg = max(0, int(self.field.max_degree) - self.order)
            return max(1, (deg + 2) // 2)
        return _DEFAULT_NODES[self.g]


def _jacobi_poly(n, alpha, beta, x):
    """Jacobi polynomial P_n and derivative at x, by the recurrence.

    Extended precision throughout; x may be an array.
    """
    a = LONG(alpha)
    b = LONG(beta)
    x = np.asarray(x, dtype=LONG)
    p_prev = np.ones_like(x)
    d_prev = np.zeros_like(x)
    if n == 0:
        return p_prev, d_prev
    slope = 0.5 * (a + b + 2.0)
    p = slope * x + 0.5 * (a - b)
    d = np.full_like(x, slope)
    for j in range(2, n + 1):
        c1 = 2.0 * j * (j + a + b) * (2.0 * j + a + b - 2.0)
        c2 = (2.0 * j + a + b - 1.0) * (a * a - b * b)
        c3 = (
            (2.0 * j + a + b - 2.0)
            * (2.0 * j + a + b - 1.0)
            * (2.0 * j + a + b)
        )
        c4 = 2.0 * (j + a - 1.0) * (j + b - 1.0) * (2.0 * j + a + b)
        lin = c3 * x + c2
        p_new = (lin * p - c4 * p_prev) / c1
        d_new = (lin * d + c3 * p - c4 * d_prev) / c1
        p_prev, p = p, p_new
        d_prev, d = d, d_new
    return p, d


def _jacobi_seeds(m, alpha, beta):
    """Float64 Gauss-Jacobi nodes, ascending: the eigenvalues of the
    symmetric tridiagonal Jacobi matrix of the monic recurrence (Golub &
    Welsch 1969, Math. Comp. 23).

    The k = 0 diagonal entry and the k = 1 off-diagonal entry are taken
    in cancelled form, since the general formulas are 0/0 at
    alpha + beta = 0 and alpha + beta = -1.
    """
    a, b = alpha, beta
    k = np.arange(m, dtype=float)
    s = 2.0 * k + a + b
    diag = np.empty(m)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b * b - a * a) / (s[1:] * (s[1:] + 2.0))
    off2 = np.empty(m - 1)
    off2[:1] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
    k, s = k[2:], s[2:]
    off2[1:] = 4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0))
    # eigvalsh reads only the lower triangle
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(np.sqrt(off2), -1))


@lru_cache(maxsize=128)
def _gauss_jacobi(m, alpha, beta):
    """m-node Gauss rule for the weight (1-x)^alpha (1+x)^beta on (-1, 1).

    Golub-Welsch seeds are sharpened by Newton steps on the recurrence
    in extended precision, and weights rebuilt from
    w ~ 1/((1-x^2) P'^2), scaled to the weight's mass.  The rule's
    relative accuracy bounds how well the tensor mean can resolve a
    cancelling integrand, so float64 nodes would floor Phi/Psi at
    ~1e-16 of the largest V-derivative.
    """
    x = _jacobi_seeds(m, alpha, beta).astype(LONG)
    for _ in range(3):
        p, d = _jacobi_poly(m, alpha, beta, x)
        x = x - p / d
    _, d = _jacobi_poly(m, alpha, beta, x)
    w = 1.0 / ((1.0 - x * x) * d * d)
    mass = LONG(2.0) ** LONG(alpha + beta + 1.0) * LONG(
        math.exp(
            math.lgamma(alpha + 1.0)
            + math.lgamma(beta + 1.0)
            - math.lgamma(alpha + beta + 2.0)
        )
    )
    w *= mass / np.sum(w)
    return x, w


def _jacobi_rule(m, k):
    """Nodes/weights for variable slot k (1-based): Jacobi(-1/2, (k-1)/2)."""
    return _gauss_jacobi(m, -0.5, 0.5 * (k - 1))


@lru_cache(maxsize=64)
def _normalization(g, m):
    """Normalization constant fixed by the diagonal boundary condition.

    With V = xi^(g+2), the unnormalized tensor mean on the full diagonal
    at xi = 1 equals (g+2)! times the product of the weight masses, while
    the boundary condition requires (g+2)!/(2 (g+1)!) = (g+2)/2.
    Computed from the same cached rules, so any common factor in a
    slot's weights cancels exactly against the tensor contraction.
    """
    wtot = LONG(1.0)
    for k in range(1, 2 * g + 3):
        _, w = _jacobi_rule(m, k)
        wtot *= np.sum(w)
    unnorm = wtot * math.factorial(g + 2)
    return (LONG(0.5) * (g + 2)) / unnorm


def _validate_u(g, u):
    u = np.asarray(u)
    if u.shape != (2 * g + 2,):
        raise ValueError(f"endpoint vector must have length {2 * g + 2}")
    if np.any(np.diff(u.astype(float)) > 0.0):
        raise ValueError("endpoints must be in descending order")
    return u


def _tensor_eval(field, g, order, xi, u, m, want_grad=False, dtype=np.float64):
    """Nested-affine tensor quadrature at absolute coordinates.

    Centers one LocalField at the midpoint of the hull of the points and
    the endpoints and hands the exact local offsets to the core.
    Longdouble inputs keep their precision through the offset
    computation.
    """
    xs = np.atleast_1d(np.asarray(xi, dtype=LONG))
    ul = np.asarray(u, dtype=LONG)
    pts = np.concatenate([xs, ul])
    lo, hi = float(pts.min()), float(pts.max())
    lf = LocalField(field, LONG(0.5) * (LONG(lo) + LONG(hi)))
    return _tensor_core(lf, g, order, xs - lf.center_long, ul - lf.center_long,
                        m, want_grad=want_grad, dtype=dtype)


@lru_cache(maxsize=32)
def _rule_vectors(g, m, dtype):
    """The tensor rule's per-slot vectors in dtype, built once, read-only.

    Returns (avecs, bvecs, wvecs, m0, grad_vecs): the pullback factors
    a_k = (1+x_k)/2 and b_k = (1-x_k)/2, the weights w_k, the
    normalization, and for each gradient slot (xi, u_1, ..., u_{2g+2})
    the per-axis vectors its contraction takes: d(arg)/d(xi) factorizes
    as prod_k a_k over the tensor axes, and d(arg)/d(u_j) as b_j times
    the a_k of the later axes.
    """
    nvar = 2 * g + 2
    avecs, bvecs, wvecs = [], [], []
    for k in range(1, nvar + 1):
        x, w = _jacobi_rule(m, k)
        avecs.append((0.5 * (1.0 + x)).astype(dtype))
        bvecs.append((0.5 * (1.0 - x)).astype(dtype))
        wvecs.append(w.astype(dtype))
    one = np.ones(m, dtype=dtype)
    factors = [avecs] + [
        [one if k + 1 < j else bvecs[k] if k + 1 == j else avecs[k]
         for k in range(nvar)]
        for j in range(1, nvar + 1)
    ]
    grad_vecs = tuple(tuple(w * f for w, f in zip(wvecs, fj)) for fj in factors)
    for vecs in (avecs, bvecs, wvecs, *grad_vecs):
        for vec in vecs:
            vec.flags.writeable = False
    return (tuple(avecs), tuple(bvecs), tuple(wvecs), dtype(_normalization(g, m)),
            grad_vecs)


def _contract(tensor, m0, axis_vecs):
    """m0 times tensor contracted over its trailing axes with axis_vecs.

    Each step is np.tensordot(tensor, vec, axes=([-1], [0])) written
    out, bit for bit: tensordot reshapes to (-1, m) and calls np.dot
    against vec as an (m, 1) column, and so does this, without
    tensordot's per-call axis bookkeeping (matmul or einsum would pick
    their own BLAS kernels and summation orders).
    """
    for vec in reversed(axis_vecs):
        m = vec.shape[0]
        tensor = np.dot(tensor.reshape(-1, m), vec.reshape(m, 1)).reshape(
            tensor.shape[:-1])
    return m0 * tensor


def _tensor_core(lf, g, order, dxi, du, m, want_grad=False, dtype=np.float64):
    """Core nested-affine tensor quadrature in local offsets.

    dxi holds the offsets of P evaluation points, du those of the
    endpoints.  Returns the P values and, with want_grad, their (P, 2g+3)
    gradients w.r.t. (xi, u_1, ..., u_{2g+2}).  The points are
    contracted in chunks whose argument tensor holds at most
    _TENSOR_CAP entries.
    """
    nvar = 2 * g + 2
    dxi = np.atleast_1d(np.asarray(dxi).astype(dtype))
    du = np.asarray(du).astype(dtype)
    avecs, bvecs, wvecs, m0, grad_vecs = _rule_vectors(g, m, dtype)

    def args():
        step = max(1, _TENSOR_CAP // m**nvar)
        for start in range(0, len(dxi), step):
            arg = dxi[start:start + step]
            for k in range(nvar):
                arg = np.multiply.outer(arg, avecs[k]) + du[k] * bvecs[k]
            yield arg

    values, grads = [], []
    for arg in args():
        values.append(_contract(lf.deriv(arg, order, dtype=dtype), m0, wvecs))
        if want_grad:
            fprime = lf.deriv(arg, order + 1, dtype=dtype)
            grads.append(np.stack(
                [_contract(fprime, m0, v) for v in grad_vecs], axis=-1))
    if not want_grad:
        return np.concatenate(values)
    return np.concatenate(values), np.concatenate(grads)


def phi_eval(spec, xi, u, m=None, dtype=np.float64):
    """Canonical tensor-quadrature value of Phi_g or Psi_g.

    Parameters
    ----------
    spec : EpdSpec
    xi : float or 1-D array of float
        Evaluation point(s); an array is evaluated in one contraction
        against one LocalField center and returns an array.
    u : sequence of float
        Endpoint vector, descending, length 2g+2 (ties allowed).
    m : int, optional
        Nodes per dimension.  The default is exact for polynomial
        fields (see ``EpdSpec.nodes``) and 32 for g=0, 24 for g=1
        otherwise.
    dtype : numpy dtype
        float64, or longdouble for extended-precision accumulation.
    """
    u = _validate_u(spec.g, u)
    vals = _tensor_eval(spec.field, spec.g, spec.order, xi, u, spec.nodes(m), dtype=dtype)
    return vals if np.ndim(xi) else vals[0]


def phi_eval_grad(spec, xi, u, m=None, dtype=np.float64):
    """Value and gradient of Phi_g/Psi_g w.r.t. (xi, u_1, ..., u_{2g+2}).

    The gradient differentiates under the integral sign, which is exact
    for the quadrature at hand (the integrand's argument is affine in
    every variable).
    """
    u = _validate_u(spec.g, u)
    vals, grads = _tensor_eval(spec.field, spec.g, spec.order, xi, u, spec.nodes(m),
                               want_grad=True, dtype=dtype)
    return vals[0], grads[0]


def phi_eval_anchored(spec, lf, dxi, du, m=None, dtype=np.float64):
    """Phi/Psi with the point and endpoints as local offsets.

    Parameters
    ----------
    spec : EpdSpec
    lf : LocalField
        Field centered at the caller's anchor.
    dxi : float or 1-D array of float
        Offset(s) of the evaluation point(s) from the anchor; an array
        returns an array of values.
    du : sequence of float
        Endpoint offsets, descending, length 2g+2 (ties allowed).

    Callers that keep endpoints as anchor-plus-offset use this entry so
    the tensor arguments are formed from offsets exactly, without the
    absolute coordinates ever rounding through a float.
    """
    du = _validate_u(spec.g, np.asarray(du, dtype=float))
    out = _tensor_core(lf, spec.g, spec.order, np.asarray(dxi, dtype=float),
                       du, spec.nodes(m), dtype=dtype)
    return out if np.ndim(dxi) else out[0]


def epd_residual(spec, xi, u, i, j, h):
    """Finite-difference residual of the hyperbolic pair equation.

    Index 0 denotes the xi slot, indices 1..2g+2 the endpoint slots.
    For i, j >= 1 the residual is

        2 (u_i - u_j) d2F/du_i du_j - dF/du_i + dF/du_j,

    and for a pair involving xi (i = 0 or j = 0, endpoint index i0)

        2 (xi - u_i0) d2F/dxi du_i0 - dF/dxi + 2 dF/du_i0.

    Central differences with step h; the residual of the analytic
    kernels decays as O(h^2).  The stencil values are accumulated in
    extended precision, because the second difference amplifies their
    rounding by 1/h^2.
    """
    if i == j:
        raise ValueError("need two distinct slots")
    u = np.asarray(u, dtype=float)
    mm = spec.nodes()

    def f(dxi, du):
        # bypasses ordering validation: difference stencils may cross ties
        return _tensor_eval(
            spec.field, spec.g, spec.order, float(xi + dxi), u + du, mm,
            dtype=LONG,
        )[0]

    def unit(idx):
        e = np.zeros(len(u))
        e[idx - 1] = 1.0
        return e

    if i == 0 or j == 0:
        i0 = i + j  # the endpoint slot of the pair
        e = unit(i0)
        mixed = (
            f(h, h * e) - f(h, -h * e) - f(-h, h * e) + f(-h, -h * e)
        ) / (4.0 * h * h)
        dxi = (f(h, 0.0 * e) - f(-h, 0.0 * e)) / (2.0 * h)
        dui = (f(0.0, h * e) - f(0.0, -h * e)) / (2.0 * h)
        return float(2.0 * (xi - u[i0 - 1]) * mixed - dxi + 2.0 * dui)
    ei, ej = unit(i), unit(j)
    mixed = (
        f(0.0, h * ei + h * ej)
        - f(0.0, h * ei - h * ej)
        - f(0.0, -h * ei + h * ej)
        + f(0.0, -h * ei - h * ej)
    ) / (4.0 * h * h)
    di = (f(0.0, h * ei) - f(0.0, -h * ei)) / (2.0 * h)
    dj = (f(0.0, h * ej) - f(0.0, -h * ej)) / (2.0 * h)
    return float(2.0 * (u[i - 1] - u[j - 1]) * mixed - di + dj)
