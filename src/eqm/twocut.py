"""Symmetric two-band equilibrium measures for even fields (g = 1).

Entry points to ``anchored`` with the mirror flag on.  The support is
[-u1, -u2] u [u2, u1]; evenness reduces the four endpoint equations to
the one-band pair of 2 W(x), V(mu) = W(mu^2), on the right band: f2 =
int V'/sqrt((u1^2-mu^2)(mu^2-u2^2)) dmu vanishes, and m = (2/pi) int
(mu^2 - (u1^2 + u2^2)/2) V'/sqrt(...) dmu = (2 half)^2 2 (u1 + u2)
dPsi_1/du_2 equals 1/pi.
"""

from __future__ import annotations

from . import anchored
from .errors import NotEven

__all__ = ["solve_endpoints_symmetric", "density_symmetric"]


def solve_endpoints_symmetric(field, tol=1e-10, max_iter=100):
    """Solve the symmetric two-band endpoint equations by damped Newton.

    The seed brackets the positive well of V with the local harmonic
    width.

    Parameters
    ----------
    field : FieldSpec
        Must be even (structurally) and satisfy the growth condition.
    tol : float
        Convergence threshold on the max-norm of the residual pair.

    Returns
    -------
    AnchoredSolution
        Positive-band endpoints 0 < u2 < u1, mirror True: the support is
        [-u1, -u2] u [u2, u1] and anchor/dm/half describe the right band.

    Raises
    ------
    NotEven
        If any field term is odd.
    """
    if not field.is_even:
        raise NotEven("symmetric two-band solve requires an even field")
    return anchored.solve(field, tol, max_iter, True)


def density_symmetric(sol, field, grid_n):
    """Two-band equilibrium density, sampled and mirrored exactly.

    The right band carries grid_n Chebyshev samples of psi =
    2 sqrt((u1^2-xi^2)(xi^2-u2^2)) Phi_1(xi), with Phi_1 from
    ``rhp.band_factor`` on all four edges: a closed-form polynomial for a
    polynomial field, else principal values of V' over both bands at
    every node, from the right band's Chebyshev series and its mirror
    image.  The left band is the right one's exact mirror image, so
    psi(-xi) = psi(xi) holds identically.

    Raises
    ------
    NegativeDensity
        If any sample falls below -1e-6 (ansatz-violation signal).
    PrecisionLoss
        If the total quadrature mass strays from 1 by more than 1e-8.
    """
    return anchored.density(sol, field, grid_n)
