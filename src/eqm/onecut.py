"""One-band equilibrium measures (g = 0): the endpoint solve and density.

Entry points to ``anchored`` with the mirror flag off.  The endpoint
conditions on [u2, u1] are Chebyshev band means of V' (Deift,
Kriecherbauer & McLaughlin 1998): f2 = int V'/sqrt((u1-mu)(mu-u2)) dmu
vanishes, and m = (1/pi) int (mu - mid) V'/sqrt(...) dmu = (2 half)^2
dPsi_0/du_2 equals 1/pi.
"""

from __future__ import annotations

from . import anchored

__all__ = ["solve_endpoints", "density"]


def solve_endpoints(field, tol=1e-10, max_iter=100):
    """Solve the two one-band endpoint equations by damped Newton.

    The seed brackets the global minimizer of V with the local harmonic
    width.

    Parameters
    ----------
    field : FieldSpec
        Must satisfy the growth condition (see validate_growth).
    tol : float
        Convergence threshold on the max-norm of the residual pair.

    Returns
    -------
    AnchoredSolution
        u2 < u1, mirror False; converged False (with the best iterate)
        when Newton stalls or the band collapses below 1e-12 relative width.
    """
    return anchored.solve(field, tol, max_iter, False)


def density(sol, field, grid_n):
    """Equilibrium density on [u2, u1] sampled at Chebyshev nodes.

    psi = 2 sqrt((u1-xi)(xi-u2)) Phi_0(xi), with Phi_0 from
    ``rhp.band_factor``: a closed-form polynomial for a polynomial
    field, else a principal value of V' over the band at every node,
    summed from one Chebyshev series of V' on the band.
    The result carries the Lagrange constant L(psi) - V at the band
    midpoint.

    Raises
    ------
    NegativeDensity
        If any sample falls below -1e-6 (wrong-ansatz signal); smaller
        negative roundoff is clamped to zero.
    PrecisionLoss
        If the quadrature mass of the samples strays from 1 by more
        than 1e-8.
    """
    return anchored.density(sol, field, grid_n)
