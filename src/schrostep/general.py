"""Solver for any number of potential jumps.

The solution in every region is written as one or two contour integrals
along the fourth-quadrant sector boundary, driven by the interface values
g0 and derivatives g1 at the n jump locations.  Those 2n unknowns satisfy a
linear system assembled from the global spectral relation of each region,
evaluated at k = +nu_l (regions 1..n) and k = -nu_{l+1} (regions 2..n+1).

The raw matrix carries exponentials that overflow as |kappa| grows, so the
numerics use the factorization A = A_L A_M with A_L diagonal (det A_L = 1):
every entry of A_M and of the rescaled right-hand side stays bounded on the
integration path, and the unknowns come out of A_M directly.  The raw
assembly is kept for identity checks.

GeneralSolver only declares the terms of a region j: one per neighbouring
jump, with a weight built from the unknowns at that jump, x-coefficient
-nu_j (offset x_j, the right jump) or +nu_j (offset x_{j-1}, the left
jump), on the fourth-quadrant sector boundary.  Truncation, node tables,
the panel budget and the free terms come from the shared core in `step`
(`ContourSolver`).
"""

import numpy as np

from .kernels import nu
from .step import ContourSolver
from .transforms import hat_transform

__all__ = ["GeneralSolver", "interface_system", "reduced_system",
           "rhs_reduced", "solve_unknowns"]

_TWO_PI = 2.0 * np.pi


def interface_system(potential, kappa):
    """Raw coupling matrix of the interface unknowns, one per kappa.

    Unknown ordering: (g0 at x_1..x_n, then i*g1 at x_1..x_n).  Returns an
    array of shape (nk, 2n, 2n).  Entries involve exp(-i nu_l x_l) factors
    that overflow for large |kappa| away from the axes; use reduced_system
    for quadrature work.
    """
    kap = np.atleast_1d(np.asarray(kappa, dtype=complex))
    n = potential.njumps
    xs = potential.interfaces
    nus = potential.nus(kap)
    A = np.zeros((kap.size, 2 * n, 2 * n), dtype=complex)
    for ell in range(1, n + 1):
        r = ell - 1
        nl = nus[ell - 1]
        er = np.exp(-1j * nl * xs[ell - 1])
        A[:, r, ell - 1] = -nl * er
        A[:, r, n + ell - 1] = er
        if ell >= 2:
            el = np.exp(-1j * nl * xs[ell - 2])
            A[:, r, ell - 2] = nl * el
            A[:, r, n + ell - 2] = -el
    for ell in range(1, n + 1):
        r = n + ell - 1
        np_ = nus[ell]
        fl = np.exp(1j * np_ * xs[ell - 1])
        A[:, r, ell - 1] = -np_ * fl
        A[:, r, n + ell - 1] = -fl
        if ell <= n - 1:
            fr = np.exp(1j * np_ * xs[ell])
            A[:, r, ell] = np_ * fr
            A[:, r, n + ell] = fr
    return A


def reduced_system(potential, kappa):
    """Bounded factorization of the coupling matrix.

    Returns (ldiag, AM) with interface_system == ldiag[:, :, None] * AM.
    ldiag has unit determinant (the upper and lower factors cancel in
    pairs), so det AM equals det of the raw matrix.
    """
    kap = np.atleast_1d(np.asarray(kappa, dtype=complex))
    n = potential.njumps
    xs = potential.interfaces
    nus = potential.nus(kap)
    ldiag = np.empty((kap.size, 2 * n), dtype=complex)
    AM = np.zeros((kap.size, 2 * n, 2 * n), dtype=complex)
    for ell in range(1, n + 1):
        r = ell - 1
        nl = nus[ell - 1]
        ldiag[:, r] = np.exp(-1j * nl * xs[ell - 1])
        AM[:, r, ell - 1] = -nl
        AM[:, r, n + ell - 1] = 1.0
        if ell >= 2:
            gap = np.exp(1j * nl * (xs[ell - 1] - xs[ell - 2]))
            AM[:, r, ell - 2] = nl * gap
            AM[:, r, n + ell - 2] = -gap
    for ell in range(1, n + 1):
        r = n + ell - 1
        nl = nus[ell - 1]
        np_ = nus[ell]
        ldiag[:, r] = np.exp(1j * nl * xs[ell - 1])
        gap = np.exp(1j * (np_ - nl) * xs[ell - 1])
        AM[:, r, ell - 1] = -np_ * gap
        AM[:, r, n + ell - 1] = -gap
        if ell <= n - 1:
            far = np.exp(1j * (np_ * xs[ell] - nl * xs[ell - 1]))
            AM[:, r, ell] = np_ * far
            AM[:, r, n + ell] = far
    return ldiag, AM


def rhs_reduced(potential, ic, kappa):
    """Right-hand side matching reduced_system, bounded on the path.

    Row ell uses the region-ell transform with its origin shifted to x_ell,
    which keeps the entries bounded wherever the matrix entries are.
    """
    kap = np.atleast_1d(np.asarray(kappa, dtype=complex))
    n = potential.njumps
    xs = potential.interfaces
    nus = potential.nus(kap)
    Y = np.empty((kap.size, 2 * n), dtype=complex)
    for ell in range(1, n + 1):
        nl = nus[ell - 1]
        Y[:, ell - 1] = -hat_transform(ic, potential, ell, nl,
                                       origin=xs[ell - 1])
        np_ = nus[ell]
        shift = np.exp(1j * (np_ - nl) * xs[ell - 1])
        Y[:, n + ell - 1] = -shift * hat_transform(ic, potential, ell + 1, -np_,
                                                   origin=xs[ell - 1])
    return Y


def solve_unknowns(potential, ic, kappa):
    """Interface unknowns (g0^(1..n), i g1^(1..n)) at each kappa node."""
    _, AM = reduced_system(potential, kappa)
    Y = rhs_reduced(potential, ic, kappa)
    return np.linalg.solve(AM, Y[..., None])[..., 0]


class GeneralSolver(ContourSolver):
    """Solution of the n-jump problem from the interface system.

    Works for any njumps >= 1; with a single jump it reproduces StepSolver's
    d4 representation through the 2x2 system instead of the closed form.
    """

    # bound in the class's own namespace, where the benchmark's tracer
    # (perfbench/tracing.py) looks the method up
    evaluate_grid = ContourSolver.evaluate_grid

    def _weight(self, region, t, side):
        """Integrand weight of one contribution to one region.

        side 'right' couples to the unknowns at the region's right endpoint
        x_j with phase exp(-i nu_j (x - x_j)); side 'left' couples to the
        left endpoint x_{j-1} with phase exp(+i nu_j (x - x_{j-1})).
        """
        pot, ic = self.potential, self.ic
        n = pot.njumps
        j = region
        alpha_j = pot.level(j)

        def W(z, tag):
            z = np.atleast_1d(np.asarray(z, dtype=complex))
            X = solve_unknowns(pot, ic, z)
            nj = nu(alpha_j, z)
            grow = np.exp(1j * z * z * t)
            if side == "right":
                core = z * (X[:, n + j - 1] / nj + X[:, j - 1])
                return -grow * core / _TWO_PI
            core = z * (X[:, n + j - 2] / nj - X[:, j - 2])
            return grow * core / _TWO_PI
        return W

    def _declare(self, region, t):
        pot = self.potential
        j = region
        alpha_j = pot.level(j)
        sides = []
        if j <= pot.njumps:
            sides.append(("right", -1.0, pot.interfaces[j - 1]))
        if j >= 2:
            sides.append(("left", 1.0, pot.interfaces[j - 2]))
        return [(self._weight(j, t, side),
                 lambda z, tag, _s=sgn: _s * nu(alpha_j, np.asarray(z, dtype=complex)),
                 x0, self.sector(4), 2.0 * self.radius)
                for side, sgn, x0 in sides]
