"""Solver for any number of potential jumps.

The solution in every region is written as one or two contour integrals
along the fourth-quadrant sector boundary, driven by the interface values
g0 and derivatives g1 at the n jump locations.  Those 2n unknowns satisfy a
linear system assembled from the global spectral relation of each region,
evaluated at k = +nu_l (regions 1..n) and k = -nu_{l+1} (regions 2..n+1).

The raw matrix carries exponentials that overflow as |kappa| grows, so the
numerics use the factorization A = A_L A_M with A_L diagonal (det A_L = 1):
every entry of A_M and of the rescaled right-hand side stays bounded on the
integration path, and the unknowns come out of A_M directly.  The relation
of region l involves only the jumps that bound it, so A_M is block
tridiagonal in the 2x2 blocks of the pairs (g0, i g1) at each jump, and
solve_unknowns solves it by one forward elimination and back substitution
over the jumps, in closed-form 2x2 arithmetic on the node batch.  The raw
and the dense bounded assembly (interface_system, reduced_system,
rhs_reduced) are kept as the references the tests solve densely.

GeneralSolver adds nothing to the shared core in `step` (`ContourSolver`),
whose one hook, `_interface_data`, builds the interface combination of
every term from the unknowns and the nus that solve_unknowns returns: two
columns per jump x_l, the term of region l there and then that of region
l + 1.  The single jump is the n = 1 case, so StepSolver's d4 form runs
the same code; WellSolver's numerators are the last closed form.  The
rows do not depend on the region, so within one evaluate_grid call the
terms read their columns from rows computed once for all of them: the
tail samples of every term on the fourth-quadrant ladder from one
solve_unknowns call per ladder (step._TailStore), and the nodes
of the tables of the terms on one path once per span (its panel store),
each owner's x-coefficient from the nus solve_unknowns returns.  The
terms themselves (one per neighbouring jump of a region j,
x-coefficient -nu_j at the right jump x_j or +nu_j at the left jump
x_{j-1}, on the fourth-quadrant sector boundary), truncation, node tables,
the panel budget and the free terms come from that core as well.
"""

import numpy as np

from .step import ContourSolver
from .transforms import hat_transform

__all__ = ["GeneralSolver", "interface_system", "reduced_system",
           "rhs_reduced", "solve_unknowns"]


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
    pairs), so det AM equals det of the raw matrix.  Far out on the path
    ldiag overflows; solve_unknowns builds AM alone.
    """
    kap = np.atleast_1d(np.asarray(kappa, dtype=complex))
    n = potential.njumps
    xs = potential.interfaces
    nus = potential.nus(kap)
    ldiag = np.empty((kap.size, 2 * n), dtype=complex)
    for ell in range(1, n + 1):
        ldiag[:, ell - 1] = np.exp(-1j * nus[ell - 1] * xs[ell - 1])
        ldiag[:, n + ell - 1] = np.exp(1j * nus[ell - 1] * xs[ell - 1])
    return ldiag, _bounded_matrix(xs, nus)


def _bounded_matrix(xs, nus):
    """AM of reduced_system from the interfaces xs and the stack nu_1..nu_{n+1}."""
    n = len(xs)
    AM = np.zeros((nus.shape[1], 2 * n, 2 * n), dtype=complex)
    for ell in range(1, n + 1):
        r = ell - 1
        nl = nus[ell - 1]
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
        gap = np.exp(1j * (np_ - nl) * xs[ell - 1])
        AM[:, r, ell - 1] = -np_ * gap
        AM[:, r, n + ell - 1] = -gap
        if ell <= n - 1:
            far = np.exp(1j * (np_ * xs[ell] - nl * xs[ell - 1]))
            AM[:, r, ell] = np_ * far
            AM[:, r, n + ell] = far
    return AM


def rhs_reduced(potential, ic, kappa):
    """Right-hand side matching reduced_system, bounded on the path.

    Row ell uses the region-ell transform with its origin shifted to x_ell,
    which keeps the entries bounded wherever the matrix entries are.
    """
    kap = np.atleast_1d(np.asarray(kappa, dtype=complex))
    nus = potential.nus(kap)
    n = potential.njumps
    H = _hats(potential, ic, nus)
    shift = np.exp(1j * (nus[1:] - nus[:n])
                   * np.asarray(potential.interfaces, dtype=float)[:, None])
    return -np.concatenate((H[:n], shift * H[n:])).T


def _hats(potential, ic, nus):
    """Transforms of the right-hand side from the stack nu_1..nu_{n+1}.

    Rows ell and n + ell: region ell at nu_ell and region ell + 1 at
    -nu_(ell+1), both about x_ell.
    """
    n = potential.njumps
    xs = potential.interfaces
    regions = tuple(range(1, n + 1)) + tuple(range(2, n + 2))
    origins = np.concatenate((xs, xs))
    return hat_transform(ic, potential, regions,
                         np.concatenate((nus[:n], -nus[1:])), origins)


def solve_unknowns(potential, ic, kappa):
    """Interface unknowns (g0^(1..n), i g1^(1..n)) at each kappa node.

    Returns (X, nus): X of shape (nk, 2n), and the stack nu_1..nu_{n+1}
    (potential.nus) it was solved with, which the interface combinations of
    the contour terms reuse.

    The system of reduced_system, with row n + ell divided by the factor
    exp(i (nu_(ell+1) - nu_ell) x_ell) that rhs_reduced puts on it, is
    block tridiagonal in the pairs u_ell = (g0, i g1) at x_ell: jump ell's
    block is [[-nu_ell, 1], [-nu_(ell+1), -1]] (determinant
    nu_ell + nu_(ell+1)); its first row meets u_(ell-1) through
    gap_ell (nu_ell, -1) and its second row meets u_(ell+1) through
    gap_(ell+1) (nu_(ell+1), 1), with gap_ell = exp(i nu_ell (x_ell - x_(ell-1)))
    bounded on the path.  One forward elimination and one back substitution
    over the jumps, in 2x2 arithmetic on whole node arrays, solve it; every
    operation is elementwise, so a node gets the same bits in any batch.
    """
    kap = np.atleast_1d(np.asarray(kappa, dtype=complex))
    n = potential.njumps
    xs = potential.interfaces
    nus = potential.nus(kap)
    H = _hats(potential, ic, nus)
    # forward, over the jumps j = 0..n-1 (x_(j+1) above): with (a, b) the
    # pair (g0, i g1), u_j = y_j - gap_(j+1) (nu_(j+1) a_(j+1) + b_(j+1)) z_j,
    # z_j the eliminated block's inverse times e2
    ys, zs, gaps = [], [], [None]
    for j in range(n):
        nl, nr = nus[j], nus[j + 1]
        f, g = -H[j], -H[n + j]
        if j == 0:
            p, q = -nl, 1.0
        else:
            gap = np.exp(1j * nl * (xs[j] - xs[j - 1]))
            gaps.append(gap)
            (y0, y1), (z0, z1) = ys[-1], zs[-1]
            s = gap * gap * (nl * z0 - z1)
            p, q = -nl * (1.0 + s), 1.0 - s
            f = f - gap * (nl * y0 - y1)
        det = q * nr - p
        ys.append(((-f - q * g) / det, (nr * f + p * g) / det))
        zs.append((-q / det, p / det))
    # back: the last pair is y, each earlier one follows from the next
    X = np.empty((kap.size, 2 * n), dtype=complex)
    a, b = ys[-1]
    for j in range(n - 1, -1, -1):
        if j < n - 1:
            c = gaps[j + 1] * (nus[j + 1] * a + b)
            (y0, y1), (z0, z1) = ys[j], zs[j]
            a, b = y0 - c * z0, y1 - c * z1
        X[:, j], X[:, n + j] = a, b
    return X, nus


class GeneralSolver(ContourSolver):
    """Solution of the n-jump problem from the interface system.

    Works for any njumps >= 1 with ContourSolver's interface-system
    combination; with a single jump it is StepSolver's d4 representation,
    which runs the same code.
    """

    # bound in the class's own namespace, where the benchmark's tracer
    # (perfbench/tracing.py) looks the method up
    evaluate_grid = ContourSolver.evaluate_grid
