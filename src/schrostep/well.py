"""Closed forms for the symmetric two-jump profile (0, alpha, 0).

With interfaces at 0 and x2 the 4x4 interface system collapses: the four
spectral unknowns have explicit numerators over the single denominator
D = P^2 e^{2 i nu x2} - M^2,  P = nu - i kappa,  M = nu + i kappa,
where nu is the middle-region root.  D is proportional to the trigonometric
combination whose real zeros mark the bound states when alpha < 0:

    D = -2i e^{i nu x2} * [(alpha + 2 kappa^2) sin(x2 nu) + 2 kappa nu cos(x2 nu)]

The same data build the transmission-normalization coefficient a(xi) of the
stationary problem; a vanishes at xi = i beta exactly where that
trigonometric factor vanishes at kappa = beta, and `bound_states`
enumerates those beta.

WellSolver evaluates the time evolution from the closed forms with every
term on the fourth-quadrant sector boundary in kappa (the 'd4' form of
StepSolver).  It only declares the terms of a region: one for each outer
region (offset 0 on the left, x2 on the right) and two for the middle one
(offsets x2 and 0); truncation, node tables, the panel budget and the free
terms come from the shared core in `step` (`ContourSolver`).
Profiles with nonzero outer levels or asymmetric outer levels belong to
GeneralSolver.
"""

import numpy as np

from .kernels import nu
from .step import ContourSolver
from .transforms import hat_transform

__all__ = ["WellSolver", "scattering_a", "bound_states", "trig_denominator"]

_TWO_PI = 2.0 * np.pi


def scattering_a(alpha, x2, xi):
    """Transmission-normalization coefficient of the stationary problem.

    a(xi) = e^{i xi x2} (cosh(x2 m) - i (2 xi^2 - alpha) sinh(x2 m) / (2 xi m))
    with m = sqrt(alpha - xi^2).  The expression is even in m, so the branch
    of the square root never matters; a small-argument series keeps
    sinh(x2 m)/m stable near m = 0.  xi may be complex (xi = i beta probes
    the bound states); xi = 0 is outside the domain.
    """
    xi = np.asarray(xi, dtype=complex)
    scalar = xi.ndim == 0
    xi = np.atleast_1d(xi)
    if np.any(xi == 0.0):
        raise ValueError("a(xi) is undefined at xi = 0")
    m = np.sqrt(alpha - xi * xi + 0j)
    w = x2 * m
    small = np.abs(w) < 1e-4
    ws = np.where(small, w, 0.0)
    shc = np.where(small,
                   x2 * (1.0 + ws * ws / 6.0 + ws ** 4 / 120.0),
                   np.sinh(np.where(small, 1.0, w)) / np.where(small, 1.0, m))
    out = np.exp(1j * xi * x2) * (np.cosh(w) - 1j * (2.0 * xi * xi - alpha)
                                  / (2.0 * xi) * shc)
    return complex(out[0]) if scalar else out


def trig_denominator(alpha, x2, kappa):
    """(alpha + 2 kappa^2) sin(x2 nu) + 2 kappa nu cos(x2 nu), nu the middle root.

    Real kappa inside the branch cut of a negative alpha is evaluated with
    the one-sided root from below, nu = +sqrt(|alpha| - kappa^2), which is
    where the bound-state zeros sit.
    """
    kap = np.asarray(kappa, dtype=complex)
    scalar = kap.ndim == 0
    kap = np.atleast_1d(kap)
    nuv = np.empty(kap.shape, dtype=complex)
    if alpha < 0.0:
        on_cut = (kap.imag == 0.0) & (np.abs(kap.real) < np.sqrt(-alpha))
        nuv[on_cut] = np.sqrt(-alpha - kap[on_cut].real ** 2)
        rest = ~on_cut
        if np.any(rest):
            nuv[rest] = nu(alpha, kap[rest])
    else:
        nuv[:] = nu(alpha, kap)
    out = (alpha + 2.0 * kap * kap) * np.sin(x2 * nuv) \
        + 2.0 * kap * nuv * np.cos(x2 * nuv)
    return complex(out[0]) if scalar else out


def bound_states(alpha, x2, grid=1000):
    """Bound-state parameters beta in (0, sqrt(-alpha)), increasing.

    The eigenvalues of the well sit at energy -beta^2 where
    2 beta q cos(x2 q) + (2 beta^2 + alpha) sin(x2 q) = 0, q = sqrt(-alpha
    - beta^2).  Sign changes on a fine grid are polished by bisection.
    Nonnegative alpha binds nothing and returns an empty array.
    """
    if alpha >= 0.0:
        return np.array([])
    from scipy.optimize import brentq

    bmax = np.sqrt(-alpha)

    def f(beta):
        q = np.sqrt(max(-alpha - beta * beta, 0.0))
        return 2.0 * beta * q * np.cos(x2 * q) \
            + (2.0 * beta * beta + alpha) * np.sin(x2 * q)

    bs = np.linspace(bmax * 1e-6, bmax * (1.0 - 1e-9), grid)
    fs = np.array([f(b) for b in bs])
    roots = []
    for i in range(len(bs) - 1):
        if fs[i] == 0.0:
            roots.append(bs[i])
        elif fs[i] * fs[i + 1] < 0.0:
            roots.append(brentq(f, bs[i], bs[i + 1], xtol=1e-12, rtol=1e-15))
    return np.array(roots)


class WellSolver(ContourSolver):
    """Time evolution over the profile (0, alpha, 0) with jumps at 0 and x2."""

    def __init__(self, potential, ic, tolerance=1e-8, radius=None,
                 delta=np.pi / 8.0):
        if potential.njumps != 2:
            raise ValueError("WellSolver needs exactly two interfaces")
        if potential.levels[0] != 0.0 or potential.levels[2] != 0.0:
            raise ValueError("WellSolver covers outer levels 0 only; "
                             "use GeneralSolver for other profiles")
        super().__init__(potential, ic, tolerance, radius, delta)
        self.alpha = potential.levels[1]
        self.x2 = potential.interfaces[1]

    # bound in the class's own namespace, where the benchmark's tracer
    # (perfbench/tracing.py) looks the method up
    evaluate_grid = ContourSolver.evaluate_grid

    # -- closed-form pieces ------------------------------------------------

    def _data(self, kap, nuv):
        """The four transform inputs, each bounded on the integration path."""
        ic, pot, x2 = self.ic, self.potential, self.x2
        p = -hat_transform(ic, pot, 1, 1j * kap)
        qs = -hat_transform(ic, pot, 2, nuv, origin=x2)
        r = -hat_transform(ic, pot, 2, -nuv)
        sp = -hat_transform(ic, pot, 3, -1j * kap, origin=x2)
        return p, qs, r, sp

    def _numerators(self, kap, nuv, which):
        """Selected spectral numerator over the common denominator."""
        al, x2 = self.alpha, self.x2
        P = nuv - 1j * kap
        M = nuv + 1j * kap
        Ep = np.exp(1j * nuv * x2)
        e2 = Ep * Ep
        D = P * P * e2 - M * M
        p, qs, r, sp = self._data(kap, nuv)
        if which == "B1":
            N = 1j * al * p * (e2 - 1.0) + 2.0 * kap * P * Ep * qs \
                + 2.0 * kap * M * r + 4.0 * kap * nuv * Ep * sp
        elif which == "B3":
            N = -1j * al * sp * (e2 - 1.0) - 4.0 * kap * nuv * Ep * p \
                - 2.0 * kap * M * qs - 2.0 * kap * P * Ep * r
        elif which == "A":
            N = 2.0 * nuv * P * Ep * p + P * P * Ep * r - al * qs \
                + 2.0 * nuv * M * sp
        else:
            N = -2.0 * nuv * M * p - P * P * Ep * qs + al * r \
                - 2.0 * nuv * P * Ep * sp
        return N / D

    # -- weights -----------------------------------------------------------

    def _w_d4(self, region, t):
        al = self.alpha

        def W(z, tag):
            kap = np.atleast_1d(np.asarray(z, dtype=complex))
            nuv = nu(al, kap)
            grow = np.exp(1j * kap * kap * t)
            if region == 1:
                return -grow * self._numerators(kap, nuv, "B1") / _TWO_PI
            if region == 3:
                return grow * self._numerators(kap, nuv, "B3") / _TWO_PI
            raise ValueError("region 2 uses two dedicated weights")
        return W

    def _w_d4_mid(self, which, t):
        al = self.alpha
        sgn = -1.0 if which == "A" else 1.0

        def W(z, tag):
            kap = np.atleast_1d(np.asarray(z, dtype=complex))
            nuv = nu(al, kap)
            grow = np.exp(1j * kap * kap * t)
            return sgn * grow * (kap / nuv) * self._numerators(kap, nuv, which) \
                / _TWO_PI
        return W

    # -- term declarations ---------------------------------------------------

    def _declare(self, region, t):
        al, x2 = self.alpha, self.x2
        T0 = 2.0 * self.radius
        if region == 1:
            return [(self._w_d4(1, t),
                     lambda z, tag: -1j * np.asarray(z, dtype=complex),
                     0.0, self.sector(4, t), T0)]
        if region == 3:
            return [(self._w_d4(3, t),
                     lambda z, tag: 1j * np.asarray(z, dtype=complex),
                     x2, self.sector(4, t), T0)]
        return [(self._w_d4_mid("A", t),
                 lambda z, tag: -nu(al, np.asarray(z, dtype=complex)),
                 x2, self.sector(4, t), T0),
                (self._w_d4_mid("B", t),
                 lambda z, tag: nu(al, np.asarray(z, dtype=complex)),
                 0.0, self.sector(4, t), T0)]
