"""Spectral building blocks for the piecewise-constant Schrodinger problem.

Everything in this package solves the nondimensional equation (m = 1, hbar = 1)

    i psi_t = -psi_xx + alpha(x) psi

where alpha(x) takes constant values alpha_1, ..., alpha_{n+1} on the regions
cut out by interface points x_1 = 0 < x_2 < ... < x_n.  Two spectral objects
appear in every solution representation:

    omega_j(k)   = i (alpha_j + k^2)
    nu_j(kappa)  = i kappa sqrt(1 + alpha_j / kappa^2)

with the principal square root.  nu_j is odd in kappa, squares to
-(kappa^2 + alpha_j), and flattens to i kappa as |kappa| grows.  Its branch
cut is the segment [-i sqrt(alpha), i sqrt(alpha)] for alpha > 0 and the real
segment [-sqrt(-alpha), sqrt(-alpha)] for alpha < 0; evaluation exactly on the
cut is rejected rather than silently taking a side.

The sign lemma used throughout: off the cut, sgn(Re(-i nu(kappa))) equals
sgn(Re kappa).  A companion fact (same proof, imaginary parts): with
f = -i nu, Re f Im f = Re kappa Im kappa, so Im f and Im kappa share their
sign wherever Re kappa != 0.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BranchCutError",
    "PiecewisePotential",
    "SolutionSample",
    "nu",
    "omega",
]


class BranchCutError(ValueError):
    """Raised when a spectral map is evaluated exactly on its branch cut."""

    def __init__(self, alpha, kappa):
        self.alpha = alpha
        self.kappa = kappa
        super().__init__(
            "kappa = {} lies on the branch cut of nu for alpha = {}".format(kappa, alpha)
        )


def _on_cut_mask(alpha, kap):
    kap = np.asarray(kap)
    if alpha > 0.0:
        return (kap.real == 0.0) & (np.abs(kap.imag) <= np.sqrt(alpha))
    if alpha < 0.0:
        return (kap.imag == 0.0) & (np.abs(kap.real) <= np.sqrt(-alpha))
    return kap == 0.0


def nu(alpha, kappa):
    """Spectral map nu(alpha, kappa) = i kappa sqrt(1 + alpha / kappa^2).

    Accepts a scalar or ndarray kappa and returns a matching complex result.
    Points exactly on the branch cut (including kappa = 0 and the branch
    points +-i sqrt(alpha) or +-sqrt(-alpha)) raise BranchCutError carrying
    the offending kappa.

    The two-factor form keeps the map odd in kappa by construction: the
    radicand is even, the prefactor odd, so nu(-kappa) = -nu(kappa) holds to
    the last bit.
    """
    scalar = np.isscalar(kappa) or np.ndim(kappa) == 0
    kap = np.asarray(kappa, dtype=complex)
    bad = _on_cut_mask(alpha, kap)
    if np.any(bad):
        offending = kap[bad].ravel()[0] if kap.ndim else complex(kap)
        raise BranchCutError(alpha, offending)
    if alpha == 0.0:
        out = 1j * kap
    else:
        out = 1j * kap * np.sqrt(1.0 + alpha / (kap * kap))
    return complex(out) if scalar else out


def omega(alpha, k):
    """Dispersion exponent omega(alpha, k) = i (alpha + k^2)."""
    k = np.asarray(k, dtype=complex)
    out = 1j * (alpha + k * k)
    return complex(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PiecewisePotential:
    """Piecewise-constant potential: n+1 levels separated by n interfaces.

    levels      -- (alpha_1, ..., alpha_{n+1})
    interfaces  -- (x_1, ..., x_n), strictly increasing, x_1 = 0
    """

    levels: tuple
    interfaces: tuple

    def __init__(self, levels, interfaces):
        levels, interfaces = tuple(levels), tuple(interfaces)
        for name, vals in (("levels", levels), ("interfaces", interfaces)):
            if any(isinstance(v, (bool, np.bool_)) for v in vals):
                raise ValueError("{} must be real numbers, got {!r}".format(name, vals))
        levels = tuple(float(a) for a in levels)
        interfaces = tuple(float(x) for x in interfaces)
        if len(interfaces) < 1:
            raise ValueError("need at least one interface")
        if len(levels) != len(interfaces) + 1:
            raise ValueError(
                "need exactly one more level than interfaces, got {} levels "
                "for {} interfaces".format(len(levels), len(interfaces))
            )
        if interfaces[0] != 0.0:
            raise ValueError("first interface must sit at x = 0, got {}".format(interfaces[0]))
        if any(b <= a for a, b in zip(interfaces, interfaces[1:])):
            raise ValueError("interfaces must be strictly increasing: {}".format(interfaces))
        if not all(np.isfinite(levels)):
            raise ValueError("levels must be finite, got {}".format(levels))
        if not all(np.isfinite(interfaces)):
            raise ValueError("interfaces must be finite, got {}".format(interfaces))
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "interfaces", interfaces)

    @property
    def njumps(self):
        return len(self.interfaces)

    @property
    def nregions(self):
        return len(self.levels)

    @property
    def lam(self):
        """Largest |alpha_j|, the branch-scale Lambda of the problem."""
        return max(abs(a) for a in self.levels)

    def region_bounds(self, j):
        """Open interval (a, b) of region j (1-based); infinite at the ends."""
        if not 1 <= j <= self.nregions:
            raise ValueError("region index {} out of range 1..{}".format(j, self.nregions))
        a = -np.inf if j == 1 else self.interfaces[j - 2]
        b = np.inf if j == self.nregions else self.interfaces[j - 1]
        return a, b

    def region_of(self, x):
        """Region index containing x; interface points go with the right side."""
        return int(np.searchsorted(np.asarray(self.interfaces), x, side="right")) + 1

    def level(self, j):
        return self.levels[j - 1]

    def nus(self, kappa):
        """Stack of nu_j(kappa) for j = 1..n+1; shape (n+1,) + shape(kappa)."""
        return np.stack([nu(a, kappa) for a in self.levels])


@dataclass(slots=True)
class SolutionSample:
    """One evaluation of the solution: value, error estimate, optional slope."""

    x: float
    t: float
    value: complex
    error: float
    psi_x: complex = None
    psi_x_error: float = field(default=0.0)
