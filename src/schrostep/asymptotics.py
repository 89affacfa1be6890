"""Large-time leading order along rays x = gamma t for the single-jump profile.

Away from the interface the solution disperses like t^(-1/2); following a
ray of constant x/t = gamma freezes a stationary point at k = gamma/2 of
the oscillatory representation on the real line, and the standard
stationary-phase weight produces

    psi(gamma t, t) ~ exp(i (gamma^2/4 - alpha_j) t - i pi/4)
                      / (2 sqrt(pi t)) * [hat_j(gamma/2) + a_j(gamma/2)]

with j = 1 on leftward rays and j = 2 on rightward rays.  a_j is the
reflection/transmission combination of the two one-sided transforms that
also drives the solver weights; it stays real-argument only while
1 + 4 (alpha_j - alpha_j') / gamma^2 > 0.  Inside the opposite cone the
stationary point collides with the branch cut, the ray travels slower than
the cut-off speed of the higher level, and this expansion does not apply;
that condition raises ForbiddenConeError.
"""

import numpy as np

from .kernels import _number, _reals
from .transforms import hat_transform

__all__ = ["ForbiddenConeError", "leading_order", "ray_bracket"]


class ForbiddenConeError(ValueError):
    """The ray x/t = gamma lies inside the cone excluded by the branch cut."""


def _check(potential, gamma):
    if potential.njumps != 1:
        raise ValueError("potential must have a single jump for the ray asymptotics, "
                         "got {}".format(potential.njumps))
    if not np.isfinite(_number(gamma, "gamma")):
        raise ValueError("gamma must be finite, got {!r}".format(gamma))
    if gamma == 0.0:
        raise ValueError("gamma = 0 rides the interface; pick a nonzero ray")
    j = 1 if gamma < 0.0 else 2
    a1, a2 = potential.levels
    delta = (a1 - a2) if j == 1 else (a2 - a1)
    g2 = float(gamma) * float(gamma)
    radicand = 1.0 + 4.0 * delta / g2 if g2 > 0.0 else np.nan
    if not radicand < np.inf:
        raise ValueError("gamma = {!r} is too close to 0: 4 delta / gamma^2 is not "
                         "finite".format(gamma))
    if radicand <= 0.0:
        raise ForbiddenConeError(
            "gamma = {} has speed |gamma| <= {:.6g}, inside the cone where "
            "the stationary point meets the branch cut".format(
                gamma, 2.0 * np.sqrt(-delta)))
    return j, delta, radicand


def ray_bracket(potential, ic, gamma):
    """The t-independent coefficient [hat_j + a_j](gamma/2) of the decay law."""
    j, delta, radicand = _check(potential, gamma)
    k = gamma / 2.0
    sig = np.sqrt(radicand)
    # the own transform, then the two that a_j combines
    if j == 1:
        regions, ks, c1, c2 = (1, 1, 2), (k, -k, k * sig), 1.0 - sig, 2.0
    else:
        regions, ks, c1, c2 = (2, 1, 2), (k, k * sig, -k), 2.0, 1.0 - sig
    h_own, h1, h2 = hat_transform(ic, potential, regions, np.array(ks)[:, None])[:, 0]
    return complex(h_own + (c1 * h1 + c2 * h2) / (1.0 + sig))


def leading_order(potential, ic, gamma, t):
    """Leading-order psi(gamma t, t); t scalar or array, real, finite and
    strictly positive (a bool or a string is refused, naming t)."""
    j = _check(potential, gamma)[0]
    ts = _reals(t)
    if ts is None or not np.all((ts > 0.0) & (ts < np.inf)):
        raise ValueError("t must be finite and positive for the leading order, "
                         "got {!r}".format(t))
    scalar = ts.ndim == 0
    t = np.atleast_1d(ts)
    alpha_j = potential.levels[j - 1]
    bracket = ray_bracket(potential, ic, gamma)
    phase = np.exp(1j * (gamma * gamma / 4.0 - alpha_j) * t - 0.25j * np.pi)
    out = phase / (2.0 * np.sqrt(np.pi * t)) * bracket
    return complex(out[0]) if scalar else out
