"""The error contract on non-flat single-jump profiles, against an exact reference.

On a flat potential the free Gaussian is exact; on a step, step_reference
is.  It integrates the d4 integrand of each point's region by brute force,
Gauss-Legendre at 40 points per panel, on a contour that needs no
truncation, no tail model and no adaptive refinement: past the stationary
point it bends off the imaginary ray into the third quadrant, where
exp(i kappa^2 t) decays like a Gaussian and outweighs the growth of
exp(i c X), and the half-line transforms of a Gaussian continue there
analytically.  On one jump that sliver holds no pole, so by Cauchy's
theorem the bent contour gives the solvers' integral exactly (on two jumps
it crosses resonance poles: multi-jump references are another matter).

The draws are numpy-seeded, so the whole suite
(PYTHONPATH=src python -m pytest -q) and this file alone test the same
cases.  A form that misses the contract on a draw is pinned as a strict
xfail: the panel error charge min(u, (200 u)^1.5) on the absolute
Kronrod-Gauss difference u (ROADMAP item 2) understates the error at tight
tolerances and with the slope.
"""

import functools

import numpy as np
import pytest

from schrostep import GeneralSolver, InitialCondition, PiecewisePotential, StepSolver, nu
from schrostep.contours import Leg, rotated_boundary
from schrostep.transforms import _hat_rows, free_term

_GL40 = np.polynomial.legendre.leggauss(40)
_TILT, _BEND = np.pi / 8.0, np.pi / 16.0
# exp(-46) < 1e-20: where a leg's integrand has decayed
_DECAYED = 46.0


def _contour(potential, t, X):
    """Legs of the bent contour for points at distance X from the jump.

    In along the ray at angle pi/8 from where |exp(i t z^2)| is below 1e-20,
    round the solvers' arc of radius R (or their corner legs, once
    R^2 t > 2) to the imaginary axis, down it to u_b = 1.5 X / (2t) +
    3 / sqrt(t), past the stationary point X / (2t), round to the angle
    -pi/2 - pi/16 and out along that ray until exp(-t u^2 sin(pi/8))
    outweighs exp(u sin(pi/16) X) by 1e-20.
    """
    R = max(1.0, 1.25 * np.sqrt(2.0 * potential.lam))
    corner = 1.0 / t if R * R * t > 2.0 else None
    inner = rotated_boundary(4, R, 2.0 * R, _TILT, lam=potential.lam, corner=corner).legs
    u = np.exp(1j * _TILT)
    r_max = np.sqrt(_DECAYED / (t * np.sin(2.0 * _TILT)))
    legs = [Leg.line(max(r_max, 2.0 * R) * u, R * u)] + inner[1:-1]
    u_b = max(R, 1.5 * X / (2.0 * t) + 3.0 / np.sqrt(t))
    if u_b > R:
        legs.append(Leg.line(-1j * R, -1j * u_b))
    legs.append(Leg.arc(u_b, -0.5 * np.pi, -0.5 * np.pi - _BEND))
    grow, decay = np.sin(_BEND) * X, t * np.sin(2.0 * _BEND)
    u_max = (grow + np.sqrt(grow * grow + 4.0 * decay * _DECAYED)) / (2.0 * decay)
    e = np.exp(-1j * (0.5 * np.pi + _BEND))
    legs.append(Leg.line(u_b * e, max(u_max, 2.0 * u_b) * e))
    return legs


def _nodes(legs, t, scale, resolution):
    """Gauss-Legendre nodes and weights (times the jacobian) on the legs.

    Each leg gets about one panel per 8 radians of the phase t z^2 + scale z
    along it, times resolution.
    """
    x, w = _GL40
    zs, ws = [], []
    for leg in legs:
        if leg.kind == "arc":
            reach, length = leg.radius, leg.radius * abs(leg.th1 - leg.th0)
        else:
            reach, length = max(abs(leg.z0), abs(leg.z1)), abs(leg.z1 - leg.z0)
        n = resolution * max(2, int(np.ceil((2.0 * t * reach + scale) * length / 8.0)))
        edges = np.linspace(0.0, 1.0, n + 1)
        half = 0.5 * np.diff(edges)[:, None]
        s = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * x
        zs.append(leg.point(s).ravel())
        ws.append((leg.deriv(s) * half * w).ravel())
    return np.concatenate(zs), np.concatenate(ws)


def _reference_at(potential, ic, x, t, resolution):
    """(psi, psi_x) at x: the free term plus the d4 term of x's region."""
    (a1, a2), x0 = potential.levels, potential.interfaces[0]
    region, X = (1 if x < x0 else 2), x - x0
    scale = abs(X) + abs(ic.center) + abs(ic.momentum) + 3.0
    z, w = _nodes(_contour(potential, t, abs(X)), t, scale, resolution)
    n1, n2 = nu(a1, z), nu(a2, z)
    # the transforms ungated: Im nu < 0 past the bend, where a Gaussian's
    # half-line transform continues analytically
    h1, h2 = _hat_rows(ic, np.stack((n1, -n2)),
                       [potential.region_bounds(1), potential.region_bounds(2)], 0.0)
    # the single jump's interface system in closed form (tests/test_general.py)
    if region == 1:
        W, c = -z * (2.0 * h2 + (n1 - n2) / n1 * h1) / (n1 + n2), -n1
    else:
        W, c = z * ((n1 - n2) / n2 * h2 - 2.0 * h1) / (n1 + n2), n2
    g = w * W / (2.0 * np.pi) * np.exp(1j * t * z * z + 1j * c * X)
    F, dF = free_term(ic, potential, region, x, t, derivative=True)
    return F + np.sum(g), dF + np.sum(1j * c * g)


def step_reference(potential, ic, xs, t):
    """(psi, psi_x, gap) of a single-jump problem at the points xs and time t.

    gap is the largest difference between two resolutions, the second with
    twice the panels of the first, whose values are returned; it is
    asserted below 1e-13.
    """
    coarse, fine = (np.array([_reference_at(potential, ic, x, t, r) for x in xs]).T
                    for r in (1, 2))
    gap = float(np.max(np.abs(fine - coarse)))
    assert gap <= 1e-13, gap
    return fine[0], fine[1], gap


@pytest.mark.parametrize("t", [0.05, 0.5, 2.0, 16.0])
def test_reference_matches_d4_at_a_tight_tolerance(t):
    pot = PiecewisePotential([1.0, 2.0], [0.0])
    ic = InitialCondition.gaussian(center=-1.0, momentum=0.7)
    xs = np.linspace(-4.0, 4.0, 5)
    psi, psi_x, _ = step_reference(pot, ic, xs, t)
    got = StepSolver(pot, ic, tolerance=1e-11).evaluate_grid(xs, t, derivative=True)
    assert max(abs(s.value - v) for s, v in zip(got, psi)) < 1e-12
    assert max(abs(s.psi_x - v) for s, v in zip(got, psi_x)) < 1e-12


# Draws: levels uniform in [-2, 2], then the flat property test's ranges
# for center, width, momentum and t (tests/test_step.py).
_RNG = np.random.default_rng(0)
DRAWS = [(tuple(_RNG.uniform(-2.0, 2.0, 2)), _RNG.uniform(-2.0, 2.0),
          _RNG.uniform(0.5, 2.0), _RNG.uniform(-2.0, 2.0), _RNG.uniform(0.05, 16.0))
         for _ in range(6)]
XS = np.linspace(-4.0, 4.0, 5)
TOLERANCES = (1e-8, 1e-10)


@functools.lru_cache(maxsize=None)
def _draw_reference(d):
    levels, center, width, momentum, t = DRAWS[d]
    pot = PiecewisePotential(levels, [0.0])
    ic = InitialCondition.gaussian(center=center, width=width, momentum=momentum)
    return pot, ic, t, step_reference(pot, ic, XS, t)


# The draws whose contract fails, with the worst ratio of deviation to
# estimate over values and, with the slope, psi_x: (draw, form, tolerance,
# slope).  Draw 1 is at t = 0.094, draw 3 at t = 10.4.
MISSES = {
    (1, "realline", 1e-8, True): 1.15,
    (1, "realline", 1e-10, False): 1.58,
    (1, "realline", 1e-10, True): 6.18,
    (3, "d4", 1e-10, True): 1.18,
    (3, "quadrant", 1e-10, False): 2.76,
    (3, "quadrant", 1e-10, True): 5.88,
    (3, "general", 1e-10, True): 1.18,
}


def _cases():
    for d, (levels, *_) in enumerate(DRAWS):
        # realline needs an upward jump
        forms = ["d4", "quadrant", "general"]
        if levels[1] >= levels[0]:
            forms.append("realline")
        for form in forms:
            for tol in TOLERANCES:
                for slope in (False, True):
                    case = (d, form, tol, slope)
                    marks = [pytest.mark.xfail(
                        strict=True, raises=AssertionError,
                        reason="error estimate below the deviation from the exact "
                               "answer ({}x); the panel error charge (ROADMAP "
                               "item 2)".format(MISSES[case]))] if case in MISSES else []
                    yield pytest.param(*case, marks=marks, id="{}-{}-{:g}-{}".format(
                        d, form, tol, "slope" if slope else "value"))


@pytest.mark.parametrize("d, form, tolerance, slope", list(_cases()))
def test_error_contract_on_a_step(d, form, tolerance, slope):
    pot, ic, t, (psi, psi_x, gap) = _draw_reference(d)
    solver = GeneralSolver(pot, ic, tolerance=tolerance) if form == "general" else \
        StepSolver(pot, ic, representation=form, tolerance=tolerance)
    got = solver.evaluate_grid(XS, t, derivative=slope)
    # the reference is known to within its gap between resolutions
    for smp, v, v_x in zip(got, psi, psi_x):
        assert abs(smp.value - v) <= smp.error + gap, smp
        if slope:
            assert abs(smp.psi_x - v_x) <= smp.psi_x_error + gap, smp
