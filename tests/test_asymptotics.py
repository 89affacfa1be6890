import numpy as np
import pytest

from schrostep import (
    ForbiddenConeError,
    InitialCondition,
    PiecewisePotential,
    StepSolver,
    leading_order,
    ray_bracket,
    whole_line_hat,
)
from schrostep.oracle import free_gaussian

STEP = PiecewisePotential([1.0, 2.0], [0.0])


def test_forbidden_cone_raises():
    ic = InitialCondition.gaussian()
    with pytest.raises(ForbiddenConeError):
        ray_bracket(STEP, ic, -1.0)
    assert issubclass(ForbiddenConeError, ValueError)


def test_zero_speed_ray_rejected():
    ic = InitialCondition.gaussian()
    with pytest.raises(ValueError):
        ray_bracket(STEP, ic, 0.0)
    # a bool is not a speed, and neither is a non-finite one, a string or
    # one whose square underflows to 0
    for gamma in (True, np.True_, False, np.nan, np.inf, "2.0", 2.0 + 1j, 1e-200, -1e-200):
        for call in (lambda: ray_bracket(STEP, ic, gamma),
                     lambda: leading_order(STEP, ic, gamma, 20.0)):
            with pytest.raises(ValueError, match="^gamma"):
                call()


def test_free_bracket_collapses_to_whole_line_transform():
    ic = InitialCondition.gaussian(center=0.2, width=1.1, momentum=0.4)
    free = PiecewisePotential([0.0, 0.0], [0.0])
    for gamma in (-3.0, 2.0):
        br = ray_bracket(free, ic, gamma)
        assert abs(br - whole_line_hat(ic, gamma / 2.0)) < 1e-13


def test_free_leading_order_matches_exact_envelope():
    ic = InitialCondition.gaussian()
    free = PiecewisePotential([0.0, 0.0], [0.0])
    gamma = 2.0
    t = 60.0
    lo = leading_order(free, ic, gamma, t)
    exact = free_gaussian(np.array([gamma * t]), t, 0.0, 1.0, 0.0, 1.0)[0]
    assert abs(lo - exact) * np.sqrt(t) < 1e-3
    assert abs(abs(lo) - abs(whole_line_hat(ic, gamma / 2.0)) /
               (2.0 * np.sqrt(np.pi * t))) < 1e-15


def test_envelope_scales_as_inverse_sqrt_t():
    ic = InitialCondition.gaussian()
    ts = np.array([20.0, 40.0, 80.0])
    lo = leading_order(STEP, ic, 2.0, ts)
    assert lo.shape == (3,)
    scaled = np.abs(lo) * np.sqrt(ts)
    assert np.max(np.abs(scaled - scaled[0])) < 1e-12 * scaled[0]


def test_positive_time_required():
    ic = InitialCondition.gaussian()
    for t in (0.0, -1.0, np.nan, np.inf, [1.0, np.inf], [20.0, np.nan], True,
              np.True_, [20.0, True], 20.0 + 1j, "20", ["20"], [20.0, "40"], b"20"):
        with pytest.raises(ValueError, match="^t "):
            leading_order(STEP, ic, 2.0, t)


def test_step_ray_approaches_full_solution():
    """One modest-time spot check; long-time decay lives in the acceptance suite."""
    ic = InitialCondition.gaussian()
    t = 20.0
    gamma = 2.0
    full = StepSolver(STEP, ic, representation="realline").evaluate(gamma * t, t)
    lo = leading_order(STEP, ic, gamma, t)
    assert abs(full.value - lo) * np.sqrt(t) < 1e-2
    assert abs(full.value - lo) < 0.5 * abs(lo)
