import numpy as np
import pytest

from schrostep import InitialCondition, PiecewisePotential, StepSolver, mirrored, sigma, step_coefficients
from schrostep.oracle import free_gaussian

FREE = PiecewisePotential([0.0, 0.0], [0.0])
UP = PiecewisePotential([1.0, 2.0], [0.0])


def gaussian_ic():
    return InitialCondition.gaussian(center=-1.0, width=1.0, momentum=0.7)


@pytest.mark.parametrize("rep", ["d4", "quadrant", "realline"])
def test_free_potential_reduces_to_free_gaussian(rep):
    ic = gaussian_ic()
    s = StepSolver(FREE, ic, representation=rep)
    xs = np.linspace(-3.0, 3.0, 7)
    got = s.evaluate_grid(xs, 0.5)
    want = free_gaussian(xs, 0.5, -1.0, 1.0, 0.7, 1.0)
    for smp, w in zip(got, want):
        assert abs(smp.value - w) < 1e-8
        assert abs(smp.value - w) <= 5.0 * smp.error + 1e-12


def test_time_zero_returns_initial_condition():
    ic = gaussian_ic()
    s = StepSolver(UP, ic)
    xs = np.array([-1.0, 0.0, 2.0])
    got = s.evaluate_grid(xs, 0.0, derivative=True)
    np.testing.assert_allclose([g.value for g in got], ic.evaluate(xs), rtol=1e-14)
    np.testing.assert_allclose([g.psi_x for g in got], ic.derivative(xs), rtol=1e-14)


def test_representations_agree_on_step():
    ic = gaussian_ic()
    xs = np.linspace(-2.0, 2.0, 5)
    sols = {rep: StepSolver(UP, ic, representation=rep) for rep in
            ("d4", "quadrant", "realline")}
    vals = {rep: s.evaluate_grid(xs, 0.5) for rep, s in sols.items()}
    for ra, rb in (("d4", "quadrant"), ("d4", "realline"), ("quadrant", "realline")):
        for a, b in zip(vals[ra], vals[rb]):
            assert abs(a.value - b.value) <= 5.0 * (a.error + b.error)


def test_interface_continuity():
    ic = gaussian_ic()
    s = StepSolver(UP, ic)
    left = s.evaluate(0.0, 0.5, region=1, derivative=True)
    right = s.evaluate(0.0, 0.5, region=2, derivative=True)
    assert abs(left.value - right.value) < 1e-9
    assert abs(left.psi_x - right.psi_x) < 1e-8


def test_mirrored_covers_downward_step():
    down = PiecewisePotential([2.0, 1.0], [0.0])
    ic = gaussian_ic()
    with pytest.raises(ValueError):
        StepSolver(down, ic, representation="realline")
    mpot, mic = mirrored(down, ic)
    assert tuple(mpot.levels) == (1.0, 2.0)
    sm = StepSolver(mpot, mic, representation="realline")
    sd = StepSolver(down, ic)
    for x in (-1.3, 0.8):
        a = sd.evaluate(x, 0.5)
        b = sm.evaluate(-x, 0.5)
        assert abs(a.value - b.value) <= 5.0 * (a.error + b.error) + 1e-10


def test_negative_time_rejected():
    s = StepSolver(UP, gaussian_ic())
    with pytest.raises(ValueError):
        s.evaluate(0.0, -0.1)


def test_radius_guard():
    with pytest.raises(ValueError):
        StepSolver(UP, gaussian_ic(), radius=1.0)   # sqrt(2*2) = 2


def test_step_coefficients_free_limit():
    # no jump: full transmission, no reflection
    k = np.array([1.5 + 0.2j])
    refl, trans = step_coefficients(FREE, k)
    np.testing.assert_allclose(refl, 0.0, atol=1e-15)
    np.testing.assert_allclose(trans, 1.0, atol=1e-15)


def test_step_coefficients_regions_are_reciprocal():
    k = np.array([3.0 + 0.0j])
    r1, t1 = step_coefficients(UP, k, region=1)
    r2, t2 = step_coefficients(UP, k, region=2)
    s1 = sigma(-1.0, k)   # alpha1 - alpha2
    np.testing.assert_allclose(r1, (1.0 - s1) / (1.0 + s1))
    np.testing.assert_allclose(t1, 2.0 / (1.0 + s1))
    s2 = sigma(1.0, k)
    np.testing.assert_allclose(r2, (1.0 - s2) / (1.0 + s2))
    np.testing.assert_allclose(t2, 2.0 / (1.0 + s2))


def test_error_estimates_are_honest_against_exact():
    ic = InitialCondition.gaussian(center=0.3, width=0.9)
    s = StepSolver(FREE, ic, tolerance=1e-7)
    xs = np.linspace(-2.0, 2.0, 9)
    got = s.evaluate_grid(xs, 0.8)
    want = free_gaussian(xs, 0.8, 0.3, 0.9, 0.0, 1.0)
    for smp, w in zip(got, want):
        assert abs(smp.value - w) <= 5.0 * smp.error + 1e-11


@pytest.mark.xfail(strict=True, reason=(
    "known defect: for 21-point tabulated data the d4 form at tol 1e-8 "
    "reports error 2.01e-9 at x = 2, t = 0.5, but misses the realline "
    "reference by 3.4e-9"))
def test_tabulated_d4_error_estimate_is_honest():
    # a Gaussian (center -1, width 1, momentum 0.7) sampled on 21 points
    # spanning 3.5 widths either side
    x = np.linspace(-4.5, 2.5, 21)
    ic = InitialCondition.tabulated(x, np.exp(-(x + 1.0) ** 2 + 0.7j * x))
    xs = [0.0, 0.2, 2.0, -0.2]
    got = StepSolver(UP, ic, tolerance=1e-8).evaluate_grid(xs, 0.5)
    ref = StepSolver(UP, ic, representation="realline",
                     tolerance=1e-10).evaluate_grid(xs, 0.5)
    for g, r in zip(got, ref):
        assert abs(g.value - r.value) <= g.error + r.error
