from functools import partial

import numpy as np
import pytest

from schrostep import (GeneralSolver, InitialCondition, InterfaceMap, PiecewisePotential,
                       StepSolver, WellSolver, mirrored, sigma, step_coefficients)
from schrostep import step as step_module
from schrostep.contours import table_integral
from schrostep.oracle import free_gaussian
from schrostep.step import _OscTail, _pair_tail, eval_terms

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


WELL = PiecewisePotential([0.0, -3.0, 0.0], [0.0, 1.0])

# every contour solver, with a profile it accepts; radius 1 fails the guard on
# both (sqrt(2*2) = 2 and sqrt(2*3) = 2.45)
CONTRACT = {
    "step-d4": (UP, partial(StepSolver, representation="d4")),
    "step-quadrant": (UP, partial(StepSolver, representation="quadrant")),
    "step-realline": (UP, partial(StepSolver, representation="realline")),
    "general": (UP, GeneralSolver),
    "well": (WELL, WellSolver),
    "interface-map": (UP, InterfaceMap),
}


@pytest.mark.parametrize("name", list(CONTRACT))
def test_solver_contract(name):
    pot, make = CONTRACT[name]
    ic = gaussian_ic()
    with pytest.raises(ValueError, match="radius"):
        make(pot, ic, radius=1.0)
    with pytest.raises(ValueError, match="radius"):
        make(pot, ic, radius=np.inf)
    for delta in (0.0, -0.1, np.pi / 4.0, 1.0, np.nan):
        with pytest.raises(ValueError, match="delta"):
            make(pot, ic, delta=delta)
    for tol in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="tolerance"):
            make(pot, ic, tolerance=tol)
    s = make(pot, ic)
    if name == "interface-map":
        x = pot.interfaces[0]
        bad_places = (0, pot.njumps + 1)

        def one(t, place=None, **kw):
            return s.trace(t, 1 if place is None else place, **kw)

        def grid(t, **kw):
            return s.trace_grid([t], **kw)
    else:
        x = -0.5
        bad_places = (0, pot.nregions + 1)

        def one(t, place=None, **kw):
            return s.evaluate(x, t, region=place, **kw)

        def grid(t, **kw):
            return s.evaluate_grid([x], t, **kw)
    for place in bad_places:
        with pytest.raises(ValueError, match="region|interface"):
            one(0.5, place)
    for t in (-0.1, np.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            one(t)
    start = one(0.0, derivative=True)
    assert start.value == ic.evaluate(np.array([x]))[0]
    assert start.psi_x == ic.derivative(np.array([x]))[0]
    assert start.error == 0.0 and start.psi_x_error == 0.0
    assert one(0.0).psi_x is None
    assert one(0.5, derivative=True) == grid(0.5, derivative=True)[0]


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


# -- the per-x layer: one phased sum per term, tails over all x ------------


def _scalar_estimate(o, x, derivative=False):
    """The one-point integration-by-parts tail, with the branch it took."""
    A = o.A * (1j * o.c) if derivative else o.A
    gen = _pair_tail(abs(A[0]), abs(A[1]), o.h, o.K)
    X = x - o.x0
    c1, c2, c3 = o._fd(o.c)
    p1 = -2.0 * o.t * o.K + c1 * X
    if abs(2.0 * o.t * o.K) < 1.3 * abs(c1 * X) or abs(p1) < 1e-12:
        return 0.0j, gen, "stationary point beyond the cut"
    a1, a2, a3 = o._fd(A)
    g = 1j * p1
    gp = 1j * (-2.0 * o.t + c2 * X)
    gpp = 1j * (c3 * X)
    B1 = A[0] / g
    B2 = a1 / g ** 2 - A[0] * gp / g ** 3
    B3 = (a2 / g ** 3 - 3.0 * a1 * gp / g ** 4 - A[0] * gpp / g ** 4
          + 3.0 * A[0] * gp * gp / g ** 5)
    if abs(B2) > 0.5 * abs(B1) or abs(B3) > 0.7 * abs(B2) + 1e-300:
        return 0.0j, gen, "expansion not convergent"
    err = abs(B3) + 1e-13 * abs(B1)
    if gen <= err:
        return 0.0j, gen, "decay bound smaller"
    phi0 = -o.t * o.K * o.K + float(o.c[0]) * X
    return o.sign * np.exp(1j * phi0) * (-B1 + B2 - B3), err, "kept"


def _osc(growth, scale=1.0):
    t, K = 0.5, 10.0

    def weight(z, tag):
        # slowly varying amplitude times the stripped quadratic phase
        return scale * np.exp(-1j * t * z * z + growth * z) / z

    return _OscTail(weight, lambda z, tag: z, 1.0, 1.0, K, t, -1, 0.25, "")


def test_vectorised_osc_tail_matches_scalar_formula_in_every_branch():
    # array and scalar complex arithmetic may round differently in the
    # last bit, so allow a few ulps
    rtol = 4.0 * np.finfo(float).eps
    xs = np.array([-3.0, 0.0, 2.0, 7.0, 9.0, 10.25, -12.0])
    seen = set()
    for o in (_osc(0.0), _osc(8.0), _osc(0.0, scale=0.0)):
        for derivative in (False, True):
            corr, err = o.estimate(xs, derivative)
            for x, c, e in zip(xs, corr, err):
                rc, re_, branch = _scalar_estimate(o, x, derivative)
                seen.add(branch)
                assert abs(c - rc) <= rtol * abs(rc) and abs(e - re_) <= rtol * re_
                assert (c == 0.0) == (branch != "kept")
    assert seen == {"kept", "stationary point beyond the cut",
                    "expansion not convergent", "decay bound smaller"}


def test_tail_model_worst_is_the_largest_point_estimate():
    solver = StepSolver(UP, gaussian_ic())
    tails = solver._terms(1, 0.5, True, 4.0)[0].tails
    xs = np.linspace(-4.0, 0.0, 9)
    for derivative in (False, True):
        worst = tails.worst(xs, derivative=derivative)
        assert isinstance(worst, float)
        each = [tails.at(x, derivative)[1] for x in xs]
        assert worst == max([tails.generic_deriv if derivative else tails.generic] + each)


def test_eval_terms_sums_each_term_once_over_all_x(monkeypatch):
    calls = []

    def spy(table, W, C=None, X=None, derivative=False):
        out = table_integral(table, W, C, X, derivative)
        calls.append((X, out))
        return out

    monkeypatch.setattr(step_module, "table_integral", spy)
    terms = StepSolver(UP, gaussian_ic())._terms(1, 0.5, True, 4.0)
    xs = np.linspace(-4.0, -0.05, 80)
    got = eval_terms(terms, xs, 1e-8, derivative=True)
    assert len(calls) == len(terms) == 1
    X, sums = calls[0]
    np.testing.assert_array_equal(X, xs - terms[0].x_offset)
    # the phased sums plus the tails, evaluated over all x at once
    corr, tail = terms[0].tails.at(xs)
    dcorr, dtail = terms[0].tails.at(xs, derivative=True)
    for a, b in zip(got, (sums[0] + corr, sums[1] + tail, sums[2] + dcorr,
                          sums[3] + dtail)):
        np.testing.assert_array_equal(a, b)
