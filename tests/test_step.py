from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from schrostep import (GeneralSolver, InitialCondition, InterfaceMap, PiecewisePotential,
                       StepSolver, WellSolver, free_term, mirrored, sigma,
                       step_coefficients)
from schrostep import step as step_module
from schrostep.contours import table_integral
from schrostep.oracle import free_gaussian
from schrostep.step import _OscTail, _pair_tail, choose_truncation, eval_terms

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


@pytest.mark.parametrize("center", [-1e3, -1e4, -1e5])
def test_free_terms_far_from_the_jump_meet_the_free_gaussian(center):
    # the free term's saddle exponent is the free Gaussian's own: formed from
    # the uncentred y, two terms of size (center/width)^2 cancelled in it,
    # and d4 missed by 9.4e-11, 8.2e-9 and 3.2e-7 at these centers
    ic = InitialCondition.gaussian(center=center, width=1.0, momentum=0.7)
    xs = np.array([center + 0.3, center + 1.5])
    want = free_gaussian(xs, 0.5, center, 1.0, 0.7)
    free = free_term(ic, FREE, 1, xs, 0.5) + free_term(ic, FREE, 2, xs, 0.5)
    assert np.max(np.abs(free - want)) < 1e-10
    got = StepSolver(FREE, ic, representation="d4").evaluate_grid(xs, 0.5)
    assert max(abs(smp.value - w) for smp, w in zip(got, want)) < 1e-10


def check_flat_contract(rep, alpha, center, width, momentum, t, tolerance=1e-8,
                        derivative=False):
    # with equal levels (alpha, alpha) the exact solution is the free
    # Gaussian times exp(-i alpha t), whatever the representation's contour
    # (rep "general" is GeneralSolver).  With derivative the call carries
    # the slope, whose stacked column changes the refinement, and psi_x is
    # checked too, against psi (i mu - 2 (x - c - 2 mu t) / (w^2 + 4 i t))
    pot = PiecewisePotential([alpha, alpha], [0.0])
    ic = InitialCondition.gaussian(center=center, width=width, momentum=momentum)
    xs = np.linspace(-4.0, 4.0, 5)
    want = free_gaussian(xs, t, center, width, momentum) * np.exp(-1j * alpha * t)
    want_x = want * (1j * momentum
                     - 2.0 * (xs - center - 2.0 * momentum * t) / (width ** 2 + 4j * t))
    solver = GeneralSolver(pot, ic, tolerance=tolerance) if rep == "general" else \
        StepSolver(pot, ic, representation=rep, tolerance=tolerance)
    got = solver.evaluate_grid(xs, t, derivative=derivative)
    for smp, w, w_x in zip(got, want, want_x):
        assert abs(smp.value - w) <= smp.error, smp
        if derivative:
            assert abs(smp.psi_x - w_x) <= smp.psi_x_error, smp


# The error contract |psi - psi_exact| <= error fails on these draws of the
# property test below; the worst ratio of deviation to estimate is given.
# (rep, alpha, center, width, momentum, t).
DISHONEST_CASES = [
    ("d4", 0.375, 0.0, 1.0, 0.0, 16.0),          # x = 0: 1.07
    ("realline", 0.0, 2.0, 0.5, 0.0, 2.0),       # x = 4: 9.98
]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="error estimate below the deviation from the exact "
                          "answer; see CHANGES.md")
@pytest.mark.parametrize("case", DISHONEST_CASES, ids=lambda c: c[0])
def test_error_contract_known_dishonest_cases(case):
    check_flat_contract(*case)


def test_error_contract_of_quadrant_at_t_15():
    # a dishonest draw (1.04x at x = 2) while the quadrant rays resolved
    # exp(-i kappa^2 t) node by node; on chirp legs the worst ratio is 0.25
    check_flat_contract("quadrant", 0.375, 0.0, 1.0, 0.0, 15.0)


def test_error_contract_of_d4_at_tolerance_1e_10():
    # the first dishonest draw at a tighter tolerance: while the ray's 7-15
    # panels resolved exp(i kappa^2 t) node by node it missed by 6.44x at
    # x = -2; now the deviation is 2.0e-14 against an estimate of 9.9e-12
    check_flat_contract("d4", 0.375, 0.0, 1.0, 0.0, 16.0, tolerance=1e-10)


# A draw inside the property test's ranges that misses the tolerance itself:
# (alpha, center, width, momentum, t), at tolerance 1e-8.  d4 and
# GeneralSolver miss by 9.64x without the slope and are honest with it;
# realline misses by 8.73x on values without the slope, and by 8.86x on
# psi_x (2.39x on values) with it; quadrant is honest.
MISSES_TOLERANCE = (1.7097, 1.8717, 0.5221, 1.4546, 15.70)

# Draws that miss the contract only in a call with the slope, worst ratios
# on values and on psi_x given.  The quadrant draw is one of the property
# test's own in a run of the whole suite (honest without the slope, 0.26);
# the last two come from 12 draws per form of the same ranges with the slope.
# (rep, alpha, center, width, momentum, t).
SLOPE_MISSES = [
    ("quadrant", 0.5860872354676911, 1.4095338949820715e-05, 1.1,
     -1.7823397344402574, 8.32122250028885),                    # 1.69, 1.34
    ("d4", 0.5860872354676911, 1.4095338949820715e-05, 1.1,
     -1.7823397344402574, 8.32122250028885),                    # 1.68, 1.52
    ("d4", -0.8841110643858154, 0.021589315601020953, 1.8241961550427694,
     -1.3136940443632286, 6.31874135946947),                    # 4.60, 2.72
    ("d4", -0.5092629782330105, -2.0, 0.5535287394126984,
     1.5728239095033718, 11.33843100656486),                    # 4.60, 3.70
]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="error estimate below the deviation from the exact "
                          "answer; the panel error charge (ROADMAP item 2)")
@pytest.mark.parametrize("case", [(rep, *MISSES_TOLERANCE, 1e-8, slope)
                                  for rep, slope in [("d4", False), ("general", False),
                                                     ("realline", False),
                                                     ("realline", True)]]
                         + [case + (1e-8, True) for case in SLOPE_MISSES],
                         ids=lambda c: "{}-{}-t{:.4g}".format(
                             c[0], "slope" if c[-1] else "value", c[5]))
def test_error_contract_known_dishonest_draws(case):
    check_flat_contract(*case)


@pytest.mark.parametrize("rep, derivative", [("d4", True), ("general", True),
                                             ("quadrant", False), ("quadrant", True)])
def test_error_contract_where_the_draw_that_misses_the_tolerance_is_honest(rep,
                                                                          derivative):
    check_flat_contract(rep, *MISSES_TOLERANCE, derivative=derivative)


# Shrinking a failing draw took up to 19 s; a failure reports the draw as
# generated instead.
@pytest.mark.parametrize("rep", ["d4", "quadrant", "realline"])
@settings(max_examples=12, deadline=None, derandomize=True,
          phases=[Phase.generate])
@given(alpha=st.floats(-2.0, 2.0), center=st.floats(-2.0, 2.0),
       width=st.floats(0.5, 2.0), momentum=st.floats(-2.0, 2.0),
       t=st.floats(0.05, 16.0))
def test_error_contract_on_flat_potential(rep, alpha, center, width, momentum, t):
    check_flat_contract(rep, alpha, center, width, momentum, t)


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


def test_mirrored_tabulated_step_matches_at_minus_x():
    # the mirror-symmetry reference for tabulated data: psi'(-x) = psi(x)
    # and psi_x'(-x) = -psi_x(x), each within the summed estimates
    xt = np.linspace(-4.5, 2.5, 21)
    ic = InitialCondition.tabulated(xt, gaussian_ic().evaluate(xt))
    mpot, mic = mirrored(UP, ic)
    assert tuple(mpot.levels) == (2.0, 1.0)
    np.testing.assert_array_equal(mic.x_table, -xt[::-1])
    xs = np.array([-2.5, -1.0, -0.3, 0.4, 1.5])
    got = StepSolver(UP, ic).evaluate_grid(xs, 0.5, derivative=True)
    ref = StepSolver(mpot, mic).evaluate_grid(-xs, 0.5, derivative=True)
    for a, b in zip(got, ref):
        assert a.x == -b.x
        assert abs(a.value - b.value) <= a.error + b.error
        assert abs(a.psi_x + b.psi_x) <= a.psi_x_error + b.psi_x_error


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
    # 1e155: R * R overflows; above 2000 the first truncation rung 2R lies
    # past the ladder's cap of 4000 (1e8 ground through ~5e7 chirp pieces,
    # 1e100 overflowed np.arange)
    for radius in (1.0, np.inf, 1e155, 2001.0, 1e8, 1e100):
        with pytest.raises(ValueError, match="radius"):
            make(pot, ic, radius=radius)
    for tol in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="tolerance"):
            make(pot, ic, tolerance=tol)
    # a bool or a string is not a number, though float() takes them
    for field, bad in (("tolerance", True), ("tolerance", np.True_), ("tolerance", "1e-3"),
                       ("tolerance", b"1e-3"), ("tolerance", None), ("radius", "3"),
                       ("radius", True), ("radius", 3.0 + 0j)):
        with pytest.raises(ValueError, match="^" + field):
            make(pot, ic, **{field: bad})
    s = make(pot, ic)
    if name == "interface-map":
        x = pot.interfaces[0]
        bad_places = (0, pot.njumps + 1, 1.5)

        def one(t, place=None, **kw):
            return s.trace(t, 1 if place is None else place, **kw)

        def grid(t, **kw):
            return s.trace_grid([t], **kw)
    else:
        x = -0.5
        bad_places = (0, pot.nregions + 1, 1.5)

        def one(t, place=None, **kw):
            return s.evaluate(x, t, region=place, **kw)

        def grid(t, **kw):
            return s.evaluate_grid([x], t, **kw)
    # a bool is not a region or jump number, though True == 1
    for place in bad_places + (True, np.True_):
        with pytest.raises(ValueError, match="^(region|interface)"):
            one(0.5, place)
    # an integral float is one
    assert one(0.5, 1.0) == one(0.5, 1)
    for t in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            one(t)
    start = one(0.0, derivative=True)
    assert start.value == ic.evaluate(np.array([x]))[0]
    assert start.psi_x == ic.derivative(np.array([x]))[0]
    assert start.error == 0.0 and start.psi_x_error == 0.0
    assert one(0.0).psi_x is None
    assert one(0.5, derivative=True) == grid(0.5, derivative=True)[0]
    # derivative is True or False: None, a string or 2 would be summed as a
    # count of slope columns or taken as true
    for bad in (None, "yes", "no", 2, 1, 0, 1.0, np.array([True])):
        for call in (one, grid):
            for t in (0.0, 0.5):
                with pytest.raises(ValueError, match="^derivative"):
                    call(t, derivative=bad)
    assert one(0.5, derivative=np.True_) == one(0.5, derivative=True)
    assert one(0.5, derivative=np.False_) == one(0.5)
    if name != "interface-map":
        for bad in (np.nan, np.inf, -np.inf):
            for t in (0.0, 0.5):
                with pytest.raises(ValueError, match="finite"):
                    s.evaluate_grid([x, bad], t)
    # a bool is not a time or a point, alone or in a sequence, though
    # float() takes it as 1.0 or 0.0
    bools = (True, np.True_, [0.5, True], [np.False_, 0.5], np.array([True, False]))
    for bad in bools:
        with pytest.raises(ValueError, match="^t must"):
            if name == "interface-map":
                s.trace_grid(bad, 1)
            else:
                s.evaluate_grid([x], bad)
        if np.ndim(bad) == 0:
            with pytest.raises(ValueError, match="^t must"):
                one(bad)
        if name != "interface-map":
            with pytest.raises(ValueError, match="^x must"):
                s.evaluate_grid([x, bad] if np.ndim(bad) == 0 else bad, 0.5)
            if np.ndim(bad) == 0:
                with pytest.raises(ValueError, match="^x must"):
                    s.evaluate(bad, 0.5)


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


def _scalar_estimate(o, x, j):
    """The one-point integration-by-parts tail of column j, with the branch it took."""
    A = o.A[:, j]
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

    # the value column and the slope column i c A, c = z, as a search stacks them
    z = _OscTail.nodes(1.0, K)
    A = weight(z, "") * np.exp(1j * t * z * z)
    return _OscTail(np.vstack((A, 1j * z * A)), z, K, t, -1, 0.25)


def test_vectorised_osc_tail_matches_scalar_formula_in_every_branch():
    # array and scalar complex arithmetic may round differently in the
    # last bit, so allow a few ulps
    rtol = 4.0 * np.finfo(float).eps
    xs = np.array([-3.0, 0.0, 2.0, 7.0, 9.0, 10.25, -12.0])
    seen = set()
    for o in (_osc(0.0), _osc(8.0), _osc(0.0, scale=0.0)):
        corr, err = o.estimate(xs)
        assert corr.shape == err.shape == (xs.size, 2)
        for j in range(2):
            for x, c, e in zip(xs, corr[:, j], err[:, j]):
                rc, re_, branch = _scalar_estimate(o, x, j)
                seen.add(branch)
                assert abs(c - rc) <= rtol * abs(rc) and abs(e - re_) <= rtol * re_
                assert (c == 0.0) == (branch != "kept")
    assert seen == {"kept", "stationary point beyond the cut",
                    "expansion not convergent", "decay bound smaller"}


def test_tail_model_worst_is_the_largest_point_estimate():
    solver = StepSolver(UP, gaussian_ic())
    every_time = solver._terms(1, 0.5, True, 4.0)[0].tails
    (tails,) = every_time
    xs = np.linspace(-4.0, 0.0, 9)
    worst = tails.worst(xs)
    assert isinstance(worst, float)
    # over psi and psi_x, the two columns of the model
    each = [tails.at(x)[1] for x in xs]
    assert worst == max(np.max(tails.generic), np.max(each))
    # the keyword of worst changes nothing: the slope is in the model
    assert every_time.worst(xs, derivative=False) == \
        every_time.worst(xs, derivative=True) == worst


@pytest.mark.parametrize("rep, region", [("d4", 1), ("d4", 2), ("quadrant", 1),
                                         ("quadrant", 2)])
def test_chirp_ray_tail_matches_the_stripped_phase_model(rep, region):
    # a sector path's weight leaves out the phase exp(i rate kappa^2) that
    # its quadrature weights carry; the same path at rate 0, with that phase
    # put back into the weight, must give the same tails
    solver = StepSolver(UP, gaussian_ic(), representation=rep)
    W, xc, x0, builder, T0, _ = solver._declare(region, 0.5)[0]
    xs = np.linspace(-6.0, 6.0, 25)
    kept = 0
    for T in (T0, 2.0 * T0, 6.0 * T0):
        path, spec = builder(T)
        assert path.legs[-1].kind == "chirp" and len(path.rates) == 1
        (rate,) = path.rates
        assert abs(rate) == 0.5
        whole = lambda z, tag: np.exp(1j * rate * z * z) * W(z, tag)
        # psi and psi_x, as a search with the slope samples them
        chirp, stripped = (
            _one_rung(lambda _, p=p: (p, spec), w, xc, 0.5, x0, T, derivative=True)[1][0]
            for p, w in ((path, W), (replace(path, rates=(0.0,)), whole)))
        # the decaying leg's tail is taken with the phase in both
        assert chirp.generic == pytest.approx(stripped.generic, rel=1e-12)
        got, want = chirp.at(xs), stripped.at(xs)
        assert got[0].shape == (xs.size, 2)
        np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=0.0)
        # the estimates (third differences of A with step 0.05, or the
        # decay bound's log |A(K - 0.05) / A(K)|) magnify the rounding of
        # exp(i t u^2) in the stripped samples: 2.4e-10 apart at most
        np.testing.assert_allclose(got[1], want[1], rtol=1e-8, atol=0.0)
        kept += np.count_nonzero(got[0])
    assert kept > 0


def test_eval_terms_sums_each_term_once_over_all_x(monkeypatch):
    calls = []

    def spy(table, W, C, X):
        out = table_integral(table, W, C, X)
        calls.append((W, C, X, out))
        return out

    monkeypatch.setattr(step_module, "table_integral", spy)
    terms = StepSolver(UP, gaussian_ic())._terms(1, 0.5, True, 4.0)
    xs = np.linspace(-4.0, -0.05, 80)
    vals, errs = eval_terms(terms, xs, 1e-8)
    assert len(calls) == len(terms) == 1
    W, C, X, (sums, sum_errs) = calls[0]
    np.testing.assert_array_equal(X, xs - terms[0].x_offset)
    # the slope is the stacked column i C W
    np.testing.assert_array_equal(W[1], 1j * C * W[0])
    # the phased sums plus the tails, evaluated over all x and both
    # columns at once: one row for the one time, then psi and psi_x
    corr, tail = terms[0].tails[0].at(xs)
    assert vals.shape == errs.shape == (1, 2, xs.size)
    np.testing.assert_array_equal(vals[0], sums[0] + corr.T)
    np.testing.assert_array_equal(errs[0], sum_errs[0] + tail.T)


@pytest.mark.parametrize("rep", ["d4", "quadrant"])
def test_slope_tails_are_the_stacked_column_i_c_w(rep):
    # a term searched with the slope holds psi_x as the second column of
    # its tail model: each column is the model of W alone, or of i c W
    # alone, on the same path and samples
    solver = StepSolver(UP, gaussian_ic(), representation=rep)
    (term,) = solver._terms(1, 0.5, True, 4.0)
    assert term.derivative
    W, xc, x0, builder, _, _ = solver._declare(1, 0.5)[0]
    T = term.path.reach()
    path, spec = builder(T)
    assert path.legs == term.path.legs
    slope = lambda z, tag: 1j * xc(z, tag) * W(z, tag)
    xs = np.linspace(-6.0, 0.0, 13)
    corr, err = term.tails[0].at(xs)
    assert corr.shape == err.shape == (xs.size, 2)
    for j, f in enumerate((W, slope)):
        want = _one_rung(builder, f, xc, 0.5, x0, T)[1][0].at(xs)
        assert corr[:, j].tobytes() == want[0].tobytes()
        assert err[:, j].tobytes() == want[1].tobytes()
    # searched without the slope, the terms sum psi alone
    vals, errs = eval_terms(solver._terms(1, 0.5, False, 4.0), xs, 1e-8)
    assert vals.shape == errs.shape == (1, 1, xs.size)


# -- the truncation ladder, sampled four rungs per weight call -------------


def _one_rung(builder, weight, xcoef, t, x_offset, T, derivative=False):
    """(path, tails) of the rung T alone: a search on the ladder of that one rung."""
    return choose_truncation(builder, weight, xcoef, t, x_offset, (0.0,), 1.0, T,
                             derivative=derivative, max_T=T)


def _truncation_rung_by_rung(builder, weight, xcoef, t, x_offset, x_probe,
                             tolerance, T0, derivative=False, max_T=4000.0):
    """choose_truncation as one rung at a time, each sampled on its own.

    Returns (path, tails, rungs tried).
    """
    target = 0.05 * tolerance
    T = T0
    for rung in range(1, 23):
        path, (tails,) = _one_rung(builder, weight, xcoef, t, x_offset, T, derivative)
        if tails.worst(x_probe) <= target or T >= max_T:
            break
        T = min(1.6 * T, max_T)
    return path, tails, rung


def _searches():
    ic = gaussian_ic()
    down = PiecewisePotential([2.0, 1.0], [0.0])
    for rep, pot in (("d4", UP), ("d4", down), ("quadrant", UP),
                     ("realline", UP)):
        solver = StepSolver(pot, ic, representation=rep)
        for region in (1, 2):
            for W, xc, x0, builder, T0, _ in solver._declare(region, 0.5):
                probes = (-4.0, 0.0) if region == 1 else (0.0, 4.0)
                yield (rep, builder, W, xc, 0.5, x0, probes, 1e-8, T0)


LADDER_CASES = (
    [pytest.param(args, {}, id="{}-{}".format(args[0], i))
     for i, args in enumerate(_searches())]
    + [pytest.param(next(_searches()), {"derivative": True}, id="d4-derivative"),
       pytest.param(next(_searches()), {"tolerance": 1e-14}, id="d4-tol1e-14"),
       pytest.param(next(_searches()), {"tolerance": 1e-300, "max_T": 40.0},
                    id="d4-stops-at-max_T")])


@pytest.mark.parametrize("search, change", LADDER_CASES)
def test_ladder_matches_the_rung_by_rung_search(search, change):
    rep, builder, W, xc, t, x0, probes, tol, T0 = search
    kw = {"tolerance": tol, "derivative": False, "max_T": 4000.0, **change}
    calls = []

    def weight(z, tag):
        calls.append(tag)
        return W(z, tag)

    path, tails = choose_truncation(builder, weight, xc, t, x0, probes,
                                    kw["tolerance"], T0, derivative=kw["derivative"],
                                    max_T=kw["max_T"])
    ref_path, ref_tails, rungs = _truncation_rung_by_rung(
        builder, W, xc, t, x0, probes, kw["tolerance"], T0,
        derivative=kw["derivative"], max_T=kw["max_T"])
    assert [leg.end() for leg in path.legs] == [leg.end() for leg in ref_path.legs]
    if "max_T" in change:
        assert max(abs(leg.end()) for leg in path.legs) == pytest.approx(40.0)
    xs = np.linspace(-6.0, 6.0, 25)
    (tails,) = tails
    got = tails.at(xs)
    want = ref_tails.at(xs)
    assert got[0].shape == xs.shape + ((2,) if kw["derivative"] else (1,))
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert np.asarray(tails.generic).tobytes() == np.asarray(ref_tails.generic).tobytes()
    for tag in set(calls):
        assert calls.count(tag) <= -(-rungs // 4)


def test_ladder_over_several_times_takes_the_first_rung_every_time_clears():
    solver = StepSolver(UP, gaussian_ic())
    ts = (0.3, 0.5, 1.2)
    probes = (-4.0, 0.0)
    W, xc, x0, builder, T0, _ = solver._declare(1, ts)[0]
    path, tails = choose_truncation(builder, W, xc, ts, x0, probes, 1e-8, T0)
    assert path.rates == ts and [m.t for m in tails] == list(ts)
    # each time's own search on the same ladder: the rung of the slowest
    singles = []
    for t in ts:
        single_builder = solver._declare(1, t)[0][3]
        path_t, _ = choose_truncation(single_builder, W, xc, t, x0, probes, 1e-8, T0)
        singles.append(path_t.reach())
    T = path.reach()
    assert T == max(singles) and len(set(singles)) > 1
    # one set of samples at that rung serves every time's model: each is
    # the model of that time's own path at that rung
    xs = np.linspace(-4.0, 0.0, 9)
    for k, t in enumerate(ts):
        _, (want,) = _one_rung(solver._declare(1, t)[0][3], W, xc, t, x0, T)
        for a, b in zip(tails[k].at(xs), want.at(xs)):
            assert a.tobytes() == b.tobytes()
    assert tails.worst(probes) == max(m.worst(probes) for m in tails)


def test_tail_legs_with_different_tags_are_refused():
    # a block's tail nodes are sampled in one call, under the one tag their
    # legs share
    solver = StepSolver(UP, gaussian_ic())
    W, xc, x0, builder, T0, _ = solver._declare(1, 0.5)[0]

    def tagged(T):
        path, spec = builder(T)
        path.legs[-1] = replace(path.legs[-1], tag="other")
        return path, spec

    with pytest.raises(ValueError, match="one tag"):
        choose_truncation(tagged, W, xc, 0.5, x0, (-4.0, 0.0), 1e-8, T0)


def test_stacked_tail_model_matches_one_model_per_column():
    # a weight returning a stack of columns gives one model for all of them;
    # each column's corrections and estimates are those of its own model
    solver = StepSolver(UP, gaussian_ic())
    ts = (0.3, 1.2)
    W, xc, x0, builder, T0, _ = solver._declare(1, ts)[0]
    columns = [W, lambda z, tag: 1j * z * W(z, tag),
               lambda z, tag: W(z, tag) / (1.0 + z * z)]

    def stack(z, tag):
        return np.stack([f(z, tag) for f in columns])

    T = 2.5 * T0
    stacked = _one_rung(builder, stack, xc, ts, x0, T)[1]
    alone = [_one_rung(builder, f, xc, ts, x0, T)[1] for f in columns]
    xs = np.linspace(-4.0, 0.0, 9)
    for k, t in enumerate(ts):
        model = stacked[k]
        corr, err = model.at(xs)
        assert corr.shape == err.shape == (xs.size, len(columns))
        worst = []
        for j, f in enumerate(columns):
            one = alone[j][k]
            want_corr, want_err = one.at(xs)
            np.testing.assert_allclose(corr[:, j], want_corr[:, 0], rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(err[:, j], want_err[:, 0], rtol=1e-15, atol=0.0)
            worst.append(one.worst(xs))
        assert model.worst(xs) == pytest.approx(max(worst), rel=1e-15)
