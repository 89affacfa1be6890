import dataclasses
import functools
import heapq

import mpmath
import numpy as np
import pytest

from schrostep import InitialCondition, PiecewisePotential, StepSolver, nu
from schrostep import contours, transforms
from schrostep.contours import (_WG, _WK, _XK, ContourPath, Leg,
                                QuadratureError, build_node_table,
                                deform_to_real_line, rotated_boundary,
                                table_integral)

# frozen in tools/make_reference_values.py
SQRT_PI = 1.772453850905516
PV_LOG_RATIO = -0.050010420574661376


def _integrate(path, f, tolerance=1e-10, max_panels=2000):
    """(value, error) of f along path: one node table, summed once."""
    table = build_node_table(path, f, tolerance, max_panels=max_panels)
    W = table.cols[0]
    values, errors = table_integral(table, W, 0 * W, [0.0])
    return values[0, 0], errors[0, 0]


def test_line_gaussian():
    path = ContourPath(legs=[Leg.line(-8.0, 8.0)])
    val, err = _integrate(path, lambda z, tag: np.exp(-z * z), tolerance=1e-13)
    assert abs(val - SQRT_PI) < 1e-13
    assert abs(val - SQRT_PI) <= 10.0 * err + 1e-15


def test_arc_polynomial():
    # int z dz along a quarter circle is path independent: z^2/2 at the ends
    path = ContourPath(legs=[Leg.arc(2.0, 0.0, 0.5 * np.pi)])
    val, err = _integrate(path, lambda z, tag: z)
    assert abs(val - (-4.0)) < 1e-12


def test_pv_fold_removes_pole():
    legs = [Leg.line(-40.0, -38.0), Leg.pv(1.0, 39.0)]
    path = ContourPath(legs=legs).validate_continuity()
    val, err = _integrate(path, lambda z, tag: 1.0 / (z - 1.0), tolerance=1e-12)
    assert abs(val - PV_LOG_RATIO) < 1e-11


def test_path_sign_flips_value():
    path = ContourPath(legs=[Leg.line(0.0, 1.0)], sign=-1)
    val, _ = _integrate(path, lambda z, tag: np.ones_like(z))
    assert abs(val + 1.0) < 1e-13


def test_continuity_validation():
    with pytest.raises(ValueError):
        ContourPath(legs=[Leg.line(0.0, 1.0),
                          Leg.line(2.0, 3.0)]).validate_continuity()


def test_sharp_peak_is_refined():
    eps = 1e-3
    path = ContourPath(legs=[Leg.line(-1.0, 1.0)])
    val, err = _integrate(path, lambda z, tag: 1.0 / (z * z + eps * eps),
                          tolerance=1e-11, max_panels=4000)
    exact = 2.0 * np.arctan(1.0 / eps) / eps
    assert abs(val - exact) / exact < 1e-10
    assert abs(val - exact) <= 10.0 * err + 1e-12 * exact


def test_budget_exhaustion_raises_with_location():
    path = ContourPath(legs=[Leg.line(0.0, 1.0, label="hot leg")])
    with pytest.raises(QuadratureError) as exc:
        _integrate(path, lambda z, tag: np.cos(4000.0 * z.real),
                   tolerance=1e-14, max_panels=6)
    assert exc.value.leg_label == "hot leg"


def test_nan_table_error_raises():
    # a NaN error compares False against any bound: the check must refuse it
    # rather than return a table of NaN sums
    path = rotated_boundary(4, 2.0, 10.0, np.pi / 8)

    def columns(z, tag):
        return np.where(np.abs(z) > 6.0, np.nan, np.exp(-0.1 * z * z))

    with pytest.raises(QuadratureError, match="error nan"):
        build_node_table(path, columns, 1e-8)


def test_splits_pin_panel_boundaries():
    # integrable kink resolved because the split lands a panel edge on it
    path = ContourPath(legs=[Leg.line(-1.0, 1.0, splits=(0.5,))])
    val, err = _integrate(path, lambda z, tag: np.abs(z.real), tolerance=1e-13)
    assert abs(val - 1.0) < 1e-13


def _phase_moment(k, omega):
    """int_{-1}^{1} xi^k exp(i omega xi) dxi, from its antiderivative.

    exp(a xi) sum_j (-1)^j k!/(k - j)! xi^(k - j) / a^(j + 1), a = i omega,
    in 150-digit arithmetic: at omega = 1e-6 the terms cancel by 90 digits.
    """
    if omega == 0.0:
        return 2.0 / (k + 1) if k % 2 == 0 else 0.0
    with mpmath.workdps(150):
        a = 1j * mpmath.mpf(omega)

        def F(x):
            return mpmath.exp(a * x) * mpmath.fsum(
                (-1) ** j * mpmath.factorial(k) / mpmath.factorial(k - j)
                * mpmath.mpf(x) ** (k - j) / a ** (j + 1) for j in range(k + 1))
        return complex(F(1) - F(-1))


@pytest.mark.parametrize("omega", [0.0, 1e-6, 0.3, 5.0, 50.0, 500.0])
def test_chirp_weights_are_exact_for_polynomials_times_the_phase(omega):
    (wk,), (wg,) = contours._chirp_weights([omega])
    if omega == 0.0:
        assert wk.tobytes() == _WK.astype(complex).tobytes()
        assert wg.tobytes() == _WG.astype(complex).tobytes()
    assert np.all(wg[_WG == 0.0] == 0.0)
    for w, degree in ((wk, 14), (wg, 6)):
        for k in range(degree + 1):
            terms = w * _XK ** k
            want = _phase_moment(k, omega)
            # relative to the sum's own size where the moment cancels to
            # rounding (odd k at omega = 1e-6: 1e-7 against terms of 0.1)
            scale = max(abs(want), np.sum(np.abs(terms)))
            assert abs(np.sum(terms) - want) <= 1e-13 * scale, (k, degree)
    # a negative frequency conjugates the weights
    (wk_neg,), _ = contours._chirp_weights([-omega])
    np.testing.assert_allclose(wk_neg, wk.conj(), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("rule", ["kronrod", "gauss"])
def test_gauss_kronrod_rules_are_exact_on_monomials(rule):
    # Kronrod-15 integrates degree <= 22 exactly and Gauss-7 degree <= 13;
    # the constants, summed in 50-digit arithmetic, meet the exact moments to
    # 2e-16 (the 15-digit ones missed by up to 6e-15)
    on = _WG != 0.0
    x, w, degree = (_XK, _WK, 22) if rule == "kronrod" else (_XK[on], _WG[on], 13)
    with mpmath.workdps(50):
        for k in range(degree + 1):
            got = mpmath.fsum(mpmath.mpf(wi) * mpmath.mpf(xi) ** k
                              for xi, wi in zip(x.tolist(), w.tolist()))
            want = mpmath.mpf(2) / (k + 1) if k % 2 == 0 else mpmath.mpf(0)
            assert abs(got - want) <= 2e-16, k


def test_smooth_integrals_meet_their_estimates():
    # converged tables of smooth integrands: the deviation is rounding, and
    # the estimate covers it (the 15-digit constants missed by 7.5x on the
    # pv leg and 1.06x on the line)
    with mpmath.workdps(40):
        a = mpmath.mpc(1, 1)
        pv = complex(mpmath.sqrt(mpmath.pi / a) * mpmath.erf(8 * mpmath.sqrt(a)))
        line = float(mpmath.sqrt(mpmath.pi) * mpmath.erf(8))
    for leg, f, want in ((Leg.pv(0.0, 8.0), lambda z, tag: np.exp(-(1 + 1j) * z * z), pv),
                         (Leg.line(-8.0, 8.0), lambda z, tag: np.exp(-z * z), line)):
        val, err = _integrate(ContourPath(legs=[leg]), f, tolerance=1e-13)
        assert abs(val - want) <= err, leg.kind


def test_chirp_leg_integrates_hundreds_of_periods():
    # int exp(i t z^2) A(z) dz up the ray z = -i u, u from 2 to 30, t = 4
    # (570 periods).  A(z) = 2 z / (z^2 - c) is 1 / (v + c) dv in v = u^2,
    # so the integral is exp(i t c) (E1(i t (v0 + c)) - E1(i t (v1 + c))).
    t, c, R, T = 4.0, 1.0, 2.0, 30.0
    path = ContourPath(legs=[Leg.chirp(-1j * R, -1j * T, splits=(0.5,))], rates=(t,))
    seen = set()

    def amplitude(z, tag):
        seen.add(tag)
        return 2.0 * z / (z * z - c)

    val, err = _integrate(path, amplitude, tolerance=1e-12)
    # a chirp leg's integrand is called like any other leg's
    assert seen == {""}
    with mpmath.workdps(30):
        want = complex(mpmath.exp(1j * t * c) * (mpmath.e1(1j * t * (R * R + c))
                                                 - mpmath.e1(1j * t * (T * T + c))))
    assert abs(val - want) <= 1e-12
    assert abs(val - want) <= err
    # the panels need the amplitude resolved, not the 570 periods
    table = build_node_table(path, amplitude, 1e-12)
    assert table.n_panels < 40


def test_chirp_leg_rejects_off_axis_or_inward_rays():
    for z0, z1 in ((1.0 - 1j, 3.0 - 3j), (-3j, -1j), (-1j, 2.0), (0.0, -2j)):
        with pytest.raises(ValueError):
            Leg.chirp(z0, z1)


def test_path_rate_puts_the_phase_in_the_weights_of_every_leg():
    # the weights carry exp(i rate z^2), so the amplitude 1 integrates to
    # the integral of that phase on every kind of leg
    one = lambda z, tag: np.ones_like(z)
    d = np.exp(0.125j * np.pi)
    # int_0^inf exp(i z^2) dz along the ray at pi/8, where it decays
    whole = np.exp(0.25j * np.pi) * SQRT_PI / 2.0

    def fresnel(b):
        # int_0^b exp(i u^2) du on the real axis
        s = mpmath.sqrt(2.0 / mpmath.pi)
        return complex(mpmath.sqrt(mpmath.pi / 2.0) * (mpmath.fresnelc(s * b)
                                                       + 1j * mpmath.fresnels(s * b)))

    head = complex(d * mpmath.quad(lambda u: mpmath.exp(1j * d * d * u * u), [0, 0.5]))
    cases = [
        # 23 periods of exp(i u^2) on a chirp leg of the real axis
        (Leg.chirp(0.5, 12.0), fresnel(12.0) - fresnel(0.5)),
        # the ray at pi/8, to where exp(i z^2) is e^-102 small
        (Leg.line(0.5 * d, 12.0 * d), whole - head),
        # the arc back to the real axis, by Cauchy's theorem
        (Leg.arc(12.0, np.pi / 8.0, 0.0), fresnel(12.0) - whole),
    ]
    for leg, want in cases:
        val, err = _integrate(ContourPath(legs=[leg], rates=(1.0,)), one, tolerance=1e-12)
        assert abs(val - want) <= 1e-11 and abs(val - want) <= err, leg.kind
    # both fold sides of a principal-value leg: int exp(-(1 + i) z^2) dz;
    # the 15-digit Kronrod constants leave 4.7e-15 against an estimate of
    # 6.2e-16 here, with or without the phase in the weights
    val, _ = _integrate(ContourPath(legs=[Leg.pv(0.0, 8.0)], rates=(-1.0,)),
                        lambda z, tag: np.exp(-z * z), tolerance=1e-13)
    assert abs(val - np.sqrt(np.pi / (1.0 + 1j))) <= 1e-12


def test_rotated_boundary_radius_guard():
    with pytest.raises(ValueError):
        rotated_boundary(4, 1.0, 10.0, np.pi / 8, lam=2.0)
    with pytest.raises(ValueError):
        rotated_boundary(2, 3.0, 10.0, np.pi / 8)
    path = rotated_boundary(4, 2.5, 10.0, np.pi / 8, lam=2.0)
    assert len(path.legs) == 3
    # closed chain from T e^{i delta} down to -iT
    assert abs(path.legs[0].start() - 10.0 * np.exp(1j * np.pi / 8)) < 1e-12
    assert abs(path.legs[2].end() - (-10.0j)) < 1e-12


# the axis each quadrant's arc starts from (e) and the outgoing axis (f)
_AXES = {4: (1.0, -1j), 3: (-1j, -1.0), 1: (1j, 1.0)}


@pytest.mark.parametrize("t", [0.3, 4.0, 16.0])
@pytest.mark.parametrize("quad", [4, 3, 1])
def test_sector_crosses_the_growth_quadrant_on_corner_legs(quad, t):
    solver = StepSolver(PiecewisePotential([1.0, 2.0], [0.0]),
                        InitialCondition.gaussian())
    R, T = solver.radius, 6.0 * solver.radius
    path, spec = solver.sector(quad, t)(T)
    path.validate_continuity()
    e, f = _AXES[quad]
    ray = path.legs[-1]
    assert spec["osc"][0][0] == len(path.legs) - 1
    assert (ray.z0, ray.z1) == (R * f, T * f)
    # one ray kind in every quadrant: a chirp leg of the path's rate, +t
    # where exp(i kappa^2 t) decays on the tilted leg and -t where
    # exp(-i kappa^2 t) does, started as ceil((T - R) / 2) equal pieces in
    # v = u^2
    n = int(np.ceil((T - R) / 2.0))
    assert (ray.kind, ray.tag) == ("chirp", "")
    assert path.rates == ((t,) if quad == 4 else (-t,))
    assert ray.splits == tuple(np.arange(1, n) / n)
    line = Leg.line(ray.z0, ray.z1, ray.label)
    edges = np.linspace(0.0, 1.0, 33)
    nodes = [contours._panel_nodes(leg, edges[:-1], edges[1:])[0].ravel()
             for leg in path.legs]
    # no rounding moves the ray off its axis
    assert np.all((nodes[-1] * np.conj(f)).imag == 0.0)
    # |exp(i kappa^2 t)| in quadrant 4, |exp(-i kappa^2 t)| in 3 and 1
    z = np.concatenate(nodes)
    growth = np.max(np.abs(np.exp((1j if quad == 4 else -1j) * z * z * t)))
    corner = [n for leg, n in zip(path.legs, nodes) if leg.label == "corner leg"]
    if R * R * t <= 2.0:
        ref = rotated_boundary(quad, R, T, solver.delta, lam=2.0)
        assert path.legs[:-1] == ref.legs[:-1] and path.sign == ref.sign
        assert line == ref.legs[-1]
        assert not corner
        assert growth <= np.exp(2.0)
    else:
        assert len(corner) >= 10
        zc = np.concatenate(corner)
        # strictly inside the open quadrant, so off every cut of nu
        assert np.all((zc * np.conj(e)).real > 0.0)
        assert np.all((zc * np.conj(f)).real > 0.0)
        assert growth <= np.exp(9.0 / 4.0)
        assert growth >= np.exp(2.0) * (1.0 - 1e-12)


def test_rotated_boundary_orientation():
    # quadrant 4 runs from T e^{i delta} on the tilted leg around to -iT, so
    # the antiderivative -1/z telescopes between those endpoints
    delta = np.pi / 8.0
    path = rotated_boundary(4, 2.0, 9.0, delta, lam=0.5)
    val, _ = _integrate(path, lambda z, tag: 1.0 / (z * z))
    exact = (-1.0 / (-9.0j)) - (-1.0 / (9.0 * np.exp(1j * delta)))
    assert abs(val - exact) < 1e-12


def test_deform_to_real_line_q1_imag_cut():
    path = deform_to_real_line(1, 30.0, cut=2.0)
    assert path.sign == 1
    tags = [leg.tag for leg in path.legs]
    assert "cut-difference" in tags
    cd = path.legs[tags.index("cut-difference")]
    assert abs(cd.start()) < 1e-12 and abs(cd.end() - 2.0j) < 1e-12


def test_deform_to_real_line_q3_real_cut():
    path = deform_to_real_line(3, 30.0, cut=2.0)
    assert path.sign == -1
    pv = [leg for leg in path.legs if leg.kind == "pv"][0]
    assert pv.tag == ""
    assert len(pv.splits) > 0


@pytest.mark.parametrize("quadrant", [1, 3])
@pytest.mark.parametrize("cut", [0.0, -1.0, 30.0])
def test_deform_to_real_line_rejects_bad_cut(quadrant, cut):
    with pytest.raises(ValueError):
        deform_to_real_line(quadrant, 30.0, cut=cut)


def test_node_table_multiple_probes_shared():
    path = ContourPath(legs=[Leg.line(-12.0, 12.0)])
    columns = lambda z, tag: np.stack([np.exp(-z * z), np.exp(-0.25 * z * z)])
    table = build_node_table(path, columns, 1e-12)
    zero = np.zeros(table.z.size)
    ((v1,),), _ = table_integral(table, np.exp(-table.z ** 2), zero, [0.0])
    ((v2,),), _ = table_integral(table, np.exp(-0.25 * table.z ** 2), zero, [0.0])
    assert abs(v1 - SQRT_PI) < 1e-12
    assert abs(v2 - 2.0 * SQRT_PI) < 1e-11


# -- exact replay of the panel-at-a-time refinement ------------------------


def _reference_table(path, probes, tolerance, max_panels):
    """Worst-panel-first bisection, one panel and one probe call at a time.

    Returns the stop that ended refinement ('tolerance', 'budget' or
    'floor'), the sorted panels (leg, a, b) and the concatenated z, w15, w7;
    or raises QuadratureError, as the batched build must, when the panels
    left stop above 50 times the tolerance, on whichever stop.
    """
    panels, heap = [], []
    counter = 0

    def nodes(leg, a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        s = mid + half * _XK
        if leg.kind == "pv":
            u = leg.half * s
            z = np.concatenate([leg.center + u, leg.center - u]).astype(complex)
            w15 = np.concatenate([_WK, _WK]) * (half * leg.half)
            w7 = np.concatenate([_WG, _WG]) * (half * leg.half)
            return z, w15.astype(complex), w7.astype(complex)
        jac = leg.deriv(s) * half
        return leg.point(s), _WK * jac, _WG * jac

    def add(leg_idx, a, b):
        nonlocal counter
        leg = path.legs[leg_idx]
        z, w15, w7 = nodes(leg, a, b)
        err = 0.0
        for f in probes:
            v = np.asarray(f(z, leg.tag), dtype=complex)
            u = abs(np.sum(v * w15) - np.sum(v * w7))
            err = max(err, min(u, (200.0 * u) ** 1.5))
        p = {"leg": leg_idx, "a": a, "b": b, "err": err, "z": z, "w15": w15, "w7": w7}
        panels.append(p)
        heapq.heappush(heap, (-err, counter, p))
        counter += 1
        return p

    for leg_idx, leg in enumerate(path.legs):
        bps = [0.0] + sorted(set(leg.splits)) + [1.0]
        for a, b in zip(bps, bps[1:]):
            add(leg_idx, a, b)
    total = sum(p["err"] for p in panels)
    alive = list(panels)
    stop = "tolerance"
    while total > tolerance:
        if len(alive) >= max_panels:
            stop = "budget"
            break
        _, _, worst = heapq.heappop(heap)
        if worst["err"] <= 1e-18:
            stop = "floor"
            break
        alive.remove(worst)
        total -= worst["err"]
        m = 0.5 * (worst["a"] + worst["b"])
        for lo, hi in ((worst["a"], m), (m, worst["b"])):
            alive.append(add(worst["leg"], lo, hi))
            total += alive[-1]["err"]
    alive.sort(key=lambda p: panels.index(p))
    err = sum(p["err"] for p in alive)
    if err > 50.0 * max(tolerance, 1e-300):
        worst = max(alive, key=lambda p: p["err"])
        raise QuadratureError("reference", leg_index=worst["leg"])
    alive.sort(key=lambda p: (p["leg"], p["a"]))
    return (stop, [(p["leg"], p["a"], p["b"]) for p in alive],
            *(np.concatenate([p[k] for p in alive]) for k in ("z", "w15", "w7")))


def _step_weight_probes():
    solver = StepSolver(PiecewisePotential([1.0, 2.0], [0.0]),
                        InitialCondition.gaussian(center=-1.0, momentum=0.7))
    W = solver._w_d4(1, 1.0)
    return [lambda z, tag, xp=xp: W(z, tag) * np.exp(-1j * nu(1.0, z) * xp)
            for xp in (-4.0, -2.0, 0.0)]


_GAUSS_OSC = [lambda z, tag: np.exp(-z * z / 16.0) * np.cos(20.0 * z),
              lambda z, tag: np.exp(-z * z)]

# name: (path, probes, tolerance, max_panels, how refinement ends)
REPLAY_CASES = {
    "gaussian line": (ContourPath(legs=[Leg.line(-12.0, 12.0)]), _GAUSS_OSC,
                      1e-13, 2000, "tolerance"),
    "split pv leg": (deform_to_real_line(3, 30.0, cut=2.0),
                     [lambda z, tag: np.exp(-0.01 * z * z) * np.cos(15.0 * z)
                      / (1.0 + np.abs(z.real - 2.0))],
                     1e-11, 4000, "tolerance"),
    "d4 step term": (rotated_boundary(4, 2.5, 16.0, np.pi / 8.0, lam=2.0),
                     _step_weight_probes(), 1e-12, 4000, "tolerance"),
    "budget exhausted": (ContourPath(legs=[Leg.line(0.0, 1.0, label="hot leg")]),
                         [lambda z, tag: np.cos(4000.0 * z.real)], 1e-14, 150,
                         "error"),
    "budget exhausted, error kept": (ContourPath(legs=[Leg.line(-12.0, 12.0)]),
                                     _GAUSS_OSC, 1e-13, 120, "budget"),
    # stops at 3.8e-18 on the floor, within 50 times the tolerance
    "roundoff floor": (ContourPath(legs=[Leg.line(-12.0, 12.0), Leg.line(12.0, 13.0)]),
                       [lambda z, tag: np.exp(-0.25 * z * z) * np.cos(20.0 * z)],
                       1e-19, 4000, "floor"),
    # the same floor stop, far above its tolerance
    "roundoff floor above target": (
        ContourPath(legs=[Leg.line(-12.0, 12.0, label="hot leg"),
                          Leg.line(12.0, 13.0)]),
        [lambda z, tag: np.exp(-0.25 * z * z) * np.cos(20.0 * z)], 1e-30, 4000,
        "error"),
}


@pytest.mark.parametrize("case", list(REPLAY_CASES))
def test_batched_refinement_replays_panel_loop(case):
    path, probes, tol, max_panels, how = REPLAY_CASES[case]
    calls = []

    def columns(z, tag):
        calls.append(z.size)
        return np.stack([f(z, tag) for f in probes])

    if how == "error":
        with pytest.raises(QuadratureError) as want:
            _reference_table(path, probes, tol, max_panels)
        with pytest.raises(QuadratureError) as got:
            build_node_table(path, columns, tol, max_panels=max_panels)
        assert got.value.leg_index == want.value.leg_index
        assert got.value.leg_label == "hot leg"
        return
    stop, spans, z, w15, w7 = _reference_table(path, probes, tol, max_panels)
    assert stop == how
    table = build_node_table(path, columns, tol, max_panels=max_panels)
    n_calls = len(calls)
    assert table.spans == spans
    # one rate: the table's weights have one row
    for got, ref in ((table.z, z), (table.w15[0], w15), (table.w7[0], w7)):
        np.testing.assert_array_equal(got, ref)
    # the columns are the one evaluation per node made while refining
    np.testing.assert_array_equal(table.cols, columns(table.z, path.legs[0].tag))
    # n_panels / 8 + legs on 15-node panels; a pv panel carries 30 nodes
    assert n_calls <= len(table.z) / 120 + len(path.legs)
    assert max(calls[:n_calls]) <= 480


def test_failed_speculation_falls_back_to_needed_panels(monkeypatch):
    # the quiet second leg is never split by the panel loop; evaluating its
    # halves ahead of need hits a node the integrand rejects, which must
    # not surface as an error
    path = ContourPath(legs=[Leg.line(-8.0, 8.0), Leg.line(8.0, 9.0)])

    def f(z, tag):
        if np.any(np.abs(z - 8.25) < 1e-12):
            raise ValueError("rejected node")
        return np.exp(-z * z)

    def everything(heap, worst, *args):
        return [worst] + [entry[2] for entry in heap if entry[2].kids is None]

    _, spans, z, _, _ = _reference_table(path, [f], 1e-13, 2000)
    monkeypatch.setattr(contours, "_next_to_split", everything)
    table = build_node_table(path, f, 1e-13)
    assert table.spans == spans and (1, 0.0, 1.0) in spans
    np.testing.assert_array_equal(table.z, z)


def test_chunked_tabulated_hat_matches_unchunked(monkeypatch):
    # 21 knots: blocks of 195 k, the k with |k| < 2 on the series route
    x = np.linspace(-4.0, 2.0, 25)
    ic = InitialCondition.tabulated(x, np.exp(-(x + 1.0) ** 2 + 0.7j * x))
    k = np.linspace(-30.0, 30.0, 481) * np.exp(0.3j)
    chunked = transforms._tabulated_hat(ic, k, -3.0, 2.0, 0.5)
    for entries in (10 ** 9, 1):
        monkeypatch.setattr(transforms, "_TAB_ENTRIES", entries)
        np.testing.assert_array_equal(chunked, transforms._tabulated_hat(ic, k, -3.0, 2.0, 0.5))


# -- the phased sum against a per-point loop --------------------------------


def _reference_phased(table, W, C, X, derivative=False):
    """One X at a time, one direct exp per node, panel sums by bincount.

    Returns rows (value, error, roundoff floor) per integrand, W and then,
    with derivative, i C W; one column per X.  The error charges the phase
    rounding on top of that floor, 2.3e-16 |x| max|C| sum |g w15|.  The
    value is summed in extended precision (np.clongdouble, where the
    platform has it), so that a comparison measures the rounding of the sum
    under test rather than that of the loop: each rounds by up to 0.7 of
    the bound of _assert_phased_matches.
    """
    def panel_sums(v):
        return (np.bincount(table.panel, v.real, table.n_panels)
                + 1j * np.bincount(table.panel, v.imag, table.n_panels))

    out = []
    wide = np.clongdouble
    (w15,), (w7,) = table.w15, table.w7
    for f in ([W, 1j * C * W] if derivative else [W]):
        vals, errs, floors = [], [], []
        f_wide = f.astype(wide) * w15.astype(wide)
        for x in X:
            g = f * np.exp(1j * C * x)
            i15, i7 = panel_sums(g * w15), panel_sums(g * w7)
            u = np.abs(i15 - i7)
            floor = 2.3e-16 * np.sum(np.abs(g * w15))
            phase = abs(x) * np.max(np.abs(C), initial=0.0) * floor
            value = np.sum(f_wide * np.exp(1j * C.astype(wide) * wide(x)))
            vals.append(table.sign * complex(value))
            errs.append(np.sum(np.minimum(u, (200.0 * u) ** 1.5)) + floor + phase)
            floors.append(floor)
        out += [np.array(vals), np.array(errs), np.array(floors)]
    return out


def _with_slope(W, C, derivative):
    """The stack W and, with derivative, i C W: the d-integrand's column."""
    return np.stack([W, 1j * C * W]) if derivative else W[None]


def _assert_phased_matches(table, W, C, X, derivative=False):
    """Values and errors within twice each point's roundoff floor + 1e-15."""
    F = _with_slope(W, C, derivative)
    values, errors = table_integral(table, F, C, X)
    ref = _reference_phased(table, W, C, X, derivative)
    # one rate, one row per column of the stack
    assert values.shape == errors.shape == (1, len(F), len(X))
    for i in range(len(F)):
        value, err = values[0, i], errors[0, i]
        ref_value, ref_err, floor = ref[3 * i:3 * i + 3]
        bound = 2.0 * floor + 1e-15
        assert np.all(np.abs(value - ref_value) <= bound)
        assert np.all(np.abs(err - ref_err) <= bound)


def _step_term_table(representation, region=1, t=0.5):
    """A solver term's node table with its W and c columns."""
    solver = StepSolver(PiecewisePotential([1.0, 2.0], [0.0]),
                        InitialCondition.gaussian(center=-1.0, momentum=0.7),
                        representation=representation)
    term = solver._terms(region, t, True, 4.0)[0]

    def columns(z, tag):
        return np.stack((term.weight(z, tag), term.xcoef(z, tag)))

    table = build_node_table(term.path, columns, 1e-10, max_panels=4000)
    return table, table.cols[0], table.cols[1]


_LINSPACE = np.linspace(-4.0, 4.0, 401)
PHASED_GRIDS = {
    "linspace": _LINSPACE,
    "linspace with x_j - 1e-9": np.array(sorted(
        set(_LINSPACE) | {p for xj in (-1.0, 0.5, 2.0) for p in (xj - 1e-9, xj)})),
    "linspace, tail reversed": np.r_[_LINSPACE[:300], _LINSPACE[300:][::-1]],
    # rows missing inside groups 5 and 10 and all of group 20 (k = 320..335),
    # and k = 50 twice
    "linspace with holes": np.sort(np.r_[
        np.delete(_LINSPACE, [90, 91, 170, *range(320, 336)]), _LINSPACE[50]]),
    # on the lattice, but far enough off it that the first-order term counts
    "linspace jittered by 1e-12":
        _LINSPACE + 1e-12 * np.random.default_rng(3).standard_normal(401),
    "unsorted random": np.random.default_rng(7).uniform(-4.0, 4.0, 300),
    "under 32 points": np.linspace(-4.0, 4.0, 20),
}


@pytest.mark.parametrize("grid", list(PHASED_GRIDS))
@pytest.mark.parametrize("derivative", [False, True])
def test_phased_sum_matches_per_point_loop(grid, derivative):
    table, W, C = _step_term_table("d4")
    _assert_phased_matches(table, W, C, PHASED_GRIDS[grid], derivative)


@pytest.mark.parametrize("derivative", [False, True])
def test_batched_lattice_groups_match_one_group_per_batch(monkeypatch, derivative):
    table, W, C = _step_term_table("d4")
    F = _with_slope(W, C, derivative)
    # several groups share a batch by default, one each once patched
    m = len(F)
    widest = max(hi - lo for lo, hi, _ in contours._chunks(table, m * contours._FINE))
    assert contours._TILE // (4 * m * widest) > 1
    batched = {grid: table_integral(table, F, C, X)
               for grid, X in PHASED_GRIDS.items()}
    # a one-entry budget leaves one group per batch; the chunks stay those of
    # the full budget, so that only the batching changes
    chunks = {rows: contours._chunks(table, rows)
              for rows in range(1, m * contours._FINE + 1)}
    monkeypatch.setattr(contours, "_chunks", lambda tab, rows: chunks[rows])
    monkeypatch.setattr(contours, "_TILE", 1)
    for grid, X in PHASED_GRIDS.items():
        single = table_integral(table, F, C, X)
        for i, (got, want) in enumerate(zip(batched[grid], single)):
            if i % 2 == 0:
                np.testing.assert_array_equal(got, want)
            else:
                assert np.all(np.abs(got - want) <= 4.0 * np.spacing(want))


@pytest.mark.parametrize("grid", ["linspace with x_j - 1e-9", "unsorted random"])
@pytest.mark.parametrize("derivative", [False, True])
def test_stacked_columns_match_one_call_per_column(grid, derivative):
    # a stack of columns sharing C is summed in one pass, with chunks sized
    # by the stacked width; each row agrees with its own call
    table, W, C = _step_term_table("d4")
    stack = np.stack([W, 1j * W * table.z, W / (1.0 + table.z * table.z)])
    if derivative:
        stack = np.concatenate([stack, 1j * C * stack])
    X = PHASED_GRIDS[grid]
    values, errors = table_integral(table, stack, C, X)
    assert values.shape == errors.shape == (1, len(stack), len(X))
    for j, row in enumerate(stack):
        one_value, one_err = table_integral(table, row, C, X)
        assert one_value.shape == (1, len(X))
        assert np.all(np.abs(values[0, j] - one_value[0]) <= 1e-15 + one_err[0])
        np.testing.assert_allclose(errors[0, j], one_err[0], rtol=1e-12)
    assert contours._chunks(table, 3 * contours._FINE) != contours._chunks(
        table, contours._FINE)


_FOLD_GRIDS = {name: PHASED_GRIDS[name]
               for name in ("linspace", "linspace with x_j - 1e-9", "unsorted random")}
_FOLD_GRIDS["X = [0]"] = np.zeros(1)


@pytest.mark.parametrize("grid", list(_FOLD_GRIDS))
@pytest.mark.parametrize("derivative", [False, True])
def test_every_rate_matches_its_own_one_rate_table(grid, derivative):
    # the rates are one more axis of the summed stack; each rate's rows agree
    # with a call on the table cut to that rate alone
    table, W, C = _step_term_table("d4", t=(0.3, 0.7, 1.1, 1.9))
    F = _with_slope(W, C, derivative)
    X = _FOLD_GRIDS[grid]
    values, errors = table_integral(table, F, C, X)
    assert values.shape == errors.shape == (4, len(F), len(X))
    # |exp(i C X)| per node and X, and the phase's share, for each rate's
    # roundoff floor 2.3e-16 (1 + |X| max|C|) sum |f w15 exp(i C X)|
    grow = np.exp(-np.outer(C.imag, X))
    phase = 1.0 + np.abs(X) * np.max(np.abs(C))
    for k, rate in enumerate(table.rates):
        one = dataclasses.replace(table, w15=table.w15[k:k + 1], w7=table.w7[k:k + 1],
                                  rates=(rate,))
        one_value, one_err = table_integral(one, F, C, X)
        for j, f in enumerate(F):
            floor = 2.3e-16 * phase * (np.abs(f * table.w15[k]) @ grow)
            assert np.all(np.abs(values[k, j] - one_value[0, j]) <= 2.0 * floor)
            np.testing.assert_allclose(errors[k, j], one_err[0, j], rtol=1e-12)


_LATTICE_GRIDS = {
    "linspace": _LINSPACE,
    "linspace with holes": PHASED_GRIDS["linspace with holes"],
    "linspace with every ninth point twice": np.sort(np.r_[_LINSPACE, _LINSPACE[::9]]),
    # in random order, with X[0] and X[1] moved to the middle pair, where
    # _lattice reads its spacing, so every point stays on the lattice
    "linspace shuffled": np.r_[np.random.default_rng(5).permutation(_LINSPACE[2:]),
                               _LINSPACE[:2]][np.r_[:199, 399, 400, 199:399]],
    "linspace with x_j - 1e-9": PHASED_GRIDS["linspace with x_j - 1e-9"],
}
_TIMES = {"1 rate": 0.5, "4 rates": (0.3, 0.7, 1.1, 1.9)}


@functools.lru_cache(maxsize=None)
def _cached_term_table(times):
    return _step_term_table("d4", t=times)


def _roundoff_floor(table, F, C, X):
    """2.3e-16 (1 + |X| max|C|) sum |f w15 exp(i C X)|: (rates, columns, X)."""
    grow = np.exp(-np.outer(C.imag, X))
    phase = 1.0 + np.abs(X) * np.max(np.abs(C))
    return 2.3e-16 * phase * (np.abs(F[None] * table.w15[:, None]) @ grow)


@pytest.mark.parametrize("grid", list(_LATTICE_GRIDS))
@pytest.mark.parametrize("times", list(_TIMES))
@pytest.mark.parametrize("derivative", [False, True])
def test_lattice_sum_matches_direct_rows(grid, times, derivative):
    # the lattice groups share one product per panel; the same X summed in
    # subsets under 2 _FINE points take the direct exp row by row instead.
    # The errors agree within the floor too, not at rtol 1e-12 alone: the
    # Kronrod-minus-Gauss difference of a converged panel is rounding, and
    # the two phases round it differently (up to 1.1e-7 of the error)
    table, W, C = _cached_term_table(_TIMES[times])
    F = _with_slope(W, C, derivative)
    X = _LATTICE_GRIDS[grid]
    on = contours._lattice(X, np.max(np.abs(C)))[1]
    assert np.count_nonzero(~on) == (3 if "x_j" in grid else 0)
    values, errors = table_integral(table, F, C, X)
    step = 2 * contours._FINE - 1
    parts = [table_integral(table, F, C, X[i:i + step]) for i in range(0, X.size, step)]
    direct, direct_err = (np.concatenate(a, axis=-1) for a in zip(*parts))
    assert values.shape == direct.shape == (len(table.rates), len(F), X.size)
    floor = _roundoff_floor(table, F, C, X)
    assert np.all(np.abs(values - direct) <= floor)
    assert np.all(np.abs(errors - direct_err) <= 1e-12 * direct_err + floor)


@pytest.mark.parametrize("times", list(_TIMES))
@pytest.mark.parametrize("derivative", [False, True])
def test_x_free_sum_matches_a_kronrod_sum(times, derivative):
    # X = [0]: every phase is 1, and each column is a plain Kronrod sum with
    # its Kronrod-minus-Gauss charge per panel (summed here in another
    # order, so the errors agree within the floor as above)
    table, W, C = _cached_term_table(_TIMES[times])
    F = _with_slope(W, C, derivative)
    values, errors = table_integral(table, F, C, [0.0])
    assert values.shape == errors.shape == (len(table.rates), len(F), 1)
    for k in range(len(table.rates)):
        for j, f in enumerate(F):
            g15, d = f * table.w15[k], f * (table.w15[k] - table.w7[k])
            u = np.abs(np.bincount(table.panel, d.real) + 1j * np.bincount(table.panel, d.imag))
            floor = 2.3e-16 * np.sum(np.abs(g15))
            want = np.sum(np.minimum(u, (200.0 * u) ** 1.5)) + floor
            assert abs(values[k, j, 0] - table.sign * np.sum(g15)) <= floor
            assert abs(errors[k, j, 0] - want) <= 1e-12 * want + floor


def test_phased_sum_lattice_covers_the_linspace_points():
    # the straddle points leave the other points on the lattice
    X = PHASED_GRIDS["linspace with x_j - 1e-9"]
    h, on, _, rho, _ = contours._lattice(X, 40.0)
    assert np.count_nonzero(~on) == 3
    assert abs(h - 0.02) < 1e-15
    assert 40.0 * np.max(np.abs(rho)) <= 1e-8
    assert contours._lattice(PHASED_GRIDS["linspace, tail reversed"], 40.0)[1].all()
    h, on = contours._lattice(PHASED_GRIDS["linspace with holes"], 40.0)[:2]
    assert on.all() and abs(h - 0.02) < 1e-15
    assert contours._lattice(PHASED_GRIDS["linspace jittered by 1e-12"], 40.0)[1].all()
    assert contours._lattice(PHASED_GRIDS["under 32 points"], 40.0) is None
    assert contours._lattice(PHASED_GRIDS["unsorted random"], 40.0) is None


@pytest.mark.parametrize("derivative", [False, True])
def test_a_permuted_grid_keeps_its_lattice_and_bits(derivative):
    # the lattice is fitted to the sorted distinct points, so a shuffled
    # grid (whose middle pair is no neighbour pair) takes the same lattice
    # and sums to the same bits, reordered
    X = np.linspace(-4.0, 4.0, 1000)
    order = np.random.default_rng(11).permutation(X.size)
    sorted_lat, shuffled_lat = contours._lattice(X, 40.0), contours._lattice(X[order], 40.0)
    assert shuffled_lat is not None and shuffled_lat[1].all()
    assert shuffled_lat[0] == sorted_lat[0]
    table, W, C = _cached_term_table(0.5)
    F = _with_slope(W, C, derivative)
    values, errors = table_integral(table, F, C, X)
    shuffled = table_integral(table, F, C, X[order])
    assert shuffled[0].tobytes() == values[..., order].tobytes()
    assert shuffled[1].tobytes() == errors[..., order].tobytes()


def test_phased_sum_on_realline_table():
    # 30-node principal-value panels next to 15-node cut panels
    table, W, C = _step_term_table("realline", region=2)
    assert {np.count_nonzero(table.panel == p) for p in range(table.n_panels)} == {15, 30}
    _assert_phased_matches(table, W, C, _LINSPACE[200:], derivative=True)


def test_phased_sum_on_30000_node_table():
    table, W, C = _synthetic_30000_node_table()
    assert table.z.size == 30000
    _assert_phased_matches(table, W, C, np.linspace(-3.0, 3.0, 64))


def _synthetic_30000_node_table():
    leg = Leg.line(-60.0 - 2.0j, 60.0 + 2.0j)
    n = 2000
    edges = np.linspace(0.0, 1.0, n + 1)
    z, ((w15, w7),) = contours._panel_nodes(leg, edges[:-1], edges[1:])
    z, w15, w7 = z.ravel(), w15.ravel(), w7.ravel()
    C = z + 0.05j * np.abs(z)
    W = np.exp(-z * z / 400.0) * (1.0 + 0.1j * z)
    table = contours.NodeTable(z=z, w15=w15[None], w7=w7[None], cols=np.stack([W, C]),
                               panel=np.repeat(np.arange(n), 15),
                               spans=[(0, a, b) for a, b in zip(edges, edges[1:])],
                               sign=-1, n_panels=n)
    return table, W, C


def test_phased_sum_error_covers_rounding_of_x():
    # X is known only to its last bit: moving every X by one ulp (4.4e-16
    # for 2 <= |X| <= 3) must not move a value by more than its error
    table, W, C = _synthetic_30000_node_table()
    X = np.linspace(-3.0, 3.0, 64)
    for derivative in (False, True):
        F = _with_slope(W, C, derivative)
        a, a_err = table_integral(table, F, C, X)
        b, _ = table_integral(table, F, C, np.nextafter(X, np.inf))
        assert np.all(np.abs(a - b) <= a_err)


def test_interface_map_sums_each_time_at_its_own_weights(monkeypatch):
    from schrostep import InterfaceMap, step

    calls = []

    def spy(table, W, C, X):
        out = table_integral(table, W, C, X)
        calls.append((table, W, C, X, out))
        return out

    monkeypatch.setattr(step, "table_integral", spy)
    pot = PiecewisePotential([0.0, 1.5, -1.0, 0.5], [0.0, 1.0, 2.5])
    ic = InitialCondition.gaussian(center=-1.0, momentum=0.7)
    ts = np.linspace(0.1, 1.2, 40)
    got = InterfaceMap(pot, ic).trace_grid(ts, interface=2, derivative=True)
    # psi and psi_x on one table, stacked in one call that sums every time
    # at that time's weights
    assert len(calls) == 1
    table, W, C, X, (value, err) = calls[0]
    assert table.rates == tuple(ts)
    # the weights carry exp(i kappa^2 t), the integrand is x-free
    np.testing.assert_array_equal(X, [0.0])
    assert not np.any(C)
    assert W.shape == (2, table.z.size) and value.shape == err.shape == (40, 2, 1)
    for k in range(40):
        for row, v, e in zip(W, value[k, :, 0], err[k, :, 0]):
            assert abs(v - table.sign * np.sum(row * table.w15[k])) <= 1e-15 + e
    assert [s.t for s in got] == list(ts)


def test_weights_of_every_rate_are_those_of_its_own_panels():
    # a table keeps the weights of every rate that refinement made, per
    # panel on the tilted leg, the arc, the corner legs and the chirp ray
    solver = StepSolver(PiecewisePotential([1.0, 2.0], [0.0]),
                        InitialCondition.gaussian(center=-1.0, momentum=0.7))
    ts = (0.3, 0.7, 1.1, 1.9)
    path, _ = solver.sector(4, ts)(6.0 * solver.radius)
    assert path.rates == ts and any(leg.label == "corner leg" for leg in path.legs)
    term = solver._terms(1, ts, False, 4.0)[0]
    table = build_node_table(path, lambda z, tag: term.weight(z, tag), 1e-9)
    assert table.w15.shape == table.w7.shape == (len(ts), table.z.size)
    for leg_idx, leg in enumerate(path.legs):
        panels = [p for p, span in enumerate(table.spans) if span[0] == leg_idx]
        a = [table.spans[p][1] for p in panels]
        b = [table.spans[p][2] for p in panels]
        z, rows = contours._panel_nodes(leg, a, b, ts)
        at = np.isin(table.panel, panels)
        np.testing.assert_array_equal(table.z[at], z.ravel())
        for k, rate in enumerate(ts):
            got = (table.w15[k][at], table.w7[k][at])
            for w, c in zip(got, rows[k]):
                np.testing.assert_array_equal(w, c.ravel())
            # a chirp leg's rows of its own rate; elsewhere the first rate's
            # times exp(i (rate - ts[0]) z^2), within 1e-13 of the phase
            # taken at the nodes directly
            _, ((c15, c7),) = contours._panel_nodes(leg, a, b, (rate,))
            if leg.kind != "chirp":
                f = contours._rephase(z, rate - ts[0])
                for w, c in zip(got, rows[0]):
                    np.testing.assert_array_equal(w, (c * f).ravel())
            tol = 0.0 if leg.kind == "chirp" or k == 0 else 1e-13
            for w, want in zip(got, (c15.ravel(), c7.ravel())):
                assert np.all(np.abs(w - want) <= tol * np.abs(want)), leg.label


def test_line_panels_match_each_legs_panel_nodes():
    # one pass over the panels of a corner path's straight legs, in any
    # order, gives each panel the rows _panel_nodes gives it on its own leg
    ts = (0.3, 0.7, 1.1, 1.9)
    path = rotated_boundary(4, 3.0, 12.0, np.pi / 8.0, corner=1.0 / 1.9)
    lines = [leg for leg in path.legs if leg.kind == "line"]
    assert len(lines) >= 9
    rng = np.random.default_rng(7)
    spans = []
    for leg in lines:
        edges = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 3)), [1.0]])
        spans += [(leg, a, b) for a, b in zip(edges[:-1], edges[1:])]
    spans = [spans[i] for i in rng.permutation(len(spans))]
    z, rows = contours._line_panels([leg.z0 for leg, _, _ in spans],
                                    [leg.z1 for leg, _, _ in spans],
                                    [a for _, a, _ in spans], [b for _, _, b in spans], ts)
    assert z.shape == (len(spans), 15) and len(rows) == len(ts)
    for i, (leg, a, b) in enumerate(spans):
        z1, rows1 = contours._panel_nodes(leg, [a], [b], ts)
        assert z[i].tobytes() == z1[0].tobytes()
        for pair, pair1 in zip(rows, rows1):
            for w, w1 in zip(pair, pair1):
                assert w.shape == z.shape
                assert w[i].tobytes() == w1[0].tobytes()
