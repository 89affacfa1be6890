import heapq
from dataclasses import replace

import numpy as np
import pytest

from schrostep import InitialCondition, PiecewisePotential, StepSolver, nu
from schrostep import contours, transforms
from schrostep.contours import (_WG, _WK, _XK, ContourPath, KeyholeSpec, Leg,
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
    return values[0], errors[0]


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


def test_splits_pin_panel_boundaries():
    # integrable kink resolved because the split lands a panel edge on it
    path = ContourPath(legs=[Leg.line(-1.0, 1.0, splits=(0.5,))])
    val, err = _integrate(path, lambda z, tag: np.abs(z.real), tolerance=1e-13)
    assert abs(val - 1.0) < 1e-13


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
    # the ray's first panels span at most two periods of exp(i t u^2)
    u = R + (T - R) * np.array([0.0, *ray.splits, 1.0])
    assert np.all(t * np.diff(u * u) <= 4.0 * np.pi * (1.0 + 1e-12))
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
        assert replace(ray, splits=()) == ref.legs[-1]
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
    cut = KeyholeSpec("imag", 2.0)
    path = deform_to_real_line(1, 30.0, cut=cut)
    assert path.sign == 1
    tags = [leg.tag for leg in path.legs]
    assert "cut-difference" in tags
    cd = path.legs[tags.index("cut-difference")]
    assert abs(cd.start()) < 1e-12 and abs(cd.end() - 2.0j) < 1e-12


def test_deform_to_real_line_q3_real_cut():
    path = deform_to_real_line(3, 30.0, cut=KeyholeSpec("real", 2.0))
    assert path.sign == -1
    pv = [leg for leg in path.legs if leg.kind == "pv"][0]
    assert pv.tag == "one-sided-below"
    assert len(pv.splits) > 0


def test_keyhole_spec_validation():
    with pytest.raises(ValueError):
        KeyholeSpec("diag", 1.0)
    with pytest.raises(ValueError):
        KeyholeSpec("imag", 0.0)


def test_node_table_multiple_probes_shared():
    path = ContourPath(legs=[Leg.line(-12.0, 12.0)])
    columns = lambda z, tag: np.stack([np.exp(-z * z), np.exp(-0.25 * z * z)])
    table = build_node_table(path, columns, 1e-12)
    zero = np.zeros(table.z.size)
    (v1,), _ = table_integral(table, np.exp(-table.z ** 2), zero, [0.0])
    (v2,), _ = table_integral(table, np.exp(-0.25 * table.z ** 2), zero, [0.0])
    assert abs(v1 - SQRT_PI) < 1e-12
    assert abs(v2 - 2.0 * SQRT_PI) < 1e-11


# -- exact replay of the panel-at-a-time refinement ------------------------


def _reference_table(path, probes, tolerance, max_panels):
    """Worst-panel-first bisection, one panel and one probe call at a time.

    Returns the stop that ended refinement ('tolerance', 'budget' or
    'floor'), the sorted panels (leg, a, b) and the concatenated z, w15, w7;
    or raises QuadratureError, as the batched build must.
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
    if err > 50.0 * max(tolerance, 1e-300) and len(alive) >= max_panels:
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
    "split pv leg": (deform_to_real_line(3, 30.0, cut=KeyholeSpec("real", 2.0)),
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
    "roundoff floor": (ContourPath(legs=[Leg.line(-12.0, 12.0), Leg.line(12.0, 13.0)]),
                       [lambda z, tag: np.exp(-0.25 * z * z) * np.cos(20.0 * z)],
                       1e-30, 4000, "floor"),
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
    for got, ref in ((table.z, z), (table.w15, w15), (table.w7, w7)):
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
    x = np.linspace(-4.0, 2.0, 25)
    ic = InitialCondition.tabulated(x, np.exp(-(x + 1.0) ** 2 + 0.7j * x))
    k = np.linspace(-30.0, 30.0, 481) * np.exp(0.3j)
    chunked = transforms._tabulated_hat(ic, k, -3.0, 2.0, 0.5)
    monkeypatch.setattr(transforms, "_TAB_BLOCK", 10 ** 9)
    np.testing.assert_array_equal(chunked, transforms._tabulated_hat(ic, k, -3.0, 2.0, 0.5))


# -- the phased sum against a per-point loop --------------------------------


def _reference_phased(table, W, C, X, derivative=False):
    """One X at a time, one direct exp per node, panel sums by bincount.

    Returns rows (value, error, roundoff floor) per integrand, W and then,
    with derivative, i C W; one column per X.  The error charges the phase
    rounding on top of that floor, 2.3e-16 |x| max|C| sum |g w15|.
    """
    def panel_sums(v):
        return (np.bincount(table.panel, v.real, table.n_panels)
                + 1j * np.bincount(table.panel, v.imag, table.n_panels))

    out = []
    for f in ([W, 1j * C * W] if derivative else [W]):
        vals, errs, floors = [], [], []
        for x in X:
            g = f * np.exp(1j * C * x)
            i15, i7 = panel_sums(g * table.w15), panel_sums(g * table.w7)
            u = np.abs(i15 - i7)
            floor = 2.3e-16 * np.sum(np.abs(g * table.w15))
            phase = abs(x) * np.max(np.abs(C), initial=0.0) * floor
            vals.append(table.sign * np.sum(i15))
            errs.append(np.sum(np.minimum(u, (200.0 * u) ** 1.5)) + floor + phase)
            floors.append(floor)
        out += [np.array(vals), np.array(errs), np.array(floors)]
    return out


def _assert_phased_matches(table, W, C, X, derivative=False):
    """Values and errors within twice each point's roundoff floor + 1e-15."""
    got = table_integral(table, W, C, X, derivative=derivative)
    ref = _reference_phased(table, W, C, X, derivative)
    assert len(got) == (4 if derivative else 2)
    for i in range(len(got) // 2):
        value, err = got[2 * i], got[2 * i + 1]
        ref_value, ref_err, floor = ref[3 * i:3 * i + 3]
        bound = 2.0 * floor + 1e-15
        assert value.shape == err.shape == (len(X),)
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


def test_phased_sum_lattice_covers_the_linspace_points():
    # the straddle points leave the other points on the lattice
    X = PHASED_GRIDS["linspace with x_j - 1e-9"]
    h, on, _, rho, _ = contours._lattice(X, 40.0)
    assert np.count_nonzero(~on) == 3
    assert abs(h - 0.02) < 1e-15
    assert 40.0 * np.max(np.abs(rho)) <= 1e-8
    assert contours._lattice(PHASED_GRIDS["linspace, tail reversed"], 40.0)[1].all()
    assert contours._lattice(PHASED_GRIDS["linspace jittered by 1e-12"], 40.0)[1].all()
    assert contours._lattice(PHASED_GRIDS["under 32 points"], 40.0) is None
    assert contours._lattice(PHASED_GRIDS["unsorted random"], 40.0) is None


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
    z, w15, w7 = (a.ravel() for a in contours._panel_nodes(leg, edges[:-1], edges[1:]))
    C = z + 0.05j * np.abs(z)
    W = np.exp(-z * z / 400.0) * (1.0 + 0.1j * z)
    table = contours.NodeTable(z=z, w15=w15, w7=w7, cols=np.stack([W, C]),
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
        a = table_integral(table, W, C, X, derivative=derivative)
        b = table_integral(table, W, C, np.nextafter(X, np.inf), derivative=derivative)
        for i in range(0, len(a), 2):
            assert np.all(np.abs(a[i] - b[i]) <= a[i + 1])


def test_interface_map_sums_all_times_in_one_phased_call(monkeypatch):
    from schrostep import InterfaceMap, interface_map

    calls = []

    def spy(table, W, C, X, derivative=False):
        out = table_integral(table, W, C, X, derivative)
        calls.append((table, W, C, X, out))
        return out

    monkeypatch.setattr(interface_map, "table_integral", spy)
    pot = PiecewisePotential([0.0, 1.5, -1.0, 0.5], [0.0, 1.0, 2.5])
    ic = InitialCondition.gaussian(center=-1.0, momentum=0.7)
    ts = np.linspace(0.1, 1.2, 40)
    got = InterfaceMap(pot, ic).trace_grid(ts, interface=2, derivative=True)
    assert len(calls) == 2      # psi and psi_x, every time at once
    for table, W, C, X, (value, err) in calls:
        np.testing.assert_array_equal(X, ts)
        np.testing.assert_array_equal(C, table.z * table.z)
        _assert_phased_matches(table, W, C, X)
    assert [s.t for s in got] == list(ts)
