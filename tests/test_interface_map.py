import numpy as np
import pytest

from schrostep import (GeneralSolver, InitialCondition, InterfaceMap, PiecewisePotential,
                       StepSolver, interface_map, step)
from schrostep.oracle import free_gaussian

THREE = PiecewisePotential([0.0, 1.5, -1.0, 0.5], [0.0, 1.0, 2.5])
IC = InitialCondition.gaussian(center=-1.0, width=1.0, momentum=0.7)


def test_free_problem_collapses_to_free_evolution():
    pot = PiecewisePotential([0.0, 0.0], [0.0])
    ic = InitialCondition.gaussian(center=-1.0, width=0.9, momentum=0.6)
    imap = InterfaceMap(pot, ic)
    ts = [0.3, 0.7]
    got = imap.trace_grid(ts, derivative=True)
    for smp, t in zip(got, ts):
        want = free_gaussian(np.array([0.0, 1e-6]), t, -1.0, 0.9, 0.6, 1.0)
        assert abs(smp.value - want[0]) < 1e-8
        slope = (want[1] - want[0]) / 1e-6
        assert abs(smp.psi_x - slope) < 1e-5


def test_trace_matches_full_solution_at_the_jump():
    pot = PiecewisePotential([1.0, 2.0], [0.0])
    ic = InitialCondition.gaussian(center=-1.0, momentum=0.7)
    imap = InterfaceMap(pot, ic)
    full = StepSolver(pot, ic)
    for t in (0.25, 1.0):
        a = imap.trace(t, derivative=True)
        b = full.evaluate(0.0, t, region=1, derivative=True)
        assert abs(a.value - b.value) <= 5.0 * (a.error + b.error) + 1e-10
        assert abs(a.psi_x - b.psi_x) <= 5.0 * (a.error + b.error) + 1e-9


def test_batched_times_share_one_node_table():
    pot = PiecewisePotential([0.0, 4.0, 0.0], [0.0, 1.0])
    ic = InitialCondition.gaussian(center=-3.0)
    imap = InterfaceMap(pot, ic)
    ts = [0.2, 0.5, 0.9]
    batch = imap.trace_grid(ts, interface=2)
    single = [imap.trace(t, interface=2) for t in ts]
    for a, b in zip(batch, single):
        assert abs(a.value - b.value) <= 5.0 * (a.error + b.error) + 1e-12


def test_time_zero_returns_initial_data():
    pot = PiecewisePotential([1.0, 2.0], [0.0])
    ic = InitialCondition.gaussian(center=-1.0)
    imap = InterfaceMap(pot, ic)
    got = imap.trace(0.0, derivative=True)
    assert abs(got.value - ic.evaluate(np.array([0.0]))[0]) < 1e-14
    assert abs(got.psi_x - ic.derivative(np.array([0.0]))[0]) < 1e-14


def test_interface_index_validation():
    pot = PiecewisePotential([1.0, 2.0], [0.0])
    imap = InterfaceMap(pot, InitialCondition.gaussian())
    with pytest.raises(ValueError):
        imap.trace(0.5, interface=0)
    with pytest.raises(ValueError):
        imap.trace(0.5, interface=2)
    with pytest.raises(ValueError):
        imap.trace(-0.5)
    with pytest.raises(ValueError, match="interface"):
        imap.trace_grid([0.5], interface=(1, 2))
    with pytest.raises(ValueError, match="interface"):
        imap.trace_grid([0.5], interface=())
    # t as evaluate_grid takes it: one time or a nonempty 1-D sequence
    with pytest.raises(ValueError, match="^t must"):
        imap.trace_grid([], 1)
    with pytest.raises(ValueError, match="^t must"):
        imap.trace_grid([[0.5]], 1)
    with pytest.raises(ValueError, match="^t must"):
        imap.trace_grid([0.5, np.nan], 1)
    (one,) = imap.trace_grid(0.5, 1)
    ref = imap.trace(0.5)
    assert (one.t, one.value, one.error) == (ref.t, ref.value, ref.error)


def test_several_interfaces_match_their_single_traces():
    # one table for all three jumps, refined on every column, against a
    # table of each jump's own
    imap = InterfaceMap(THREE, IC)
    ts = [0.0, 0.3, 0.6, 0.9, 1.2]
    got = imap.trace_grid(ts, (1, 2, 3), derivative=True)
    want = [s for ell in (1, 2, 3) for s in imap.trace_grid(ts, ell, derivative=True)]
    assert [(s.x, s.t) for s in got] == [(s.x, s.t) for s in want]
    for a, b in zip(got, want):
        assert abs(a.value - b.value) <= a.error + b.error
        assert abs(a.psi_x - b.psi_x) <= a.psi_x_error + b.psi_x_error


def test_repeated_interfaces_and_times_match_single_calls():
    # duplicates and t = 0 among the times are served from one sample per
    # distinct interface and time; t = 0 gives the data at x_ell
    imap = InterfaceMap(THREE, IC)
    got = imap.trace_grid([0.5, 0.0, 0.5], [2, 1, 2], derivative=True)
    want = [imap.trace_grid(t, ell, derivative=True)[0]
            for ell in (2, 1, 2) for t in (0.5, 0.0, 0.5)]
    assert [(s.x, s.t) for s in got] == [(s.x, s.t) for s in want]
    for a, b in zip(got, want):
        assert abs(a.value - b.value) <= a.error + b.error
        assert abs(a.psi_x - b.psi_x) <= a.psi_x_error + b.psi_x_error
    for s in got[1::3]:
        x = np.array([s.x])
        assert (s.t, s.error, s.psi_x_error) == (0.0, 0.0, 0.0)
        assert s.value == IC.evaluate(x)[0] and s.psi_x == IC.derivative(x)[0]
    assert got[0] == got[2] == got[6] == got[8]


@pytest.mark.parametrize("derivative", [False, True])
def test_table_holds_only_the_columns_it_sums(monkeypatch, derivative):
    # psi at each distinct jump, and psi_x with the slope: not the 2n
    # unknowns
    tables = []
    build = step.build_node_table

    def spy(*args, **kwargs):
        tables.append(build(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(step, "build_node_table", spy)
    InterfaceMap(THREE, IC).trace_grid([0.3, 0.6], [2, 1, 2], derivative=derivative)
    (table,) = tables
    # the stack, then the x-coefficient row of an x-free term, zero
    assert table.cols.shape == (2 * (1 + derivative) + 1, table.z.size)
    assert not np.any(table.cols[-1])


def test_several_interfaces_solve_each_node_once(monkeypatch):
    seen = []
    solve = interface_map.solve_unknowns

    def spy(potential, ic, kappa):
        seen.append(np.atleast_1d(kappa))
        return solve(potential, ic, kappa)

    monkeypatch.setattr(interface_map, "solve_unknowns", spy)
    InterfaceMap(THREE, IC).trace_grid([0.3, 0.6, 0.9, 1.2], (1, 2, 3),
                                       derivative=True)
    z = np.ascontiguousarray(np.concatenate(seen))
    assert z.size == len(np.unique(z.view(np.uint64).reshape(-1, 2), axis=0))


def test_one_table_carries_every_time_on_the_path_of_the_largest(monkeypatch):
    paths = []
    build = step.build_node_table

    def spy(path, *args, **kwargs):
        paths.append(path)
        return build(path, *args, **kwargs)

    monkeypatch.setattr(step, "build_node_table", spy)
    imap = InterfaceMap(THREE, IC)
    # a single time: the sector path of that time as it is
    imap.trace(0.6, 2)
    (path,) = paths
    want, _ = imap.sector(4, 0.6)(path.reach())
    assert path.rates == (0.6,) and path.legs == want.legs
    # several times: the corner legs of the largest, the ray a chirp leg in
    # its own pieces, and one set of weights per distinct time, smallest
    # first
    paths.clear()
    imap.trace_grid([0.6, 0.3, 1.2, 0.6], 2)
    (path,) = paths
    want, _ = imap.sector(4, 1.2)(path.reach())
    assert path.rates == (0.3, 0.6, 1.2) and path.legs == want.legs
    ray = path.legs[-1]
    n = int(np.ceil((path.reach() - imap.radius) / 2.0))
    assert ray.kind == "chirp" and ray.splits == tuple(np.arange(1, n) / n)


def test_fastest_time_of_a_wide_time_range_stays_honest():
    # T is set by t = 0.5, so at t = 4 the axis ray holds about 1300 periods;
    # a first panel spanning nine of them once passed the 7-15 check by
    # accident and missed by 5.3e-8 under an estimate of 9.8e-9
    pot = PiecewisePotential([0.0, 1.5, -1.0, 0.5], [0.0, 1.0, 2.5])
    ic = InitialCondition.gaussian(center=-1.0, width=1.0, momentum=0.7)
    got = InterfaceMap(pot, ic).trace_grid([0.5, 4.0], interface=3)[1]
    ref = GeneralSolver(pot, ic, tolerance=1e-10).evaluate(2.5, 4.0)
    assert abs(got.value - ref.value) <= got.error + ref.error


def test_slope_trace_meets_tolerance():
    # the truncation is chosen from the psi and psi_x columns: at the psi
    # column's T = 28.4 alone the slope column's tail estimate was 2.3e-8
    # at t = 0.3
    pot = PiecewisePotential([0.0, 1.5, -1.0, 0.5], [0.0, 1.0, 2.5])
    ic = InitialCondition.gaussian(center=-1.0, width=1.0, momentum=0.7)
    ts = [0.3, 0.6, 0.9, 1.2]
    got = InterfaceMap(pot, ic, tolerance=1e-8).trace_grid(ts, 2, derivative=True)
    assert max(s.psi_x_error for s in got) <= 1e-8
    ref = GeneralSolver(pot, ic, tolerance=1e-11).evaluate_grid([1.0], ts,
                                                                derivative=True)
    for a, b in zip(got, ref):
        assert abs(a.psi_x - b.psi_x) <= a.psi_x_error + b.psi_x_error


@pytest.mark.parametrize("case", ["space_time map", "slope trace"])
def test_grouped_search_takes_the_largest_single_column_truncation(monkeypatch, case):
    # one search over the stack of every column accepts the first rung at
    # which every column clears: here the T the longest column's own search
    # takes
    calls = []
    search = step.choose_truncation

    def spy(builder, weight, *args, **kwargs):
        out = search(builder, weight, *args, **kwargs)
        calls.append((builder, weight, args, kwargs, out[0].reach()))
        return out

    monkeypatch.setattr(step, "choose_truncation", spy)
    ells = (1, 2, 3) if case == "space_time map" else 2
    InterfaceMap(THREE, IC, tolerance=1e-8).trace_grid([0.3, 0.6, 0.9, 1.2], ells,
                                                      derivative=True)
    ((builder, weight, args, kwargs, T),) = calls
    m = 6 if case == "space_time map" else 2
    assert np.shape(weight(np.array([1.0 - 1.0j]), "")) == (m, 1)
    # each column searched alone, in a store of its own
    alone = dict(kwargs, store=None)
    single = [search(builder, lambda z, tag, j=j: weight(z, tag)[j], *args,
                     **alone)[0].reach() for j in range(m)]
    assert T == max(single)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the tol * 1e4 retry after a failed build returns errors "
                          "far above the tolerance and raises nothing (ROADMAP item 3)")
def test_wide_time_traces_meet_their_tolerance():
    # the first build fails on a corner leg at the 2000-panel budget of an
    # x-free table, and the retry passes at 1e4 times its target: errors up
    # to 6.2e-7 come back without a word
    imap = InterfaceMap(THREE, InitialCondition.gaussian(center=0.4, momentum=0.7),
                        tolerance=1e-10)
    got = imap.trace_grid(np.logspace(-2.0, 1.0, 12), [1, 2, 3], derivative=True)
    assert max(max(s.error, s.psi_x_error) for s in got) <= 1e-10
