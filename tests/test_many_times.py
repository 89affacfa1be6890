"""evaluate_grid over several times at once: one node table per term.

The path of a multi-time call is the sector path of the largest time, with
one set of quadrature weights per distinct time; every node, and the data
computed at it, serves all of them.
"""

import numpy as np
import pytest

from schrostep import (GeneralSolver, InitialCondition, InterfaceMap, PiecewisePotential,
                       StepSolver, WellSolver, contours, interface_map, step,
                       transforms)
from schrostep.oracle import free_gaussian

IC = InitialCondition.gaussian(center=-1.0, width=1.0, momentum=0.7)
UP = PiecewisePotential([1.0, 2.0], [0.0])
THREE = PiecewisePotential([0.0, 1.5, -1.0, 0.5], [0.0, 1.0, 2.5])
WELL = PiecewisePotential([0.0, -3.0, 0.0], [0.0, 1.0])
XS = np.linspace(-3.0, 4.0, 15)
TS = [0.9, 0.3, 1.2, 0.6]


def _solvers(pot_step, pot_three, pot_well, ic, **kw):
    return {
        "d4": StepSolver(pot_step, ic, **kw),
        "quadrant": StepSolver(pot_step, ic, representation="quadrant", **kw),
        "realline": StepSolver(pot_step, ic, representation="realline", **kw),
        "general": GeneralSolver(pot_three, ic, **kw),
        "well": WellSolver(pot_well, ic, **kw),
    }


SOLVERS = _solvers(UP, THREE, WELL, IC)


@pytest.mark.parametrize("name", list(SOLVERS))
def test_many_times_agree_with_one_call_per_time(name):
    solver = SOLVERS[name]
    derivative = name in ("general", "well")
    got = solver.evaluate_grid(XS, TS, derivative=derivative)
    # time-major, in the order given
    assert [(s.x, s.t) for s in got] == [(x, t) for t in TS for x in XS.tolist()]
    want = [s for t in TS for s in solver.evaluate_grid(XS, t, derivative=derivative)]
    for a, b in zip(got, want):
        assert abs(a.value - b.value) <= a.error + b.error, (a, b)
        if derivative:
            assert abs(a.psi_x - b.psi_x) <= a.psi_x_error + b.psi_x_error, (a, b)


FLAT_TIMES = [0.3, 0.7, 1.5, 4.0]


@pytest.mark.parametrize("name", list(SOLVERS))
def test_many_times_on_a_flat_profile_meet_the_free_gaussian(name):
    # equal levels alpha: the free Gaussian times exp(-i alpha t), at every
    # time of one call within each sample's own estimate
    alpha = 0.375
    flat = _solvers(PiecewisePotential([alpha, alpha], [0.0]),
                    PiecewisePotential([alpha] * 4, [0.0, 1.0, 2.5]),
                    PiecewisePotential([0.0, 0.0, 0.0], [0.0, 1.0]), IC)[name]
    level = 0.0 if name == "well" else alpha
    xs = np.linspace(-4.0, 4.0, 9)
    got = flat.evaluate_grid(xs, FLAT_TIMES)
    for k, t in enumerate(FLAT_TIMES):
        want = free_gaussian(xs, t, -1.0, 1.0, 0.7) * np.exp(-1j * level * t)
        for smp, w in zip(got[k * xs.size:(k + 1) * xs.size], want):
            assert smp.t == t
            assert abs(smp.value - w) <= smp.error, smp


@pytest.mark.parametrize("name", ["d4", "well"])
def test_time_zero_among_the_times_gives_the_initial_samples(name):
    solver = SOLVERS[name]
    got = solver.evaluate_grid(XS, [0.5, 0.0, 0.5], derivative=True)
    n = XS.size
    init = solver.evaluate_grid(XS, 0.0, derivative=True)
    assert [(s.value, s.error, s.psi_x) for s in got[n:2 * n]] == \
        [(s.value, s.error, s.psi_x) for s in init]
    np.testing.assert_allclose([s.value for s in init], IC.evaluate(XS), rtol=1e-14)
    # a repeated time gives the same samples twice
    assert [s.value for s in got[:n]] == [s.value for s in got[2 * n:]]


@pytest.mark.parametrize("ts", [[], [0.5, -0.25], [0.5, np.nan], [np.inf], -1.0,
                                [[0.5, 1.0]], "a", [0.5, "a"], 0.5 + 0j,
                                [0.5, 0.5 + 1j], np.array([0.5 + 0j])])
def test_bad_times_are_refused_naming_t(ts):
    with pytest.raises(ValueError, match="^t must"):
        SOLVERS["d4"].evaluate_grid(XS, ts)
    with pytest.raises(ValueError, match="^t must"):
        InterfaceMap(THREE, IC).trace_grid(ts)


@pytest.mark.parametrize("xs", [0.5, [[0.5, 1.0]], [[0.5], [1.0]], [0.5, np.nan],
                                ["a"], [0.5 + 1j], np.array([0.5 + 0j]),
                                [0.5, [1.0]]])
def test_bad_points_are_refused_naming_x(xs):
    with pytest.raises(ValueError, match="^x must"):
        SOLVERS["d4"].evaluate_grid(xs, 0.5)


def test_evaluate_takes_one_number_for_x():
    with pytest.raises(ValueError, match="^x must"):
        SOLVERS["d4"].evaluate(np.array([0.5]), 0.5)
    with pytest.raises(ValueError, match="^x must"):
        SOLVERS["d4"].evaluate(0.5 + 1j, 0.5)
    for derivative in (False, True):
        assert SOLVERS["d4"].evaluate_grid([], 0.5, derivative=derivative) == []


def test_one_table_per_term_and_one_free_term_call_for_every_time(monkeypatch):
    tables, frees = [], []
    build, free = step.build_node_table, step.free_term

    def spy_build(path, *args, **kwargs):
        tables.append(path)
        return build(path, *args, **kwargs)

    def spy_free(*args, **kwargs):
        frees.append(args)
        return free(*args, **kwargs)

    monkeypatch.setattr(step, "build_node_table", spy_build)
    monkeypatch.setattr(step, "free_term", spy_free)
    solver = SOLVERS["well"]
    solver.evaluate_grid(XS, 0.6)
    single = len(tables)
    tables.clear()
    frees.clear()
    solver.evaluate_grid(XS, TS)
    # one table per term, as for one time, each with the weights of every
    # time on the corner legs of the largest
    assert len(tables) == single
    assert all(p.rates == tuple(sorted(TS)) for p in tables)
    want, _ = solver.sector(4, max(TS))(tables[0].reach())
    assert tables[0].legs == want.legs
    assert len(frees) == 1
    assert transforms.free_term is free


def test_one_table_integral_call_per_node_table_for_every_time(monkeypatch):
    tables, sum_table = [], step.table_integral

    def spy(table, *args, **kwargs):
        tables.append(table)
        return sum_table(table, *args, **kwargs)

    monkeypatch.setattr(step, "table_integral", spy)
    ts = (0.3, 0.9, 1.2)
    terms = SOLVERS["d4"]._terms(1, ts, True, 4.0)
    vals, errs = step.eval_terms(terms, np.linspace(-3.0, -0.5, 6), 1e-8)
    # one call per term sums psi and psi_x, the terms' slope, at every time
    assert len(tables) == len({id(t) for t in tables}) == len(terms)
    assert all(t.rates == ts for t in tables)
    assert vals.shape == errs.shape == (3, 2, 6)
    tables.clear()
    got = InterfaceMap(THREE, IC).trace_grid(TS, interface=[1, 3], derivative=True)
    assert len(got) == 8
    assert len(tables) == 1 and tables[0].rates == tuple(sorted(TS))


def _errors_per_rate(v, w, n, per):
    # the panel errors rate by rate, as they were formed before the rates
    # became one axis
    v = np.asarray(v, dtype=complex).reshape(-1, n, per)
    err = None
    for c15, c7 in w:
        diff = np.sum(v * c15, axis=-1) - np.sum(v * c7, axis=-1)
        u = np.hypot(diff.real, diff.imag)
        e = np.max(np.minimum(u, np.float_power(200.0 * u, 1.5)), axis=0, initial=0.0)
        err = e if err is None else np.maximum(err, e)
    return err


def test_panel_errors_of_every_rate_in_one_pass_match_the_rate_loop():
    # a 4-rate corner path; the probes of a term with the slope (6 probes)
    solver = SOLVERS["d4"]
    ts = (0.3, 0.7, 1.1, 1.9)
    term = solver._terms(1, ts, True, 4.0)[0]
    assert term.derivative and any(leg.label == "corner leg" for leg in term.path.legs)
    probes = step._term_probes(term, np.linspace(-3.0, -0.5, 6))
    for leg in term.path.legs:
        edges = np.linspace(0.0, 1.0, 9)
        z, w = contours._panel_nodes(leg, edges[:-1], edges[1:], ts)
        assert w.shape == (4, 2) + z.shape
        cols = np.stack((term.weight(z.ravel(), leg.tag), term.xcoef(z.ravel(), leg.tag)))
        v = probes(z.ravel(), cols)
        assert v.shape == (6, z.size)
        got = contours._errors(v, w, *z.shape)
        assert got.tobytes() == _errors_per_rate(v, w, *z.shape).tobytes(), leg.label


def _estimates_in(monkeypatch, target, name):
    """Count _OscTail.estimate calls made inside target.name, per call of it."""
    counts, estimate, wrapped = [], step._OscTail.estimate, getattr(target, name)

    def spy_estimate(self, x):
        if counts:
            counts[-1] += 1
        return estimate(self, x)

    def spy(*args, **kwargs):
        counts.append(0)
        try:
            return wrapped(*args, **kwargs)
        finally:
            spy.calls.append(counts.pop())

    spy.calls = []
    monkeypatch.setattr(step._OscTail, "estimate", spy_estimate)
    monkeypatch.setattr(target, name, spy)
    return spy.calls


@pytest.mark.parametrize("name", ["quadrant", "general"])
def test_tail_corrections_of_every_time_in_one_evaluation_per_term(monkeypatch, name):
    sums, term_sum = [], step._term_sum

    def spy(term, table, xs):
        out = term_sum(term, table, xs)
        sums.append((term, table, xs, out))
        return out

    monkeypatch.setattr(step, "_term_sum", spy)
    per_call = _estimates_in(monkeypatch, step._Tails, "at")
    SOLVERS[name].evaluate_grid(XS, TS, derivative=True)
    # one tail evaluation per term (each has one oscillatory ray), every time
    assert per_call == [1] * len(sums) and len(sums) >= 2
    monkeypatch.undo()
    for term, table, xs, (vals, errs) in sums:
        W, C = table.cols
        v, e = step.table_integral(table, np.stack((W, 1j * C * W)), C, xs - term.x_offset)
        assert vals.shape == (len(TS), 2, xs.size)
        for k, t in enumerate(sorted(TS)):
            corr, tail = term.tails[k].at(xs)
            assert term.tails[k].t == t
            want = v[k] + corr.T
            if term.level:
                want = np.exp(-1j * term.level * t) * want
            assert vals[k].tobytes() == want.tobytes()
            assert errs[k].tobytes() == (e[k] + tail.T).tobytes()


def test_interface_tail_corrections_of_every_time_in_one_evaluation(monkeypatch):
    found, sums = [], []
    search, sum_table = interface_map.choose_truncation, step.table_integral

    def spy_search(*args, **kwargs):
        found.append(search(*args, **kwargs))
        return found[-1]

    def spy_sum(*args):
        sums.append(sum_table(*args))
        return sums[-1]

    monkeypatch.setattr(interface_map, "choose_truncation", spy_search)
    monkeypatch.setattr(step, "table_integral", spy_sum)
    per_call = _estimates_in(monkeypatch, step._Tails, "at")
    got = InterfaceMap(THREE, IC).trace_grid(TS, interface=[1, 3], derivative=True)
    assert per_call == [1]
    ((_, tails),), ((v, e),) = found, sums
    assert len(tails) == len(TS)
    # interface-major, each time at its own row of the sums
    for j, ell in enumerate([1, 3]):
        for smp in got[j * len(TS):(j + 1) * len(TS)]:
            k = sorted(TS).index(smp.t)
            corr, tail = tails[k].at(0.0)
            for col, value, error in ((j, smp.value, smp.error),
                                      (2 + j, smp.psi_x, smp.psi_x_error)):
                assert value == complex(v[k, col, 0] + corr[col])
                assert error == float(e[k, col, 0] + tail[col])
