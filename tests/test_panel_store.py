"""The terms of one evaluate_grid call that end on one path share its panels.

Every span is evaluated once per call for every term whose table still has
to be built on that path (contours.PanelStore), and each table stays the
one the term's build gives alone.  These tests pin both, in the solvers
and in the store itself.
"""

from collections import Counter

import numpy as np
import pytest

from schrostep import (GeneralSolver, InitialCondition, PiecewisePotential,
                       StepSolver, WellSolver, contours, general, step)
from schrostep.contours import (ContourPath, Leg, PanelStore, QuadratureError,
                                build_node_table)

IC = InitialCondition.gaussian(center=-1.0, width=1.0, momentum=0.7)
THREE = PiecewisePotential([0.0, 1.5, -1.0, 0.5], [0.0, 1.0, 2.5])
WELL = PiecewisePotential([0.0, -3.0, 0.0], [0.0, 1.0])
STEP = PiecewisePotential([1.0, 2.0], [0.0])
# the Gaussian IC on 21 points spanning 3.5 widths either side
_X = np.linspace(-4.5, 2.5, 21)
TABLE = InitialCondition.tabulated(_X, np.exp(-(_X + 1.0) ** 2 + 0.7j * _X))

# name: (solver, xs, t, derivative)
CALLS = {
    "general, t = 1": (lambda: GeneralSolver(THREE, IC), np.linspace(-3.0, 4.0, 15),
                       1.0, False),
    "well, slope, 4 times": (lambda: WellSolver(WELL, IC), np.linspace(-3.0, 4.0, 15),
                             [0.3, 0.6, 0.9, 1.2], True),
    "tabulated d4 step": (lambda: StepSolver(STEP, TABLE), np.linspace(-4.0, 4.0, 21),
                          0.5, False),
    # each term alone on its path: a store of one owner
    "quadrant step, slope": (lambda: StepSolver(STEP, IC, "quadrant"),
                             np.linspace(-4.0, 4.0, 21), 0.5, True),
}

FIELDS = ("z", "w15", "w7", "cols", "panel", "spans", "error")


def _bits(table):
    return [np.asarray(getattr(table, f)).tobytes() if f != "spans" else table.spans
            for f in FIELDS]


@pytest.mark.parametrize("name", list(CALLS))
def test_each_table_of_a_call_is_the_one_built_alone(name, monkeypatch):
    builds = []
    build = step.build_node_table

    def spy(path, columns, tolerance, **kwargs):
        table = build(path, columns, tolerance, **kwargs)
        builds.append((path, columns, tolerance, kwargs, table))
        return table

    monkeypatch.setattr(step, "build_node_table", spy)
    solver, xs, t, derivative = CALLS[name]
    solver().evaluate_grid(xs, t, derivative=derivative)
    assert sum(kw["store"] is not None for _, _, _, kw, _ in builds) >= 2
    for path, columns, tolerance, kwargs, table in builds:
        kwargs = dict(kwargs, store=None)
        assert _bits(build(path, columns, tolerance, **kwargs)) == _bits(table)


@pytest.mark.parametrize("name", list(CALLS))
def test_each_span_is_evaluated_once_per_call(name, monkeypatch):
    spans = []
    evaluate = contours._evaluate

    def spy(path, columns, probes, each, *args):
        # the path object itself, so that its id is not reused
        spans.extend((path, span) for span in each)
        return evaluate(path, columns, probes, each, *args)

    monkeypatch.setattr(contours, "_evaluate", spy)
    solver, xs, t, derivative = CALLS[name]
    solver().evaluate_grid(xs, t, derivative=derivative)
    keys = [(id(path), span) for path, span in spans]
    assert keys and len(set(keys)) == len(keys)


def _node_keys(z):
    """The exact bits of each node z, as hashable keys."""
    z = np.ascontiguousarray(z, dtype=complex)
    return [bytes(row) for row in z.view(np.uint8).reshape(-1, 16)]


def test_a_node_is_solved_at_most_once_per_path_that_evaluates_it(monkeypatch):
    # eight jumps with levels alternating 0 and 1: the regions end on two
    # rungs (T = 14.48 and 23.17), whose paths share their arc.  A store's
    # batches compute their rows directly, so a node of a leg common to both
    # paths is solved once per path; tail samples are solved once per block
    # of rungs by the ladder's tail store.
    solved, evaluated = [], []
    solve = general.solve_unknowns
    evaluate = contours._evaluate

    def solve_spy(potential, ic, kappa):
        solved.extend(_node_keys(np.atleast_1d(kappa)))
        return solve(potential, ic, kappa)

    def evaluate_spy(path, columns, probes, spans, *args):
        panels = evaluate(path, columns, probes, spans, *args)
        # the path object itself, so that its id is not reused; a panel's
        # nodes are dropped once its owners are done with it
        evaluated.extend((path, path.legs[p.leg].label, _node_keys(p.nodes[0]))
                         for p in panels)
        return panels

    monkeypatch.setattr(general, "solve_unknowns", solve_spy)
    monkeypatch.setattr(contours, "_evaluate", evaluate_spy)
    pot = PiecewisePotential([float(j % 2) for j in range(9)], [float(j) for j in range(8)])
    ic = InitialCondition.gaussian(center=-3.0, width=1.0, momentum=1.5)
    GeneralSolver(pot, ic).evaluate_grid(np.linspace(-6.0, 10.0, 201), 0.5)
    paths, labels = {}, {}
    for path, label, keys in evaluated:
        for key in keys:
            paths.setdefault(key, set()).add(id(path))
            labels.setdefault(key, set()).add(label)
    assert any(len(ids) > 1 for ids in paths.values())
    solves = Counter(solved)
    repeats = [key for key, n in solves.items() if n > 1]
    for key in repeats:
        assert len(paths[key]) >= 2
        assert labels[key] <= {"arc", "corner leg"}
    assert all(n <= max(1, len(paths.get(key, ()))) for key, n in solves.items())


# -- the store on its own ----------------------------------------------------

PATH = ContourPath(legs=[Leg.line(-12.0, 12.0), Leg.line(12.0, 13.0)])
# each owner's one column and probes at two x, and its tolerance
OWNERS = [
    (lambda z: np.exp(-z * z / 16.0) * np.cos(20.0 * z), (0.0, 0.5), 1e-12),
    (lambda z: np.exp(-z * z), (0.0, 2.0), 1e-13),
    (lambda z: np.exp(-0.25 * z * z) * np.cos(12.0 * z), (1.0,), 1e-11),
]


def _owner(i):
    f, xs, tol = OWNERS[i]

    def probes(z, cols):
        return [cols[0] * np.exp(1j * z * x) for x in xs]
    return (lambda z, tag: f(z)), probes, tol


def _store(n, calls):
    owners = [_owner(i) for i in range(n)]

    def columns(z, tag, which):
        calls.append((z.size, list(which)))
        return [owners[i][0](z, tag) for i in which]
    return PanelStore(PATH, columns, [probes for _, probes, _ in owners]), owners


def test_store_tables_match_tables_built_alone(monkeypatch):
    spans = []
    evaluate = contours._evaluate

    def spy(path, columns, probes, each, *args):
        spans.extend(each)
        return evaluate(path, columns, probes, each, *args)

    monkeypatch.setattr(contours, "_evaluate", spy)
    alone = [build_node_table(PATH, columns, tol, probes=probes)
             for columns, probes, tol in map(_owner, range(len(OWNERS)))]
    n_alone = len(spans)
    spans.clear()
    calls = []
    store, owners = _store(len(OWNERS), calls)
    for i, (columns, probes, tol) in enumerate(owners):
        table = build_node_table(PATH, columns, tol, probes=probes, store=(store, i))
        assert _bits(table) == _bits(alone[i])
    assert len(set(spans)) == len(spans) < n_alone
    # an owner's columns are evaluated with every later owner's
    assert all(which == list(range(which[0], len(OWNERS))) for _, which in calls)


def test_a_failed_owner_leaves_the_later_tables_unchanged():
    calls = []
    store, owners = _store(2, calls)
    columns, probes, tol = owners[0]
    with pytest.raises(QuadratureError):
        build_node_table(PATH, columns, tol, max_panels=6, probes=probes,
                         store=(store, 0))
    columns, probes, tol = owners[1]
    table = build_node_table(PATH, columns, tol, probes=probes, store=(store, 1))
    assert _bits(table) == _bits(build_node_table(PATH, columns, tol, probes=probes))
