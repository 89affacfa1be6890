"""The interface data of one evaluate_grid call are shared between its terms.

Every term of a call lies on the same sector(4, t) contour, so their node
tables share most nodes.  A tail store samples the tails of every term on
one truncation ladder once per block of rungs, and a panel store computes
the rows of each span of its path once for all the terms on that path; a
term's weight called itself (a table alone on its path) computes its rows
at its nodes.  So a tail sample is solved once per ladder, and a node of a
table at most once per rung path that evaluates it.  These tests pin that
the sharing changes no output bit, that each distinct node is solved once
in calls whose regions end on one rung, and that the stores leave nothing
behind on the solver, so that a call made during another changes nothing.
The tail store of a ladder builds the sector path of each rung once: the
last tests pin that no rung's path is built twice in a call, that terms at
the same rung share one path, and that nothing modifies a built path.
"""

import copy
import gc
import weakref

import numpy as np
import pytest

import schrostep.contours
import schrostep.general
import schrostep.step
import schrostep.well
from schrostep import (GeneralSolver, InitialCondition, PiecewisePotential,
                       StepSolver, WellSolver)

IC = InitialCondition.gaussian(center=-1.0, width=1.0, momentum=0.7)
THREE = PiecewisePotential([0.0, 1.5, -1.0, 0.5], [0.0, 1.0, 2.5])
WELL = PiecewisePotential([0.0, -3.0, 0.0], [0.0, 1.0])
STEP = PiecewisePotential([1.0, 2.0], [0.0])

SOLVERS = {
    "general": lambda: GeneralSolver(THREE, IC),
    "well": lambda: WellSolver(WELL, IC),
    "step-d4": lambda: StepSolver(STEP, IC),
}


def _columns(samples):
    return np.array([(s.value, s.error, s.psi_x, s.psi_x_error) for s in samples],
                    dtype=complex)


def _distinct(nodes):
    """Number of distinct nodes by their exact bits."""
    z = np.ascontiguousarray(np.concatenate(nodes), dtype=complex)
    return len(np.unique(z.view(np.uint64).reshape(-1, 2), axis=0))


@pytest.mark.parametrize("name", ["general", "well"])
def test_shared_nodes_leave_every_output_bit_unchanged(name):
    # a per-region call shares nothing across regions
    solver = SOLVERS[name]()
    pot = solver.potential
    xs = np.concatenate([np.linspace(-3.0, 4.0, 15), pot.interfaces,
                         np.asarray(pot.interfaces) - 1e-9])
    regions = np.searchsorted(pot.interfaces, xs, side="right") + 1
    whole = _columns(solver.evaluate_grid(xs, 0.5, derivative=True))
    for j in range(1, pot.nregions + 1):
        part = _columns(solver.evaluate_grid(xs[regions == j], 0.5, region=j,
                                             derivative=True))
        assert part.tobytes() == whole[regions == j].tobytes()


@pytest.mark.parametrize("name", ["general", "step-d4"])
def test_each_distinct_node_is_solved_once_per_call(name, monkeypatch):
    seen = []
    solve = schrostep.general.solve_unknowns

    def spy(potential, ic, kappa):
        seen.append(np.atleast_1d(kappa))
        return solve(potential, ic, kappa)

    monkeypatch.setattr(schrostep.general, "solve_unknowns", spy)
    xs = np.linspace(-3.0, 4.0, 15)
    for t in (0.5, 1.0):
        seen.clear()
        SOLVERS[name]().evaluate_grid(xs, t, derivative=True)
        nodes = sum(z.size for z in seen)
        assert nodes > 0 and nodes == _distinct(seen)


def test_each_distinct_node_is_transformed_once_per_call(monkeypatch):
    seen = []
    hat = schrostep.well.hat_transform

    def spy(ic, potential, region, k, origin=0.0):
        # the region-1 rows of a call in the row form
        seen.extend(kr for r, kr in zip(np.atleast_1d(region), np.atleast_2d(k))
                    if r == 1)
        return hat(ic, potential, region, k, origin=origin)

    monkeypatch.setattr(schrostep.well, "hat_transform", spy)
    WellSolver(WELL, IC).evaluate_grid(np.linspace(-3.0, 4.0, 15), 0.5,
                                       derivative=True)
    assert sum(z.size for z in seen) == _distinct(seen)


def _store_refs(monkeypatch):
    """Weak references to every tail and panel store made from now on."""
    refs = []
    for cls in (schrostep.step._TailStore, schrostep.contours.PanelStore):
        def spy(self, *args, _init=cls.__init__, **kwargs):
            refs.append(weakref.ref(self))
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", spy)
    return refs


@pytest.mark.parametrize("name", list(SOLVERS))
def test_stores_die_with_the_call(name, monkeypatch):
    # with the collector off, a reference cycle through the solver (say
    # solver -> store -> closure -> solver) would keep both alive
    stores = _store_refs(monkeypatch)
    gc.disable()
    try:
        solver = SOLVERS[name]()
        attrs = set(vars(solver))
        solver.evaluate_grid(np.linspace(-2.0, 3.0, 6), 0.5)
        assert set(vars(solver)) == attrs
        assert stores and all(ref() is None for ref in stores)
        ref = weakref.ref(solver)
        del solver
        assert ref() is None
    finally:
        gc.enable()


def test_stores_are_dropped_when_the_call_raises(monkeypatch):
    stores = _store_refs(monkeypatch)
    solver = GeneralSolver(THREE, IC)
    attrs = set(vars(solver))

    def fail(*args, **kwargs):
        raise RuntimeError("solve failed")

    monkeypatch.setattr(schrostep.general, "solve_unknowns", fail)
    with pytest.raises(RuntimeError) as raised:
        solver.evaluate_grid([0.5], 0.5)
    assert set(vars(solver)) == attrs
    # the traceback holds the call's frames, and with them its stores
    del raised
    gc.collect()
    assert stores and all(ref() is None for ref in stores)


def test_a_call_made_during_a_call_leaves_it_unchanged(monkeypatch):
    # the solver keeps no state of its own while a call lasts
    xs = np.linspace(-2.0, 3.0, 6)
    want = GeneralSolver(THREE, IC).evaluate_grid(xs, 0.5)
    solver = GeneralSolver(THREE, IC)
    calls = []
    solve = schrostep.general.solve_unknowns

    def spy(potential, ic, kappa):
        calls.append(len(calls))
        if len(calls) == 3:
            solver.evaluate_grid([0.3], 0.7)
        return solve(potential, ic, kappa)

    monkeypatch.setattr(schrostep.general, "solve_unknowns", spy)
    got = solver.evaluate_grid(xs, 0.5)
    assert len(calls) > 3
    assert np.array([(s.value, s.error) for s in got]).tobytes() == \
        np.array([(s.value, s.error) for s in want]).tobytes()


@pytest.mark.parametrize("name", list(SOLVERS))
def test_no_rung_path_is_built_twice_in_a_call(name, monkeypatch):
    built = []
    boundary = schrostep.step.rotated_boundary

    def spy(quad, radius, T, *args, **kwargs):
        built.append((quad, T))
        return boundary(quad, radius, T, *args, **kwargs)

    monkeypatch.setattr(schrostep.step, "rotated_boundary", spy)
    SOLVERS[name]().evaluate_grid(np.linspace(-2.0, 4.0, 13), [0.3, 0.9],
                                  derivative=True)
    assert built and len(built) == len(set(built))


def test_sector_builders_are_equal_for_equal_solver_quadrant_and_times():
    # so that the terms on equal builders climb one ladder
    solver = GeneralSolver(THREE, IC)
    ts = [0.3, 0.9]
    assert solver.sector(4, ts) == solver.sector(4, tuple(ts))
    assert hash(solver.sector(4, ts)) == hash(solver.sector(4, np.array(ts)))
    for other in (solver.sector(1, ts), solver.sector(4, [0.3, 1.0]),
                  solver.sector(4, 0.3), GeneralSolver(THREE, IC).sector(4, ts)):
        assert solver.sector(4, ts) != other


def test_terms_at_one_rung_share_one_unmodified_path(monkeypatch):
    # every term of the call searches the same sector(4, ts) rungs; those
    # that accept the same rung get the one path built for it, and no
    # table, sum or tail model changes it
    found = []
    search = schrostep.step.choose_truncation

    def spy(*args, **kwargs):
        path, tails = search(*args, **kwargs)
        found.append((path, copy.deepcopy(path.legs), path.rates))
        return path, tails

    monkeypatch.setattr(schrostep.step, "choose_truncation", spy)
    solver = GeneralSolver(THREE, IC)
    solver.evaluate_grid(np.linspace(-2.0, 4.0, 13), [0.3, 0.9], derivative=True)
    assert len(found) == 6
    by_rung = {}
    for path, _, _ in found:
        by_rung.setdefault(path.reach(), set()).add(id(path))
    assert all(len(ids) == 1 for ids in by_rung.values())
    assert len(by_rung) < len(found)
    for path, legs, rates in found:
        assert path.legs == legs and path.rates == rates == (0.3, 0.9)


def _region_terms(monkeypatch, t):
    """(solver, [(region, terms, searches)]) of one GeneralSolver call on
    the three-jump profile with the slope, searches the (args, kwargs,
    (path, tails)) of each choose_truncation call the region's terms made."""
    calls, regions = [], []
    search = schrostep.step.choose_truncation
    terms_of = schrostep.step.ContourSolver._terms

    def spy(*args, **kwargs):
        out = search(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    def terms_spy(self, region, *args, **kwargs):
        first = len(calls)
        out = terms_of(self, region, *args, **kwargs)
        regions.append((region, out, calls[first:]))
        return out

    monkeypatch.setattr(schrostep.step, "choose_truncation", spy)
    monkeypatch.setattr(schrostep.step.ContourSolver, "_terms", terms_spy)
    solver = GeneralSolver(THREE, IC)
    solver.evaluate_grid(np.linspace(-2.0, 4.0, 13), t, derivative=True)
    return solver, regions


def test_terms_of_a_region_end_on_its_top_rung_path(monkeypatch):
    # searched cold (from 2R), the two terms of regions 2 and 3 accept
    # different rungs; searched in turn, the later one starting where the
    # earlier stopped, both end on the one path of the region's top rung
    search = schrostep.step.choose_truncation
    solver, regions = _region_terms(monkeypatch, 1.0)
    assert [region for region, _, _ in regions] == [1, 2, 3, 4]
    differ = 0
    for region, terms, searches in regions:
        assert len(searches) == len(terms) == (1 if region in (1, 4) else 2)
        cold = [search(*args[:7], 2.0 * solver.radius, **kwargs)[0].reach()
                for args, kwargs, _ in searches]
        differ += len(set(cold)) > 1
        assert len({id(term.path) for term in terms}) == 1
        assert terms[0].path.reach() == max(cold)
    assert differ == 2


def test_a_lifted_term_has_the_tails_of_a_search_started_at_its_rung(monkeypatch):
    search = schrostep.step.choose_truncation
    _, regions = _region_terms(monkeypatch, 1.0)
    xs = np.linspace(-2.0, 4.0, 25)
    lifted = 0
    for _, terms, searches in regions:
        for term, (args, kwargs, (path, _)) in zip(terms, searches):
            if term.path is path:
                continue
            lifted += 1
            T = term.path.reach()
            assert T > path.reach()
            again, tails = search(*args[:7], T, **kwargs)
            assert again.reach() == T and again.legs == term.path.legs
            assert len(tails) == len(term.tails) == 1
            for want, got in zip(tails[0].at(xs), term.tails[0].at(xs)):
                assert got.shape == (xs.size, 2)
                assert got.tobytes() == want.tobytes()
    assert lifted == 2
