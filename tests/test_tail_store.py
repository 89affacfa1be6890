"""The terms of one evaluate_grid call that climb one ladder share a tail store.

Every fourth-quadrant term of a call searches the same truncation ladder,
so a step._TailStore samples the tail nodes of every rung of the ladder
once for all of them, in one computation of the interface data, and tests
the tails of every term at every rung in one array pass.  A rung's path is
built only where a term's search ends or a lift reads it.  These tests pin
both with counts, that each term's search and tails are those of a search
of its own from the same start, and that a builder without the sector's
geometry gives the same.
"""

import numpy as np
import pytest

from schrostep import GeneralSolver, InitialCondition, PiecewisePotential, step

IC = InitialCondition.gaussian(center=-1.0, width=1.0, momentum=0.7)
UP = PiecewisePotential([1.0, 2.0], [0.0])
THREE = PiecewisePotential([0.0, 1.5, -1.0, 0.5], [0.0, 1.0, 2.5])
# eight jumps with levels alternating 0 and 1, whose regions end on two rungs
EIGHT = PiecewisePotential([float(j % 2) for j in range(9)], [float(j) for j in range(8)])
EIGHT_IC = InitialCondition.gaussian(center=-3.0, width=1.0, momentum=1.5)

# name: (potential, initial data, xs, times, derivative)
CALLS = {
    "three jumps, slope, two times": (THREE, IC, np.linspace(-2.0, 4.0, 13), [0.3, 0.9],
                                      True),
    "eight alternating jumps": (EIGHT, EIGHT_IC, np.linspace(-6.0, 10.0, 41), 0.5, False),
}


def _spied_call(name, monkeypatch):
    """(stores, [(store, interface-data calls) per sampling], searches,
    terms, [T of each path built]) of one GeneralSolver call, searches the
    (args, kwargs, (path, tails)) of each choose_truncation call."""
    stores, sampled, calls, searches, terms, built = [], [], [], [], [], []
    init, model = step._TailStore.__init__, step._TailStore._model
    data = step.ContourSolver._interface_data
    search, search_groups = step.choose_truncation, step.ContourSettings._search
    rotated = step.rotated_boundary

    def init_spy(self, *args, **kwargs):
        stores.append(self)
        init(self, *args, **kwargs)

    def model_spy(self):
        first = len(calls)
        out = model(self)
        sampled.append((self, len(calls) - first))
        return out

    def data_spy(self, z):
        calls.append(z.size)
        return data(self, z)

    def search_spy(*args, **kwargs):
        out = search(*args, **kwargs)
        searches.append((args, kwargs, out))
        return out

    def groups_spy(self, *args, **kwargs):
        out = search_groups(self, *args, **kwargs)
        terms.extend(term for group in out for term in group)
        return out

    def rotated_spy(quad, R, T, *args, **kwargs):
        built.append(T)
        return rotated(quad, R, T, *args, **kwargs)

    monkeypatch.setattr(step._TailStore, "__init__", init_spy)
    monkeypatch.setattr(step._TailStore, "_model", model_spy)
    monkeypatch.setattr(step.ContourSolver, "_interface_data", data_spy)
    monkeypatch.setattr(step, "choose_truncation", search_spy)
    monkeypatch.setattr(step.ContourSettings, "_search", groups_spy)
    monkeypatch.setattr(step, "rotated_boundary", rotated_spy)
    pot, ic, xs, t, derivative = CALLS[name]
    GeneralSolver(pot, ic).evaluate_grid(xs, t, derivative=derivative)
    return stores, sampled, searches, terms, built


@pytest.mark.parametrize("name", list(CALLS))
def test_tails_are_solved_once_per_ladder(name, monkeypatch):
    stores, sampled, searches, terms, _ = _spied_call(name, monkeypatch)
    pot = CALLS[name][0]
    # every term of every region on the one fourth-quadrant ladder
    (store,) = stores
    assert len(store.x0) == len(searches) == len(terms) == 2 * pot.njumps
    assert all(kwargs["store"][0] is store for _, kwargs, _ in searches)
    # one interface-data call, when the store is made, and no more
    assert sampled == [(store, 1)]
    # it sampled every rung of the ladder, up to the last, for every owner
    assert store.model.generic.shape[:2] == store.cleared.shape \
        == (len(store.x0), len(store.rungs))
    assert len(sampled) < len(searches)


@pytest.mark.parametrize("name", list(CALLS))
def test_a_rung_path_is_built_where_a_term_ends(name, monkeypatch):
    stores, _, searches, terms, built = _spied_call(name, monkeypatch)
    (store,) = stores
    # a path for each rung a search returned, which a lift then reads,
    # and none for a rung that was only sampled
    returned = {path.reach() for _, _, (path, _) in searches}
    assert sorted(built) == sorted(returned)
    assert {term.path.reach() for term in terms} <= returned
    assert sorted(store.built) == sorted(store.rungs.index(T) for T in returned)
    # the terms that end on one rung share its path object, the store's
    for term in terms:
        assert term.path is store.built[store.rungs.index(term.path.reach())][0]
    assert len({id(term.path) for term in terms}) \
        == len({term.path.reach() for term in terms}) < len(terms)


@pytest.mark.parametrize("name", list(CALLS))
def test_each_term_has_the_rung_and_tails_of_its_own_search(name, monkeypatch):
    stores, _, searches, terms, _ = _spied_call(name, monkeypatch)
    xs = np.linspace(-6.0, 10.0, 33)
    lifted = 0
    for (args, kwargs, (path, tails)), term in zip(searches, terms):
        alone = dict(kwargs, store=None)
        # the search itself, from the same start without the store
        own_path, own_tails = step.choose_truncation(*args, **alone)
        assert own_path.legs == path.legs and own_path.rates == path.rates
        # the term's rung, the accepted one or the one it was lifted to,
        # is where a search of its own started there stops
        start = term.path.reach()
        lifted += start != path.reach()
        again, want = step.choose_truncation(*args[:7], start, **alone)
        assert again.legs == term.path.legs
        for got, ref in ((tails, own_tails), (term.tails, want)):
            assert len(got) == len(ref) == len(term.path.rates)
            for m, r in zip(got, ref):
                assert m.t == r.t
                for a, b in zip(m.at(xs), r.at(xs)):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert lifted > 0


@pytest.mark.parametrize("t", [0.5, 16.0])
@pytest.mark.parametrize("rep, region", [("d4", 1), ("quadrant", 1), ("quadrant", 2)])
def test_a_plain_builder_gives_the_rung_and_tail_bits_of_the_sector(rep, region, t):
    # the sector's tails(T) give the nodes, rates and sign the tails take
    # from the rung's path (quadrants 4, 3 and 1, with and without corner
    # legs); a plain function around it builds every rung, and the search
    # is the same
    solver = step.StepSolver(UP, IC, representation=rep)
    (W, xc, x0, sector, T0, _), = solver._declare(region, [t])
    for T in (T0, 40.0, 4000.0):
        legs, spec = sector.tails(T)
        path, want = sector(T)
        assert (legs.rates, legs.sign) == (path.rates, path.sign)
        assert spec["generic"] == want["generic"]
        assert spec["osc"][0][1:] == want["osc"][0][1:]
        nodes, ref = step._tail_nodes(legs, spec), step._tail_nodes(path, want)
        assert len(nodes) == len(ref) == 2
        for (tag, z), (ref_tag, ref_z) in zip(nodes, ref):
            assert tag == ref_tag and z.tobytes() == ref_z.tobytes()
    args = (W, xc, [t], x0, solver._probes(region, 4.0), 1e-8, T0)
    path, tails = step.choose_truncation(sector, *args)
    built = []
    plain_path, plain_tails = step.choose_truncation(
        lambda T: built.append(T) or sector(T), *args)
    assert path.legs == plain_path.legs and path.rates == plain_path.rates
    # the plain builder built every rung up to the last, each once
    assert len(built) == len(set(built)) and built[0] == T0 and built[-1] == 4000.0
    xs = np.linspace(-4.0, 4.0, 9)
    for a, b in zip(tails.at(xs[None]), plain_tails.at(xs[None])):
        assert a.tobytes() == b.tobytes()
