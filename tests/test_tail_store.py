"""The terms of one evaluate_grid call that climb one ladder share a tail store.

Every fourth-quadrant term of a call searches the same truncation ladder,
so a step._TailStore samples the tail nodes of each block of rungs once
for all of them, in one computation of the interface data, and tests the
tails of every term at every rung of the block in one array pass.  These
tests pin both with counts only, and that each term's search and tails
are those of a search of its own from the same start.
"""

import numpy as np
import pytest

from schrostep import GeneralSolver, InitialCondition, PiecewisePotential, step

IC = InitialCondition.gaussian(center=-1.0, width=1.0, momentum=0.7)
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
    """(stores, [(store, interface-data calls) per block sampled], searches,
    terms) of one GeneralSolver call, searches the (args, kwargs, (path,
    tails)) of each choose_truncation call."""
    stores, sampled, calls, searches, terms = [], [], [], [], []
    init, model = step._TailStore.__init__, step._TailStore._model
    data = step.ContourSolver._interface_data
    search, search_groups = step.choose_truncation, step.ContourSettings._search

    def init_spy(self, *args, **kwargs):
        stores.append(self)
        init(self, *args, **kwargs)

    def model_spy(self, rungs, built):
        first = len(calls)
        out = model(self, rungs, built)
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

    monkeypatch.setattr(step._TailStore, "__init__", init_spy)
    monkeypatch.setattr(step._TailStore, "_model", model_spy)
    monkeypatch.setattr(step.ContourSolver, "_interface_data", data_spy)
    monkeypatch.setattr(step, "choose_truncation", search_spy)
    monkeypatch.setattr(step.ContourSettings, "_search", groups_spy)
    pot, ic, xs, t, derivative = CALLS[name]
    GeneralSolver(pot, ic).evaluate_grid(xs, t, derivative=derivative)
    return stores, sampled, searches, terms


@pytest.mark.parametrize("name", list(CALLS))
def test_tails_are_solved_once_per_block_of_each_ladder(name, monkeypatch):
    stores, sampled, searches, terms = _spied_call(name, monkeypatch)
    pot = CALLS[name][0]
    # every term of every region on the one fourth-quadrant ladder
    (store,) = stores
    assert len(store.x0) == len(searches) == len(terms) == 2 * pot.njumps
    assert all(kwargs["store"][0] is store for _, kwargs, _ in searches)
    # one interface-data call per block sampled, and each block once
    assert [s for s, _ in sampled] == [store] * len(store.blocks)
    assert [n for _, n in sampled] == [1] * len(store.blocks)
    # the blocks sampled are those up to the highest rung a search reached
    top = max(store.rungs.index(term.path.reach()) for term in terms)
    assert sorted(store.blocks) == list(range(top // step._RUNGS_PER_CALL + 1))
    assert len(store.blocks) < len(searches)


@pytest.mark.parametrize("name", list(CALLS))
def test_each_term_has_the_rung_and_tails_of_its_own_search(name, monkeypatch):
    stores, _, searches, terms = _spied_call(name, monkeypatch)
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
