"""Truncation searches of the benchmark: start and accepted rungs, and cost.

Run from the root of a source checkout:

    python tools/search_rungs.py SEED

The requests are those of the four workloads in perfbench/workloads.py at
SEED, each served once as tools/sample_digest.py serves it (an API request
with a fresh solver, a CLI request in process), as in tools/leg_panels.py.
Every truncation search a request makes (step.choose_truncation, which
searches as an owner of a step._TailStore) is listed, one line per search:

    workload  request  kind  search  store  start  accepted  final  T  ms

store numbers the request's tail stores, one per truncation ladder.
start, accepted and final are rungs of the store's ladder, counted from
its first rung T0 (1): the rung the search started at (a later one when
ContourSettings._search starts it where an earlier term of its group
stopped), the rung it returned, and the rung its term ended on, which is
a later one when the term was lifted to its group's top rung ("-" for a
search outside ContourSettings._search).  Every solver's and
InterfaceMap's searches run inside it.  T is the
accepted rung's truncation and ms the search's time, which includes the
sampling and testing of the blocks of rungs it was the first to reach.
Each request then lists its stores, one line per store:

    workload  request  kind  store  T0  owners  blocks  columns calls

blocks is the number of blocks of step._RUNGS_PER_CALL rungs the store
sampled and tested for all its owners, and columns calls the calls of its
columns function (one per leg tag per block: a computation of the interface
data for every owner at once, or each owner's weight and xcoef calls).
Each workload ends with its totals: the searches, how many accepted each
rung, the terms lifted, the stores, the blocks they sampled, their columns
calls, and the search time with its share of the time taken to serve the
requests.
"""

import argparse
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import sample_digest  # noqa: E402  (puts src and perfbench on the path)
import schrostep.step  # noqa: E402
from workloads import WORKLOADS, make_requests  # noqa: E402

_STORE = schrostep.step._TailStore


def _rung(store, path):
    """The rung of path on store's ladder, counted from 1."""
    for b, (built, _, _) in store.blocks.items():
        for j, (p, _) in enumerate(built):
            if p is path:
                return b * schrostep.step._RUNGS_PER_CALL + j + 1
    raise LookupError("path not built by the store")


def serve(req, workdir):
    """([(store, start, accepted, final, T, seconds)] of every search serving
    req made, [(T0, owners, blocks, columns calls)] of every tail store, the
    seconds serving took)."""
    searches, stores = [], []
    init, search = _STORE.__init__, _STORE.search
    search_groups = schrostep.step.ContourSettings._search

    def init_spy(self, builder, T0, ts, columns, *args, **kwargs):
        calls = [0]

        def counted(*a):
            calls[0] += 1
            return columns(*a)

        init(self, builder, T0, ts, counted, *args, **kwargs)
        stores.append((self, calls))

    def search_spy(self, owner, start):
        began = time.perf_counter()
        path, tails = search(self, owner, start)
        spent = time.perf_counter() - began
        searches.append([self, self.rungs.index(start) + 1, _rung(self, path), "-",
                         path.reach(), spent])
        return path, tails

    def groups_spy(self, *args, **kwargs):
        first = len(searches)
        out = search_groups(self, *args, **kwargs)
        terms = [term for group in out for term in group]
        for term, found in zip(terms, searches[first:]):
            found[3] = _rung(found[0], term.path)
        return out

    _STORE.__init__, _STORE.search = init_spy, search_spy
    schrostep.step.ContourSettings._search = groups_spy
    began = time.perf_counter()
    try:
        sample_digest.digest(req, workdir)
    finally:
        _STORE.__init__, _STORE.search = init, search
        schrostep.step.ContourSettings._search = search_groups
    served = time.perf_counter() - began
    number = {id(store): k for k, (store, _) in enumerate(stores)}
    return ([(number[id(found[0])],) + tuple(found[1:]) for found in searches],
            [(store.rungs[0], len(store.x0), len(store.blocks), calls[0])
             for store, calls in stores], served)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seed", type=int)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            accepted = Counter()
            n_stores = blocks = calls = lifted = 0
            spent = served = 0.0
            for i, req in enumerate(make_requests(workload, args.seed)):
                kind = req["command"] if req["kind"] == "cli" else req["kind"]
                searches, stores, seconds = serve(req, Path(tmp))
                served += seconds
                for k, (store, start, rung, final, T, s) in enumerate(searches):
                    print("{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.6g}\t{:.2f}".format(
                        workload, i, kind, k, store, start, rung, final, T, 1e3 * s))
                    accepted[rung] += 1
                    lifted += final not in ("-", rung)
                    spent += s
                for k, (T0, owners, b, c) in enumerate(stores):
                    print("{}\t{}\t{}\tstore {}\tT0 {:.6g}\t{} owners\t{} blocks"
                          "\t{} columns calls".format(workload, i, kind, k, T0, owners, b, c))
                    n_stores += 1
                    blocks += b
                    calls += c
            print("{}\ttotal\t{} searches\taccepted rungs {}\t{} lifted\t{} stores"
                  "\t{} blocks\t{} columns calls\t{:.1f} ms ({:.0%} of {:.1f} ms serving)"
                  .format(workload, sum(accepted.values()),
                          ", ".join("{}: {}".format(r, accepted[r]) for r in sorted(accepted)),
                          lifted, n_stores, blocks, calls, 1e3 * spent, spent / served,
                          1e3 * served))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
