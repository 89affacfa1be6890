"""Truncation searches of the benchmark: start and accepted rungs, and cost.

Run from the root of a source checkout:

    python tools/search_rungs.py SEED

The requests are those of the four workloads in perfbench/workloads.py at
SEED, each served once as tools/sample_digest.py serves it (an API request
with a fresh solver, a CLI request in process), as in tools/leg_panels.py.
Every step.choose_truncation call a request makes is listed, one line per
search:

    workload  request  kind  search  start  accepted  final  T  sampled  weight calls  ms

start, accepted and final are rungs of the search's ladder, counted from
its first rung T0 (1): the rung the search started at (a later one when
ContourSolver._terms starts it where an earlier term of its region
stopped), the rung it returned, and the rung its term ended on, which is
a later one when the term was lifted to its region's top rung ("-" for a
search outside ContourSolver._terms, such as InterfaceMap's).  T is the
accepted rung's truncation, sampled the number of rungs whose tails were
sampled (whole blocks of step._RUNGS_PER_CALL from the start rung, clipped
at the ladder's end), weight calls the calls of the search's weight
function, and ms the search's time.  Each workload ends with its totals:
the searches, how many accepted each rung, the terms lifted, the rungs
sampled, the weight calls, and the search time with its share of the time
taken to serve the requests.
"""

import argparse
import inspect
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import sample_digest  # noqa: E402  (puts src and perfbench on the path)
import schrostep.interface_map  # noqa: E402
import schrostep.step  # noqa: E402
from workloads import WORKLOADS, make_requests  # noqa: E402

# the modules that call choose_truncation under that name
_CALLERS = (schrostep.step, schrostep.interface_map)
_SIGNATURE = inspect.signature(schrostep.step.choose_truncation)


def serve(req, workdir):
    """([(start, accepted, final, T, sampled, weight calls, seconds)] of
    every search serving req made, the seconds serving took)."""
    searches = []
    # per ladder (builder), the rung of each truncation built on it
    rungs = {}
    search = schrostep.step.choose_truncation
    terms = schrostep.step.ContourSolver._terms

    def spy(builder, weight, *args, **kwargs):
        built, calls = [], [0]
        ladder = rungs.setdefault(builder, {})
        T0 = _SIGNATURE.bind(builder, weight, *args, **kwargs).arguments["T0"]
        start = ladder.get(T0, 1)

        def counted_builder(T):
            out = builder(T)
            ladder.setdefault(T, start + len(built))
            built.append((T, out[0]))
            return out

        def counted_weight(*a):
            calls[0] += 1
            return weight(*a)

        began = time.perf_counter()
        path, tails = search(counted_builder, counted_weight, *args, **kwargs)
        spent = time.perf_counter() - began
        rung = next(i for i, (_, p) in enumerate(built) if p is path)
        searches.append([start, start + rung, "-", built[rung][0], len(built), calls[0],
                         spent, ladder])
        return path, tails

    def terms_spy(self, *args, **kwargs):
        first = len(searches)
        out = terms(self, *args, **kwargs)
        for term, found in zip(out, searches[first:]):
            found[2] = found[-1][term.path.reach()]
        return out

    for mod in _CALLERS:
        mod.choose_truncation = spy
    schrostep.step.ContourSolver._terms = terms_spy
    began = time.perf_counter()
    try:
        sample_digest.digest(req, workdir)
    finally:
        for mod in _CALLERS:
            mod.choose_truncation = search
        schrostep.step.ContourSolver._terms = terms
    return [tuple(found[:-1]) for found in searches], time.perf_counter() - began


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seed", type=int)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            accepted = Counter()
            sampled = calls = lifted = 0
            spent = served = 0.0
            for i, req in enumerate(make_requests(workload, args.seed)):
                kind = req["command"] if req["kind"] == "cli" else req["kind"]
                searches, seconds = serve(req, Path(tmp))
                served += seconds
                for k, (start, rung, final, T, n, c, s) in enumerate(searches):
                    print("{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.6g}\t{}\t{}\t{:.2f}".format(
                        workload, i, kind, k, start, rung, final, T, n, c, 1e3 * s))
                    accepted[rung] += 1
                    lifted += final not in ("-", rung)
                    sampled += n
                    calls += c
                    spent += s
            print("{}\ttotal\t{} searches\taccepted rungs {}\t{} lifted\t{} sampled"
                  "\t{} weight calls\t{:.1f} ms ({:.0%} of {:.1f} ms serving)".format(
                      workload, sum(accepted.values()),
                      ", ".join("{}: {}".format(r, accepted[r]) for r in sorted(accepted)),
                      lifted, sampled, calls, 1e3 * spent, spent / served, 1e3 * served))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
