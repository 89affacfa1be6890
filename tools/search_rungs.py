"""Truncation searches of the benchmark: the rung each accepts, and its cost.

Run from the root of a source checkout:

    python tools/search_rungs.py SEED

The requests are those of the four workloads in perfbench/workloads.py at
SEED, each served once as tools/sample_digest.py serves it (an API request
with a fresh solver, a CLI request in process), as in tools/leg_panels.py.
Every step.choose_truncation call a request makes is listed, one line per
search:

    workload  request  kind  search  accepted  T  sampled  weight calls  ms

accepted is the rung of the ladder returned (1 for its first rung T0), T
that rung's truncation, sampled the number of rungs whose tails were
sampled (whole blocks of step._RUNGS_PER_CALL, clipped at the ladder's
end), weight calls the calls of the search's weight function, and ms the
search's time.  Each workload ends with its totals: the searches, how many
accepted each rung, the rungs sampled, the weight calls, and the search
time with its share of the time taken to serve the requests.
"""

import argparse
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


def serve(req, workdir):
    """([(accepted, T, sampled, weight calls, seconds)] of every search
    serving req made, the seconds serving took)."""
    searches = []
    search = schrostep.step.choose_truncation

    def spy(builder, weight, *args, **kwargs):
        built, calls = [], [0]

        def counted_builder(T):
            out = builder(T)
            built.append((T, out[0]))
            return out

        def counted_weight(*a):
            calls[0] += 1
            return weight(*a)

        start = time.perf_counter()
        path, tails = search(counted_builder, counted_weight, *args, **kwargs)
        spent = time.perf_counter() - start
        rung = next(i for i, (_, p) in enumerate(built) if p is path)
        searches.append((rung + 1, built[rung][0], len(built), calls[0], spent))
        return path, tails

    for mod in _CALLERS:
        mod.choose_truncation = spy
    start = time.perf_counter()
    try:
        sample_digest.digest(req, workdir)
    finally:
        for mod in _CALLERS:
            mod.choose_truncation = search
    return searches, time.perf_counter() - start


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seed", type=int)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            accepted = Counter()
            sampled = calls = 0
            spent = served = 0.0
            for i, req in enumerate(make_requests(workload, args.seed)):
                kind = req["command"] if req["kind"] == "cli" else req["kind"]
                searches, seconds = serve(req, Path(tmp))
                served += seconds
                for k, (rung, T, n, c, s) in enumerate(searches):
                    print("{}\t{}\t{}\t{}\t{}\t{:.6g}\t{}\t{}\t{:.2f}".format(
                        workload, i, kind, k, rung, T, n, c, 1e3 * s))
                    accepted[rung] += 1
                    sampled += n
                    calls += c
                    spent += s
            print("{}\ttotal\t{} searches\taccepted rungs {}\t{} sampled\t{} weight calls"
                  "\t{:.1f} ms ({:.0%} of {:.1f} ms serving)".format(
                      workload, sum(accepted.values()),
                      ", ".join("{}: {}".format(r, accepted[r]) for r in sorted(accepted)),
                      sampled, calls, 1e3 * spent, spent / served, 1e3 * served))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
