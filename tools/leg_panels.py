"""Panels and nodes per contour leg, for every node table of the benchmark.

Run from the root of a source checkout:

    python tools/leg_panels.py SEED

The requests are those of the four workloads in perfbench/workloads.py at
SEED, each served once as tools/sample_digest.py serves it (an API request
with a fresh solver, a CLI request in process).  Every node table a request
builds is listed, one line per leg label that holds panels:

    workload  request  kind  table  leg label  panels  nodes

A table whose build raised (an exhausted panel budget, before the retry)
has no line.  Each workload ends with its totals per leg label and the
share of its panels on chirp legs, the oscillatory rays of the sector
paths (the imaginary leg of quadrant 4, the real legs of quadrants 3 and 1).
"""

import argparse
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import sample_digest  # noqa: E402  (puts src and perfbench on the path)
import schrostep.contours  # noqa: E402
import schrostep.interface_map  # noqa: E402
import schrostep.step  # noqa: E402
from workloads import WORKLOADS, make_requests  # noqa: E402

# the modules that call build_node_table under that name
_CALLERS = (schrostep.step, schrostep.interface_map)


def per_leg(path, table):
    """{leg label: (panels, nodes)} of one node table, in leg order."""
    nodes = np.bincount(table.panel, minlength=table.n_panels)
    panels, counts = Counter(), Counter()
    for (leg, _, _), n in zip(table.spans, nodes):
        label = path.legs[leg].label
        panels[label] += 1
        counts[label] += int(n)
    return {label: (panels[label], counts[label]) for label in panels}


def serve(req, workdir):
    """[(path, table)] of every node table that serving req built."""
    tables = []
    build = schrostep.contours.build_node_table

    def spy(path, *args, **kwargs):
        table = build(path, *args, **kwargs)
        tables.append((path, table))
        return table

    for mod in _CALLERS:
        mod.build_node_table = spy
    try:
        sample_digest.digest(req, workdir)
    finally:
        for mod in _CALLERS:
            mod.build_node_table = build
    return tables


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seed", type=int)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            panels, nodes = Counter(), Counter()
            chirp = 0
            for i, req in enumerate(make_requests(workload, args.seed)):
                kind = req["command"] if req["kind"] == "cli" else req["kind"]
                for k, (path, table) in enumerate(serve(req, Path(tmp))):
                    chirp += sum(path.legs[leg].kind == "chirp"
                                 for leg, _, _ in table.spans)
                    for label, (p, n) in per_leg(path, table).items():
                        print("{}\t{}\t{}\t{}\t{}\t{}\t{}".format(
                            workload, i, kind, k, label, p, n))
                        panels[label] += p
                        nodes[label] += n
            for label in panels:
                print("{}\ttotal\t\t\t{}\t{}\t{}".format(
                    workload, label, panels[label], nodes[label]))
            total = sum(panels.values())
            print("{}\ttotal\t\t\tall legs\t{}\t{}\t({:.0%} of panels on chirp "
                  "legs)".format(workload, total, sum(nodes.values()),
                                 chirp / max(total, 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
