"""Panels and nodes per contour leg, for every node table of the benchmark.

Run from the root of a source checkout:

    python tools/leg_panels.py SEED

The requests are those of the four workloads in perfbench/workloads.py at
SEED, each served once as tools/sample_digest.py serves it (an API request
with a fresh solver, a CLI request in process).  Every node table a request
builds is listed, one line per leg label that holds panels:

    workload  request  kind  table  leg label  panels  nodes

A table whose build raised (an exhausted panel budget, before the retry)
has no line.  Each request then has one line on the panels evaluated to
build its tables (contours._evaluate), which the tables of the terms on one
path share (contours.PanelStore):

    workload  request  kind  evaluated  panels  distinct (path, span)  calls

panels counts every span evaluated, distinct the (path, span) pairs among
them, calls the _evaluate calls.  A last line per request counts the nodes
at which interface data were solved (general.solve_unknowns, which the
sector-path solvers and InterfaceMap call, and WellSolver._interface_data),
and how many of them are distinct by their exact bits:

    workload  request  kind  solved  nodes  distinct

Each workload ends with its totals per leg label, the share of its panels
on chirp legs, the oscillatory rays of the sector paths (the imaginary leg
of quadrant 4, the real legs of quadrants 3 and 1), and the evaluated and
solved totals.
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
import schrostep.general  # noqa: E402
import schrostep.interface_map  # noqa: E402
import schrostep.step  # noqa: E402
import schrostep.well  # noqa: E402
from workloads import WORKLOADS, make_requests  # noqa: E402

# the module that calls build_node_table under that name
_CALLERS = (schrostep.step,)
# the modules that call solve_unknowns under that name
_SOLVERS = (schrostep.general, schrostep.interface_map)


def per_leg(path, table):
    """{leg label: (panels, nodes)} of one node table, in leg order."""
    nodes = np.bincount(table.panel, minlength=table.n_panels)
    panels, counts = Counter(), Counter()
    for (leg, _, _), n in zip(table.spans, nodes):
        label = path.legs[leg].label
        panels[label] += 1
        counts[label] += int(n)
    return {label: (panels[label], counts[label]) for label in panels}


def distinct(nodes):
    """Number of distinct nodes by their exact bits."""
    z = np.ascontiguousarray(np.concatenate(nodes or [np.empty(0)]), dtype=complex)
    return len(np.unique(z.view(np.uint64).reshape(-1, 2), axis=0))


def serve(req, workdir):
    """([(path, table)], [(id(path), spans)], [nodes]) of serving req.

    The node tables it built, the spans of each _evaluate call and the
    nodes of each call that solved interface data.
    """
    tables, evaluated, solved = [], [], []
    build = schrostep.contours.build_node_table
    evaluate = schrostep.contours._evaluate
    solve = schrostep.general.solve_unknowns
    well_rows = schrostep.well.WellSolver._interface_data

    def spy(path, *args, **kwargs):
        table = build(path, *args, **kwargs)
        tables.append((path, table))
        return table

    def spy_evaluate(path, columns, probes, spans, *args):
        evaluated.append((path, list(spans)))
        return evaluate(path, columns, probes, spans, *args)

    def spy_solve(potential, ic, kappa):
        solved.append(np.atleast_1d(kappa))
        return solve(potential, ic, kappa)

    def spy_well(self, kap):
        solved.append(np.atleast_1d(kap))
        return well_rows(self, kap)

    for mod in _CALLERS:
        mod.build_node_table = spy
    for mod in _SOLVERS:
        mod.solve_unknowns = spy_solve
    schrostep.contours._evaluate = spy_evaluate
    schrostep.well.WellSolver._interface_data = spy_well
    try:
        sample_digest.digest(req, workdir)
    finally:
        for mod in _CALLERS:
            mod.build_node_table = build
        for mod in _SOLVERS:
            mod.solve_unknowns = solve
        schrostep.contours._evaluate = evaluate
        schrostep.well.WellSolver._interface_data = well_rows
    # the paths are alive until here, so their ids tell them apart
    evaluated = [(id(path), spans) for path, spans in evaluated]
    return tables, evaluated, solved


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seed", type=int)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            panels, nodes = Counter(), Counter()
            chirp = 0
            work = Counter()
            for i, req in enumerate(make_requests(workload, args.seed)):
                kind = req["command"] if req["kind"] == "cli" else req["kind"]
                tables, evaluated, solved = serve(req, Path(tmp))
                for k, (path, table) in enumerate(tables):
                    chirp += sum(path.legs[leg].kind == "chirp"
                                 for leg, _, _ in table.spans)
                    for label, (p, n) in per_leg(path, table).items():
                        print("{}\t{}\t{}\t{}\t{}\t{}\t{}".format(
                            workload, i, kind, k, label, p, n))
                        panels[label] += p
                        nodes[label] += n
                spans = [(key, span) for key, each in evaluated for span in each]
                done = (len(spans), len(set(spans)), len(evaluated))
                print("{}\t{}\t{}\tevaluated\t{}\t{}\t{}".format(
                    workload, i, kind, *done))
                work.update(dict(zip(("panels", "distinct", "calls"), done)))
                rows = (sum(z.size for z in solved), distinct(solved))
                print("{}\t{}\t{}\tsolved\t{}\t{}".format(workload, i, kind, *rows))
                work.update(dict(zip(("solved", "solved distinct"), rows)))
            for label in panels:
                print("{}\ttotal\t\t\t{}\t{}\t{}".format(
                    workload, label, panels[label], nodes[label]))
            total = sum(panels.values())
            print("{}\ttotal\t\t\tall legs\t{}\t{}\t({:.0%} of panels on chirp "
                  "legs)".format(workload, total, sum(nodes.values()),
                                 chirp / max(total, 1)))
            print("{}\ttotal\t\tevaluated\t{}\t{}\t{}".format(
                workload, work["panels"], work["distinct"], work["calls"]))
            print("{}\ttotal\t\tsolved\t{}\t{}".format(
                workload, work["solved"], work["solved distinct"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
