"""One SHA-256 per benchmark request, for bit-identity checks.

Run from the root of a source checkout:

    python tools/sample_digest.py SEED

The requests are those of the four workloads in perfbench/workloads.py at
SEED.  An API request is served with a fresh solver and digested as the
bytes of its samples' columns x, t, value, error and, when the request asks
for the slope, psi_x and psi_x_error.  A CLI request is run in process with
its output written to a temporary directory and digested as the bytes of
that file.  An interface-map request adds one line per jump, the digest of
a single-interface `InterfaceMap.trace_grid` over the request's times with
the slope: the call the benchmark's checker builds its trace references
through.  The library is imported from this checkout's src directory, so
two checkouts give the same lines exactly when every output agrees to the
last bit:

    diff <(cd A && python tools/sample_digest.py 301) \\
         <(cd B && python tools/sample_digest.py 301)
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import schrostep.cli  # noqa: E402
from schrostep import InterfaceMap  # noqa: E402
from workloads import (TOLERANCE, WORKLOADS, config_text, ic_of,  # noqa: E402
                       make_requests, potential_of, solver_of)


def _sample_bytes(samples, derivative):
    cols = [np.array([s.x for s in samples], dtype=float),
            np.array([s.t for s in samples], dtype=float),
            np.array([s.value for s in samples], dtype=complex),
            np.array([s.error for s in samples], dtype=float)]
    if derivative:
        cols += [np.array([s.psi_x for s in samples], dtype=complex),
                 np.array([s.psi_x_error for s in samples], dtype=float)]
    return b"".join(c.tobytes() for c in cols)


def digest(req, workdir):
    """SHA-256 hex digest of one request's output."""
    if req["kind"] != "cli":
        samples = solver_of(req).evaluate_grid(req["xs"], req["t"],
                                               derivative=req["derivative"])
        return hashlib.sha256(_sample_bytes(samples, req["derivative"])).hexdigest()
    out = workdir / "out.tsv"
    scenario = workdir / "scenario.cfg"
    scenario.write_text(config_text(req["config"], out))
    status = schrostep.cli.main([req["command"], str(scenario)])
    if status != 0:
        raise RuntimeError("schrostep {} exited with {}".format(req["command"], status))
    return hashlib.sha256(out.read_bytes()).hexdigest()


def trace_digests(req):
    """(interface, digest) of each single-interface trace of an interface-map request."""
    pot = potential_of(req)
    imap = InterfaceMap(pot, ic_of(req), tolerance=TOLERANCE)
    ts = [float(t) for t in req["config"]["grid.t"].split(",")]
    for ell in range(1, pot.njumps + 1):
        samples = imap.trace_grid(ts, ell, derivative=True)
        yield ell, hashlib.sha256(_sample_bytes(samples, True)).hexdigest()


def main(argv):
    if len(argv) != 1:
        print("usage: python tools/sample_digest.py SEED", file=sys.stderr)
        return 2
    seed = int(argv[0])
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            for i, req in enumerate(make_requests(workload, seed)):
                name = req["command"] if req["kind"] == "cli" else req["kind"]
                print("{}\t{}\t{}\t{}".format(workload, i, name,
                                              digest(req, Path(tmp))))
                if name == "interface-map":
                    for ell, hexdigest in trace_digests(req):
                        print("{}\t{}\ttrace_grid interface={}\t{}".format(
                            workload, i, ell, hexdigest))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
