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
through.  The benchmark's requests have at most 4 times, so three lines
follow them, each one call over 20 times with the slope on the
three-jump profile of space_time at SEED: `GeneralSolver` at 201 x in
[-4, 6] over 20 times in 0.3-1.2 and over 20 log-spaced times in
0.01-10, and `InterfaceMap` at every jump over the log-spaced times.
The library is imported from this checkout's src directory, so
two checkouts give the same lines exactly when every output agrees to the
last bit:

    diff <(cd A && python tools/sample_digest.py 301) \\
         <(cd B && python tools/sample_digest.py 301)

--save PATH writes the digested columns of every line to an .npz file
(a CLI output read back from its %.17g text, which restores every bit).
--against PATH compares with such a file and, under each line whose
columns differ from it, prints max |dpsi| and max |dpsi| / error (and the
same for psi_x when the line has the slope, from the CLI's err_psi_x
column too).  Columns the file lacks are left out of the comparison, and
a line it lacks altogether differs.  It ends with "N of M lines differ"
and exits 1 when a line differs, 0 when every line matches:

    (cd A && python tools/sample_digest.py 301 --save /tmp/a.npz)
    (cd B && python tools/sample_digest.py 301 --against /tmp/a.npz)
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import schrostep.cli  # noqa: E402
from schrostep import GeneralSolver, InterfaceMap  # noqa: E402
from workloads import (TOLERANCE, WORKLOADS, config_text, ic_of,  # noqa: E402
                       make_requests, potential_of, solver_of)


def _sample_columns(samples, derivative):
    cols = {"x": np.array([s.x for s in samples], dtype=float),
            "t": np.array([s.t for s in samples], dtype=float),
            "value": np.array([s.value for s in samples], dtype=complex),
            "error": np.array([s.error for s in samples], dtype=float)}
    if derivative:
        cols["psi_x"] = np.array([s.psi_x for s in samples], dtype=complex)
        cols["psi_x_error"] = np.array([s.psi_x_error for s in samples], dtype=float)
    return cols


def _digest(cols):
    return hashlib.sha256(b"".join(c.tobytes() for c in cols.values())).hexdigest()


def _file_columns(path):
    """The columns of a CLI output file, under the names of _sample_columns."""
    with open(path) as f:
        header = f.readline().rstrip("\n").split("\t")
    data = np.loadtxt(path, skiprows=1, ndmin=2)
    col = dict(zip(header, data.T))
    cols = {"x": col["x"], "t": col["t"],
            "value": col["re_psi"] + 1j * col["im_psi"]}
    if "err_estimate" in col:
        cols["error"] = col["err_estimate"]
    if "re_psi_x" in col:
        cols["psi_x"] = col["re_psi_x"] + 1j * col["im_psi_x"]
    if "err_psi_x" in col:
        cols["psi_x_error"] = col["err_psi_x"]
    return cols


def digest(req, workdir):
    """(SHA-256 hex digest of one request's output, its columns)."""
    if req["kind"] != "cli":
        samples = solver_of(req).evaluate_grid(req["xs"], req["t"],
                                               derivative=req["derivative"])
        cols = _sample_columns(samples, req["derivative"])
        return _digest(cols), cols
    out = workdir / "out.tsv"
    scenario = workdir / "scenario.cfg"
    scenario.write_text(config_text(req["config"], out))
    status = schrostep.cli.main([req["command"], str(scenario)])
    if status != 0:
        raise RuntimeError("schrostep {} exited with {}".format(req["command"], status))
    return hashlib.sha256(out.read_bytes()).hexdigest(), _file_columns(out)


def trace_digests(req):
    """(interface, digest, columns) of each single-interface trace of an
    interface-map request."""
    pot = potential_of(req)
    imap = InterfaceMap(pot, ic_of(req), tolerance=TOLERANCE)
    ts = [float(t) for t in req["config"]["grid.t"].split(",")]
    for ell in range(1, pot.njumps + 1):
        cols = _sample_columns(imap.trace_grid(ts, ell, derivative=True), True)
        yield ell, _digest(cols), cols


def many_time_digests(seed):
    """(label, digest, columns) of the three many-time calls at seed."""
    req = make_requests("space_time", seed)[1]
    pot, ic = potential_of(req), ic_of(req)
    xs = np.linspace(-4.0, 6.0, 201)
    wide = np.logspace(-2.0, 1.0, 20)
    calls = (("general 20 times in 0.3-1.2", GeneralSolver, "evaluate_grid",
              (xs, np.linspace(0.3, 1.2, 20))),
             ("general 20 times in 0.01-10", GeneralSolver, "evaluate_grid", (xs, wide)),
             ("trace_grid 20 times in 0.01-10", InterfaceMap, "trace_grid",
              (wide, list(range(1, pot.njumps + 1)))))
    for label, cls, method, args in calls:
        solver = cls(pot, ic, tolerance=TOLERANCE)
        cols = _sample_columns(getattr(solver, method)(*args, derivative=True), True)
        yield label, _digest(cols), cols


def _deviation(cols, ref):
    """Lines of max |dpsi| (and / error) of cols against ref, if any differ.

    Only the columns ref holds are compared, so that a file saved before a
    column was added still serves.
    """
    if all(np.array_equal(cols[k], ref[k], equal_nan=True) for k in cols if k in ref):
        return []
    out = []
    for value, error in (("value", "error"), ("psi_x", "psi_x_error")):
        if value not in cols:
            continue
        d = np.abs(cols[value] - ref[value])
        line = "\t  {}: max |dpsi| = {:.3g}".format(value, d.max(initial=0.0))
        if error in cols:
            e = cols[error]
            ratio = np.divide(d, e, out=np.zeros_like(d), where=e > 0.0)
            line += ", max |dpsi| / error = {:.3g}".format(ratio.max(initial=0.0))
        out.append(line)
    return out


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seed", type=int)
    ap.add_argument("--save", metavar="PATH",
                    help="write every line's columns to this .npz file")
    ap.add_argument("--against", metavar="PATH",
                    help="report the deviation from the columns saved here")
    args = ap.parse_args(argv)
    ref = np.load(args.against) if args.against else None
    saved = {}
    differ = []

    def report(workload, i, label, hexdigest, cols):
        print("{}\t{}\t{}\t{}".format(workload, i, label, hexdigest))
        key = "{}:{}:{}:".format(workload, i, label)
        saved.update((key + k, v) for k, v in cols.items())
        if ref is None:
            return
        old = {k: ref[key + k] for k in cols if key + k in ref}
        lines = _deviation(cols, old) if old else ["\t  missing from the saved file"]
        for line in lines:
            print(line)
        differ.append(bool(lines))

    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            for i, req in enumerate(make_requests(workload, args.seed)):
                name = req["command"] if req["kind"] == "cli" else req["kind"]
                report(workload, i, name, *digest(req, Path(tmp)))
                if name == "interface-map":
                    for ell, hexdigest, cols in trace_digests(req):
                        report(workload, i, "trace_grid interface={}".format(ell),
                               hexdigest, cols)
    for i, line in enumerate(many_time_digests(args.seed)):
        report("many_times", i, *line)
    if args.save:
        np.savez(args.save, **saved)
    if ref is None:
        return 0
    print("{} of {} lines differ".format(sum(differ), len(differ)))
    return 1 if any(differ) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
