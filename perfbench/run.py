"""Solver benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload large_t --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from its
`src` directory.  Workloads are listed in perfbench/workloads.py.

This process only orchestrates and imports nothing heavy.  It pins the BLAS
and OpenMP thread pools to one thread, measures set-up time in SETUP_PROBES
fresh processes, then runs the workload in one more fresh process
(worker.py), so that the peak resident memory it reports belongs to that
workload alone.  The worker's output is passed through; the last line is the
result as one JSON object:

  --trace 0   end-to-end metrics: setup_s (median of the probes' and the
              worker's set-up times),
              wall_s (median time of one pass over the requests, in
              reference seconds: see perfbench/hostspeed.py),
              peak_rss_mb and digits_min.
  --trace 1   per-layer metrics from one traced pass (perfbench/tracing.py);
              the spans are written to perfbench/_out/.

`attempted` and `failed` count requests; fail_frac = failed / attempted is
printed above the result.  Exit status 0 means the run completed, whatever
the checks found; any other status means no result was printed.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 5
# A whole run, set-up probes included, must end within 180 s.
CHILD_TIMEOUT_S = 170.0


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, extra, deadline):
    """Run worker.py to completion; returns its stdout lines."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--started-at", repr(time.time())] + extra
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise RuntimeError("worker exited with status {}".format(proc.returncode))
    return proc.stdout.splitlines()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "schrostep" / "__init__.py").is_file():
        print("perfbench: no schrostep sources under {}".format(ROOT / "src"),
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                line = spawn(args, ["--setup-only"], deadline)[-1]
                setup.append(json.loads(line)["setup_s"])
        lines = spawn(args, ["--setup-samples", ",".join(map(repr, setup))],
                      deadline)
        json.loads(lines[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as e:
        print("perfbench: {}".format(e), file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
