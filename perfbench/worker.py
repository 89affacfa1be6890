"""One benchmark run of one workload, in a process of its own.

Usage (run.py starts this; it is not meant to be called by hand):

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                                --started-at UNIX_TIME
                                [--setup-only | --setup-samples S1,S2,...]

Set-up is everything from process start to the first request: importing
numpy, scipy and schrostep, and generating the workload's inputs (including
the CLI scenario files).  --started-at is the wall-clock time at which the
parent launched this process; with --setup-only the worker reports set-up
time and exits.  The reported setup_s is the median of this process's
set-up time and the --setup-samples of earlier --setup-only processes.

The timed part is whole passes over the workload's requests, one client in a
closed loop: each request starts after the previous one has returned.  Passes
repeat while another one fits in --seconds (at least one runs).  Set-up and
pass times are reported in reference seconds: the host's speed is probed
from process start to the end of set-up and during the passes, and each
stretch is scaled by it (hostspeed.py), because the speed of a shared host
can drift by half within a second.  The wall times are printed beside them.
With
--trace 1 one more pass follows with the layer tracer installed.  After all
passes, and outside any timing, every request's output is checked against an
independent reference (check.py).

The last line of standard output is one JSON object with the run's metrics.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from hostspeed import SETUP, HostSpeed

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "_out"


def _import_program():
    """Import the library from this checkout's source tree, nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import schrostep
    import schrostep.cli  # noqa: F401
    if Path(schrostep.__file__).resolve().parent != src / "schrostep":
        raise ImportError("schrostep came from {}, not from {}".format(
            schrostep.__file__, src))


def environment():
    import importlib.util

    import numpy
    import scipy
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "nproc": os.cpu_count(), "python": sys.version.split()[0],
            "threads": {v: os.environ.get(v) for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


def prepare(workload, seed, workdir):
    """Requests with their CLI scenario files written under workdir."""
    from workloads import config_text, make_requests

    requests = make_requests(workload, seed)
    for i, req in enumerate(requests):
        if req["kind"] == "cli":
            req["output"] = str(workdir / "out{}.tsv".format(i))
            req["path"] = str(workdir / "scenario{}.cfg".format(i))
            Path(req["path"]).write_text(config_text(req["config"], req["output"]))
    return requests


def execute(req):
    """Serve one request with a fresh solver; returns the raw result."""
    import schrostep.cli
    from workloads import solver_of

    if req["kind"] == "cli":
        return schrostep.cli.main([req["command"], req["path"]])
    solver = solver_of(req)
    return solver.evaluate_grid(req["xs"], req["t"], derivative=req["derivative"])


def run_pass(requests, tracer=None):
    """Serve every request in order.

    Returns (pass start, pass end, per-request wall times, per-request
    results); times are perf_counter readings.
    """
    results, times = [], []
    start = time.perf_counter()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request_id = i
        t0 = time.perf_counter()
        try:
            results.append(execute(req))
        except Exception as e:  # a failed request is counted, not fatal
            traceback.print_exc()
            results.append(e)
        times.append(time.perf_counter() - t0)
    return start, time.perf_counter(), times, results


def collect(req, result):
    """The samples a request produced, read back outside the timed part."""
    from check import Samples

    if isinstance(result, Exception):
        return result
    if req["kind"] == "cli":
        if result != 0:
            return RuntimeError("schrostep {} exited with {}".format(
                req["command"], result))
        return Samples.from_cli_output(Path(req["output"]).read_text())
    return Samples.from_solution(result)


def timed_passes(requests, seconds):
    """Untraced passes while the host's speed is sampled.

    Returns each pass's time in reference seconds (hostspeed.py), its wall
    time less the probes, and the samples of every pass.
    """
    walls, nets, outputs = [], [], []
    with HostSpeed() as speed:
        while True:
            start, end, times, results = run_pass(requests)
            walls.append(speed.reference_seconds(start, end))
            nets.append(end - start - speed.probe_seconds(start, end))
            outputs.append([collect(r, res) for r, res in zip(requests, results)])
            print("pass {}: {:.4f} reference s, {:.4f} s wall, {:.4f} s less "
                  "probes; per request {}".format(
                      len(walls) - 1, walls[-1], end - start, nets[-1],
                      ", ".join("{:.4f}".format(t) for t in times)))
            if sum(nets) + statistics.median(nets) > seconds:
                break
    print("host probes: {} taken, median {:.3f} ms".format(
        len(speed.durations), 1e3 * statistics.median(speed.durations)))
    return walls, nets, outputs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--started-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--setup-samples", default="",
                    help="comma separated set-up times of earlier probes")
    args = ap.parse_args(argv)

    launch = time.perf_counter() - (time.time() - args.started_at)
    workdir = None
    try:
        with HostSpeed(SETUP) as speed:
            _import_program()
            OUT.mkdir(exist_ok=True)
            workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
            requests = prepare(args.workload, args.seed, workdir)
            ready = time.perf_counter()
        setup_s = speed.reference_seconds(launch, ready)
        print("set-up: {:.4f} reference s, {:.4f} s wall".format(
            setup_s, ready - launch))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, requests, setup_s)
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)


def measure(args, requests, setup_s):
    from check import Checker, digits
    from tracing import PER_LAYER, Tracer

    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    walls, nets, outputs = timed_passes(requests, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer = None
    if args.trace:
        tracer = Tracer()
        with tracer:
            start, end, _, results = run_pass(requests, tracer)
        traced_wall = end - start
        outputs.append([collect(r, res) for r, res in zip(requests, results)])

    checker = Checker(OUT / "refs")
    check_start = time.perf_counter()
    attempted = failed = 0
    errors = []
    for k, out in enumerate(outputs):
        for req, got in zip(requests, out):
            attempted += 1
            why = checker.failures(req, got)
            if why:
                failed += 1
                print("FAIL pass {} {} {}: {}".format(
                    k, req["kind"], req.get("rep") or req.get("command") or "",
                    "; ".join(why[:3])))
            if not isinstance(got, Exception):
                errors.extend(got.error.tolist())

    print("check: {:.1f} s".format(time.perf_counter() - check_start))
    wall_s = statistics.median(walls)
    if tracer is None:
        setup = [float(v) for v in args.setup_samples.split(",") if v] + [setup_s]
        print("setup_s samples: " + ", ".join("{:.4f}".format(v) for v in setup))
        metrics = {"setup_s": (statistics.median(setup), "s"),
                   "wall_s": (wall_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB"),
                   "digits_min": (digits(errors) if errors else 0.0, "digits")}
    else:
        layer = tracer.layer_metrics()
        # a ratio of wall times, so host drift between the passes moves it
        layer["trace.overhead_frac"] = traced_wall / statistics.median(nets) - 1.0
        metrics = {name: (layer[name], unit) for name, unit, _ in PER_LAYER}
        path = OUT / "spans-{}-seed{}.npz".format(args.workload, args.seed)
        tracer.save(path, json.dumps({"workload": args.workload,
                                      "seed": args.seed, "env": env,
                                      "untraced_wall_s": nets,
                                      "traced_wall_s": traced_wall}))
        print("spans: {} written to {}".format(len(tracer), path.relative_to(ROOT)))
    for name, (value, unit) in metrics.items():
        print("{:48s} {:>16.6g} {}".format(name, value, unit))
    print("{:48s} {:>16.6g} {} ({} of {} requests failed)".format(
        "fail_frac", failed / attempted, "ratio", failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
