"""Span tracing of the schrostep layers, installed from outside the package.

`Tracer.install` replaces each function in `LAYERS` with a wrapper that
records a span (layer, start, end, parent span, request id) and, for some
layers, a work count.  The wrapper is bound under every name the function is
reachable through: each `schrostep` module namespace that imported it (for
example `build_node_table` in `step`, `interface_map` and `contours`), or the
class for a method.  `Tracer.restore` puts the original objects back.

Spans live in flat arrays while the run lasts and are written out once, at
the end, by `Tracer.save`.  A span's self time is its duration minus the
durations of its child spans; calls run one at a time, so children never
overlap.
"""

import functools
import importlib
import inspect
import math
import sys
from array import array
from time import perf_counter

import numpy as np

from schrostep.contours import QuadratureError
from schrostep.step import choose_truncation

# (module, function or Class.method) of every traced layer boundary.
LAYERS = (
    ("transforms", "hat_transform"),
    ("transforms", "free_term"),
    ("kernels", "nu"),
    ("general", "solve_unknowns"),
    ("general", "reduced_system"),
    ("general", "rhs_reduced"),
    ("contours", "build_node_table"),
    ("contours", "table_integral"),
    ("step", "eval_terms"),
    ("step", "choose_truncation"),
    ("step", "StepSolver.evaluate_grid"),
    ("general", "GeneralSolver.evaluate_grid"),
    ("well", "WellSolver.evaluate_grid"),
    ("interface_map", "InterfaceMap.trace_grid"),
    ("cli", "main"),
)

# Per-layer metrics reported by a traced run: (name, unit, better).
PER_LAYER = (
    [("transforms.hat_transform." + s, u, b) for s, u, b in (
        ("calls", "count", "lower"), ("nodes", "count", "lower"),
        ("self_s", "s", "lower"), ("nodes_per_call", "nodes/call", "higher"))]
    + [("transforms.free_term." + s, u, "lower") for s, u in (
        ("calls", "count"), ("self_s", "s"))]
    + [("kernels.nu." + s, u, "lower") for s, u in (
        ("calls", "count"), ("self_s", "s"))]
    + [("general.solve_unknowns." + s, u, "lower") for s, u in (
        ("calls", "count"), ("nodes", "count"), ("self_s", "s"))]
    + [("general.reduced_system.self_s", "s", "lower"),
       ("general.rhs_reduced.self_s", "s", "lower")]
    + [("contours.build_node_table." + s, u, "lower") for s, u in (
        ("calls", "count"), ("self_s", "s"), ("panels", "count"),
        ("nodes", "count"), ("retries", "count"))]
    + [("contours.table_integral." + s, u, "lower") for s, u in (
        ("calls", "count"), ("self_s", "s"))]
    + [("step.eval_terms." + s, u, "lower") for s, u in (
        ("calls", "count"), ("self_s", "s"))]
    + [("step.choose_truncation." + s, u, "lower") for s, u in (
        ("calls", "count"), ("self_s", "s"), ("T_max", "1"), ("capped", "count"))]
    + [(root + "." + s, u, "lower")
       for root in ("step.StepSolver.evaluate_grid",
                    "general.GeneralSolver.evaluate_grid",
                    "well.WellSolver.evaluate_grid",
                    "interface_map.InterfaceMap.trace_grid", "cli.main")
       for s, u in (("calls", "count"), ("self_s", "s"))]
    + [("trace.overhead_frac", "ratio", "lower")]
)

_TRUNCATION_ARGS = inspect.signature(choose_truncation)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_nodes(pos, name):
    return lambda args, kwargs, out: np.size(_arg(args, kwargs, pos, name))


def _count_table(args, kwargs, out):
    return (out.n_panels, len(out.z))


def _count_truncation(args, kwargs, out):
    # The chosen truncation and what is needed to tell, after the run,
    # whether the search stopped at max_T with its target unmet.
    path, tails = out
    a = _TRUNCATION_ARGS.bind(*args, **kwargs)
    a.apply_defaults()
    a = a.arguments
    return (max(abs(leg.end()) for leg in path.legs), tails, a["x_probe"],
            a["tolerance"], a["derivative"], a["max_T"])


_COUNTERS = {
    "transforms.hat_transform": _count_nodes(3, "k"),
    "general.solve_unknowns": _count_nodes(2, "kappa"),
    "contours.build_node_table": _count_table,
    "step.choose_truncation": _count_truncation,
}


def layer_names():
    return ["{}.{}".format(m, q) for m, q in LAYERS]


class Tracer:
    """Records spans around the layer functions while installed."""

    def __init__(self):
        self.names = layer_names()
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.counts = {}
        self.errors = {}
        self.request_id = -1
        self._stack = []
        self._patched = []

    def __len__(self):
        return len(self.start)

    def _wrap(self, layer, fn, count):
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tr.start)
            tr.layer.append(layer)
            tr.parent.append(tr._stack[-1] if tr._stack else -1)
            tr.request.append(tr.request_id)
            tr.end.append(0.0)
            tr._stack.append(idx)
            tr.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                tr.end[idx] = perf_counter()
                tr._stack.pop()
                tr.errors[idx] = type(e).__name__
                raise
            tr.end[idx] = perf_counter()
            tr._stack.pop()
            if count is not None:
                tr.counts[idx] = count(args, kwargs, out)
            return out
        return traced

    def install(self):
        """Bind the wrappers under every name each layer is reached by."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        homes = [importlib.import_module("schrostep." + mod) for mod, _ in LAYERS]
        modules = [m for name, m in list(sys.modules.items())
                   if name == "schrostep" or name.startswith("schrostep.")]
        for layer, (home, (_, qual)) in enumerate(zip(homes, LAYERS)):
            count = _COUNTERS.get(self.names[layer])
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, orig, self._wrap(layer, orig, count))
                continue
            orig = getattr(home, qual)
            traced = self._wrap(layer, orig, count)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, attr, orig, traced)

    def _set(self, owner, attr, orig, new):
        setattr(owner, attr, new)
        self._patched.append((owner, attr, orig))

    def restore(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        """(layer, start, end, parent, request) as numpy arrays."""
        return (np.array(self.layer, dtype=np.int64), np.array(self.start),
                np.array(self.end), np.array(self.parent, dtype=np.int64),
                np.array(self.request, dtype=np.int64))

    def self_times(self):
        _, start, end, parent, _ = self.arrays()
        dur = end - start
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
        return dur - child

    def retries(self):
        """build_node_table calls made after a sibling call ran out of budget."""
        layer = self.names.index("contours.build_node_table")
        last_failed = {}
        n = 0
        for i in range(len(self)):
            if self.layer[i] != layer:
                continue
            p = self.parent[i]
            if last_failed.get(p):
                n += 1
            last_failed[p] = self.errors.get(i) == QuadratureError.__name__
        return n

    def layer_metrics(self):
        """Per-layer counts and self times, keyed by metric name."""
        layer, _, _, _, _ = self.arrays()
        self_t = self.self_times()
        out = {}
        for i, name in enumerate(self.names):
            mask = layer == i
            out[name + ".calls"] = int(np.sum(mask))
            out[name + ".self_s"] = float(np.sum(self_t[mask]))

        def extras(name):
            i = self.names.index(name)
            return [c for idx, c in self.counts.items() if self.layer[idx] == i]

        hat = sum(extras("transforms.hat_transform"))
        calls = out["transforms.hat_transform.calls"]
        out["transforms.hat_transform.nodes"] = int(hat)
        out["transforms.hat_transform.nodes_per_call"] = hat / calls if calls else 0.0
        out["general.solve_unknowns.nodes"] = int(sum(extras("general.solve_unknowns")))
        tables = extras("contours.build_node_table")
        out["contours.build_node_table.panels"] = int(sum(p for p, _ in tables))
        out["contours.build_node_table.nodes"] = int(sum(z for _, z in tables))
        out["contours.build_node_table.retries"] = self.retries()
        truncations = extras("step.choose_truncation")
        out["step.choose_truncation.T_max"] = max((c[0] for c in truncations),
                                                  default=0.0)
        out["step.choose_truncation.capped"] = sum(
            _capped(*c) for c in truncations)
        return out

    def save(self, path, meta):
        """Write every span and the run's metadata to one .npz file."""
        layer, start, end, parent, request = self.arrays()
        err_idx = np.array(sorted(self.errors), dtype=np.int64)
        np.savez_compressed(
            path, names=np.array(self.names), layer=layer, start=start,
            end=end, parent=parent, request=request, error_index=err_idx,
            error_type=np.array([self.errors[i] for i in err_idx], dtype=str),
            meta=np.array(meta))


def _capped(T, tails, x_probe, tolerance, derivative, max_T):
    """True when choose_truncation returned at max_T above its target.

    Mirrors the acceptance test inside choose_truncation; the tail models
    hold their samples already, so this evaluates no weight.
    """
    if T < max_T * (1.0 - 1e-9):
        return False
    w = tails.worst(x_probe, derivative=False)
    if derivative:
        w = max(w, tails.worst(x_probe, derivative=True))
    return bool(w > 0.05 * tolerance or not math.isfinite(w))
