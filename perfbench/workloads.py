"""Seeded request generator for the solver benchmark.

A workload is a list of requests.  A request is plain data: the potential,
the initial data, the evaluation points and the solver to use.  The runner
builds a fresh solver for every request, as `schrostep solve` does, so no
term cache carries over from one request to the next.

The seed moves the Gaussian center, width and momentum and the potential
levels, each within a narrow range (see `JITTER`), so that different seeds
give different inputs but the same amount of work to within a few per cent.
Times, grids, jump positions and the tolerance are fixed per workload.

Why each workload exists, and which layer it loads:

large_t     steps (1, 2) at t = 4 in the d4 and quadrant forms and a
            three-jump GeneralSolver at t = 1: adaptive node tables and the
            half-line transforms dominate, and both steps exhaust their panel
            budget and fall back to tol * 1e4.
dense_x     t = 0.5 on 2000 x points for a downward step, a well with
            derivative=True and a three-jump profile: the per-x layers
            (eval_terms, table_integral, free_term) carry the cost.
space_time  `schrostep solve` on a well and `schrostep interface-map` on a
            three-jump profile, four times each, in process: per-t rebuilds
            of terms and tables, the CLI layer and InterfaceMap's unknowns
            solve.
tabulated   a d4 step whose initial data is a 21-point table, at t = 0.5: the
            tabulated branch of hat_transform carries the cost.
"""

import random

import numpy as np

from schrostep import (GeneralSolver, InitialCondition, PiecewisePotential,
                       StepSolver, WellSolver)

WORKLOADS = ("large_t", "dense_x", "space_time", "tabulated")

# Half-widths of the seeded jitter around each nominal input.  They are kept
# narrow because the truncation search grows T in steps of 1.6x: ten times
# these widths moved T a step between seeds often enough to spread one
# workload's wall time by over a third.
JITTER = {"center": 0.005, "width": 0.005, "momentum": 0.005, "level": 0.002}

TOLERANCE = 1e-8

# Samples at x_j - JUMP_OFFSET and x_j straddle every jump of a multi-jump
# grid, so the correctness check sees both one-sided limits.
JUMP_OFFSET = 1e-9

THREE_JUMP = {"levels": (0.0, 1.5, -1.0, 0.5), "interfaces": (0.0, 1.0, 2.5)}
WELL = {"levels": (0.0, -3.0, 0.0), "interfaces": (0.0, 1.0)}
STEP_UP = {"levels": (1.0, 2.0), "interfaces": (0.0,)}
STEP_DOWN = {"levels": (2.0, 1.0), "interfaces": (0.0,)}


class _Seeded:
    """Draws the jittered inputs of one workload from its seed."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def _around(self, nominal, key):
        return nominal + self.rng.uniform(-JITTER[key], JITTER[key])

    def gaussian(self):
        return {"kind": "gaussian",
                "center": self._around(-1.0, "center"),
                "width": self._around(1.0, "width"),
                "momentum": self._around(0.7, "momentum")}

    def potential(self, nominal):
        # zero levels stay zero: WellSolver needs outer levels 0
        levels = [a if a == 0.0 else self._around(a, "level")
                  for a in nominal["levels"]]
        return {"levels": levels, "interfaces": list(nominal["interfaces"])}


def straddle_jumps(xs, interfaces):
    """xs plus a pair of points on either side of every interface."""
    extra = [p for x in interfaces for p in (x - JUMP_OFFSET, x)]
    return sorted(set(float(x) for x in xs) | set(extra))


def _api(kind, potential, ic, xs, t, derivative=False, rep=None):
    return {"kind": kind, "rep": rep, "potential": potential, "ic": ic,
            "xs": [float(x) for x in xs], "t": float(t),
            "derivative": bool(derivative)}


def _config(potential, ic, times, grid_x=None, solver=None):
    cfg = {"potential.levels": ", ".join(repr(a) for a in potential["levels"]),
           "potential.interfaces": ", ".join(repr(x) for x in potential["interfaces"]),
           "initial.kind": "gaussian",
           "initial.center": repr(ic["center"]),
           "initial.width": repr(ic["width"]),
           "initial.momentum": repr(ic["momentum"]),
           "grid.t": ", ".join(repr(t) for t in times),
           "numerics.tolerance": repr(TOLERANCE)}
    if grid_x is not None:
        cfg["grid.x"] = grid_x
    if solver is not None:
        cfg["solver"] = solver
    return cfg


def _cli(command, potential, ic, config):
    return {"kind": "cli", "command": command, "potential": potential,
            "ic": ic, "config": config}


def tabulate(ic, n):
    """A Gaussian sampled on n points spanning 3.5 widths either side."""
    half = 3.5 * ic["width"]
    x = np.linspace(ic["center"] - half, ic["center"] + half, n)
    z = (x - ic["center"]) / ic["width"]
    v = np.exp(-z * z + 1j * ic["momentum"] * x)
    return {"kind": "tabulated", "x": x.tolist(),
            "values": [[c.real, c.imag] for c in v]}


def make_requests(workload, seed):
    """The request list of one workload, drawn from seed."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload {!r}; choose one of {}".format(
            workload, ", ".join(WORKLOADS)))
    s = _Seeded(seed)
    if workload == "large_t":
        ic = s.gaussian()
        step = s.potential(STEP_UP)
        three = s.potential(THREE_JUMP)
        xs = np.linspace(-4.0, 4.0, 41)
        return [_api("step", step, ic, xs, 4.0, rep="d4"),
                _api("step", step, ic, xs, 4.0, rep="quadrant"),
                _api("general", three, ic,
                     straddle_jumps(xs, three["interfaces"]), 1.0)]
    if workload == "dense_x":
        ic = s.gaussian()
        step = s.potential(STEP_DOWN)
        well = s.potential(WELL)
        three = s.potential(THREE_JUMP)
        xs = np.linspace(-6.0, 6.0, 2000)
        return [_api("step", step, ic, xs, 0.5, rep="d4"),
                _api("well", well, ic, xs, 0.5, derivative=True),
                _api("general", three, ic,
                     straddle_jumps(xs, three["interfaces"]), 0.5)]
    if workload == "space_time":
        ic = s.gaussian()
        well = s.potential(WELL)
        three = s.potential(THREE_JUMP)
        times = [0.3, 0.6, 0.9, 1.2]
        return [_cli("solve", well, ic,
                     _config(well, ic, times, grid_x="linspace:-3:4:15",
                             solver="well")),
                _cli("interface-map", three, ic,
                     _config(three, ic, times))]
    ic = s.gaussian()
    step = s.potential(STEP_UP)
    table = tabulate(ic, 21)
    xs = np.linspace(-4.0, 4.0, 41)
    return [_api("step", step, table, xs, 0.5, rep="d4")]


def config_text(config, output_path):
    """A scenario file for the CLI, writing its samples to output_path."""
    lines = ["{} = {}".format(k, v) for k, v in config.items()]
    lines.append("output.path = {}".format(output_path))
    return "\n".join(lines) + "\n"


def potential_of(req):
    return PiecewisePotential(req["potential"]["levels"],
                              req["potential"]["interfaces"])


def ic_of(req):
    ic = req["ic"]
    if ic["kind"] == "gaussian":
        return InitialCondition.gaussian(center=ic["center"], width=ic["width"],
                                         momentum=ic["momentum"])
    values = [complex(re, im) for re, im in ic["values"]]
    return InitialCondition.tabulated(ic["x"], values)


def solver_of(req):
    """A fresh solver for an API request, at the benchmark tolerance."""
    pot, ic = potential_of(req), ic_of(req)
    if req["kind"] == "step":
        return StepSolver(pot, ic, representation=req["rep"], tolerance=TOLERANCE)
    if req["kind"] == "well":
        return WellSolver(pot, ic, tolerance=TOLERANCE)
    return GeneralSolver(pot, ic, tolerance=TOLERANCE)
