"""Command line front end.

Scenarios are plain text files of dotted keys, one per line:

    # upward step hit by a packet from the left
    potential.levels = 1, 2
    potential.interfaces = 0
    initial.kind = gaussian
    initial.center = -1.0
    initial.width = 1.0
    initial.momentum = 0.7
    grid.x = linspace:-4:4:41
    grid.t = 0.25, 0.5, 1.0
    solver = d4

Subcommands:
    solve CONFIG            evaluate the solution on the grid
    compare CONFIG CONFIG   run two scenarios on the first one's grid
    asymptote CONFIG        leading order along ray.gamma at grid.t
    interface-map CONFIG    solution and slope traces at the jump points

Output is tab separated with a header row, %.17g everywhere, to
output.path or stdout.  Every row is computed before the first is written,
so a failed run leaves no partial output.

The CLI only reads text: a key that is missing, unknown or given twice, a
key the subcommand does not read (_READS), a value that is not a number,
and an empty grid.x or grid.t are its own refusals.  Every value it reads
goes to the library as it is, and the library checks it.  A refusal exits
with status 2 and a one-line JSON object on stderr naming the key: the one
table _KEY_OF gives, per stage of the run, the key of the parameter the
library's message names first, or the stage's default key when it names
none; a refusal of the initial data or of an evaluation that names no
parameter is a bug, and propagates as a traceback.  A config file that
cannot be read, an output.path that cannot be written and a quadrature that
cannot meet numerics.tolerance within its panel budget are named the same
way.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .asymptotics import leading_order
from .contours import QuadratureError
from .general import GeneralSolver
from .interface_map import InterfaceMap
from .kernels import PiecewisePotential
from .step import StepSolver
from .transforms import InitialCondition
from .well import WellSolver

__all__ = ["main", "ConfigError", "parse_config", "build_scenario"]

_FMT = "%.17g"

# The keys each subcommand reads; a config giving any other is refused,
# naming that key, so that no value there passes unchecked.  compare reads
# both files' scenarios and takes grid.x, grid.t and output.path from the
# first: the second may give them only as the first does (_FIRST_ONLY).
_SCENARIO = ("potential.levels potential.interfaces initial.kind initial.amplitude "
             "initial.center initial.width initial.momentum initial.x initial.values")
_READS = {cmd: frozenset((_SCENARIO + " " + keys).split()) for cmd, keys in (
    ("solve", "solver numerics.tolerance numerics.R grid.x grid.t output.path"),
    ("compare", "solver numerics.tolerance numerics.R grid.x grid.t output.path"),
    ("asymptote", "ray.gamma grid.t output.path"),
    ("interface-map", "numerics.tolerance numerics.R map.interfaces grid.t output.path"))}
_KEYS = frozenset().union(*_READS.values())
_FIRST_ONLY = ("grid.x", "grid.t", "output.path")

# Per stage of a run, the config key of the parameter a refusal (a
# ValueError or QuadratureError of the library, an OSError of a file) names
# as its first word; None keys the stage's default, for a message that
# names no parameter.  The initial data and an evaluation have no default:
# a refusal there that names no parameter is a bug, and propagates.
_KEY_OF = {
    "config": {None: "config"},
    "potential": {"levels": "potential.levels", "interfaces": "potential.interfaces",
                  None: "potential.interfaces"},
    "initial": {"amplitude": "initial.amplitude", "center": "initial.center",
                "width": "initial.width", "momentum": "initial.momentum",
                "x": "initial.x", "values": "initial.values"},
    "solver": {"tolerance": "numerics.tolerance", "radius": "numerics.R",
               "potential": "potential.levels", None: "solver"},
    "evaluation": {"x": "grid.x", "t": "grid.t", "interface": "map.interfaces",
                   "gamma": "ray.gamma", "potential": "potential.interfaces",
                   "quadrature": "numerics.tolerance"},
    "output": {None: "output.path"},
}


class ConfigError(ValueError):
    def __init__(self, field, message):
        super().__init__(message)
        self.field = field


def parse_config(text):
    """Dotted-key lines into a dict; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line {}".format(lineno),
                              "expected 'key = value', got {!r}".format(raw.strip()))
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(key, "unknown key {!r} on line {}".format(key, lineno))
        if key in out:
            raise ConfigError(key, "repeated key {!r} on line {}".format(key, lineno))
        out[key] = val
    return out


def _call(stage, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a refusal turned into a ConfigError naming
    the key _KEY_OF[stage] gives for the first word of its message."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, OSError, QuadratureError) as e:
        keys = _KEY_OF[stage]
        field = keys.get(str(e).split(" ", 1)[0], keys.get(None))
        if field is None:
            raise
        raise ConfigError(field, str(e)) from e


def _read(cfg, key, parse=float, default=None):
    """parse(cfg[key]), or default when key is absent; an absent key with no
    default, or a value parse refuses, is refused naming key."""
    if key not in cfg:
        if default is None:
            raise ConfigError(key, "missing")
        return default
    try:
        return parse(cfg[key])
    except ValueError as e:
        raise ConfigError(key, "cannot read {!r}: {}".format(cfg[key], e))


def _floats(text):
    return [float(p) for p in text.split(",") if p.strip() != ""]


def _points(text):
    """Comma separated numbers, or linspace:start:stop:count."""
    if text.startswith("linspace:"):
        start, stop, count = text.split(":")[1:]
        return np.linspace(float(start), float(stop), int(count))
    return np.array(_floats(text))


def _listed(cfg, key, parse, noun):
    vals = _read(cfg, key, parse)
    if len(vals) == 0:
        raise ConfigError(key, "no {} given".format(noun))
    return vals


def _grid(cfg):
    return _listed(cfg, "grid.x", _points, "points")


def _times(cfg):
    return _listed(cfg, "grid.t", _floats, "times")


def build_potential(cfg):
    return _call("potential", PiecewisePotential, _read(cfg, "potential.levels", _floats),
                 _read(cfg, "potential.interfaces", _floats))


def build_ic(cfg):
    kind = cfg.get("initial.kind", "gaussian")
    if kind == "gaussian":
        return _call("initial", InitialCondition.gaussian,
                     amplitude=_read(cfg, "initial.amplitude", complex, 1.0),
                     center=_read(cfg, "initial.center", default=0.0),
                     width=_read(cfg, "initial.width", default=1.0),
                     momentum=_read(cfg, "initial.momentum", default=0.0))
    if kind == "tabulated":
        values = _read(cfg, "initial.values", lambda s: [complex(p) for p in s.split(",")])
        return _call("initial", InitialCondition.tabulated,
                     _read(cfg, "initial.x", _floats), values)
    raise ConfigError("initial.kind", "unknown kind {!r}".format(kind))


def _numerics(cfg):
    """Solver keyword arguments from numerics.tolerance and numerics.R."""
    return {arg: _read(cfg, key) for key, arg in
            (("numerics.tolerance", "tolerance"), ("numerics.R", "radius")) if key in cfg}


def build_solver(cfg, potential, ic):
    name = cfg.get("solver", "auto")
    if name == "auto":
        name = "d4" if potential.njumps == 1 else "general"
    make = {"general": GeneralSolver, "well": WellSolver}.get(name)
    if name in ("d4", "quadrant", "realline"):
        make = functools.partial(StepSolver, representation=name)
    if make is None:
        raise ConfigError("solver", "unknown solver {!r}".format(name))
    return _call("solver", make, potential, ic, **_numerics(cfg))


def build_scenario(cfg):
    pot = build_potential(cfg)
    ic = build_ic(cfg)
    return pot, ic, build_solver(cfg, pot, ic)


def _config(path, cmd):
    """The config at path, refusing a key that cmd does not read."""
    cfg = parse_config(_call("config", Path(path).read_text))
    for key in cfg:
        if key not in _READS[cmd]:
            raise ConfigError(key, "{} does not read the key {!r}".format(cmd, key))
    return cfg


def _write(cfg, header, rows):
    """The header and the rows, tab separated, to output.path or stdout."""
    lines = ["\t".join(header)]
    lines += ["\t".join(_FMT % c for c in row) for row in rows]
    text = "\n".join(lines) + "\n"
    path = cfg.get("output.path", "-")
    if path == "-":
        sys.stdout.write(text)
    else:
        _call("output", Path(path).write_text, text)


def cmd_solve(args):
    cfg = _config(args.config, "solve")
    pot, ic, solver = build_scenario(cfg)
    xs, ts = _grid(cfg), _times(cfg)
    # one call for every time: one node table per term serves them all
    samples = _call("evaluation", solver.evaluate_grid, xs, ts)
    _write(cfg, ("x", "t", "re_psi", "im_psi", "abs_psi", "err_estimate"),
           [(s.x, s.t, s.value.real, s.value.imag, abs(s.value), s.error)
            for s in samples])
    return 0


def cmd_compare(args):
    cfg_a = _config(args.config, "compare")
    cfg_b = _config(args.config_b, "compare")
    for key in _FIRST_ONLY:
        if key in cfg_b and cfg_b[key] != cfg_a.get(key):
            raise ConfigError(key, "compare reads {} from the first file; the second "
                                   "gives {!r} where the first gives {!r}".format(
                                       key, cfg_b[key], cfg_a.get(key)))
    pot_a, ic_a, sol_a = build_scenario(cfg_a)
    pot_b, ic_b, sol_b = build_scenario(cfg_b)
    xs, ts = _grid(cfg_a), _times(cfg_a)
    pairs = list(zip(_call("evaluation", sol_a.evaluate_grid, xs, ts),
                     _call("evaluation", sol_b.evaluate_grid, xs, ts)))
    diffs = [abs(a.value - b.value) for a, b in pairs]
    _write(cfg_a, ("x", "t", "re_psi_a", "im_psi_a", "re_psi_b", "im_psi_b",
                   "abs_diff", "err_a", "err_b"),
           [(a.x, a.t, a.value.real, a.value.imag, b.value.real, b.value.imag,
             d, a.error, b.error) for (a, b), d in zip(pairs, diffs)])
    worst = max([0.0] + diffs)
    print("max|psi_a - psi_b| = {:.6e}".format(worst), file=sys.stderr)
    return 0


def cmd_asymptote(args):
    cfg = _config(args.config, "asymptote")
    pot, ic = build_potential(cfg), build_ic(cfg)
    gamma, ts = _read(cfg, "ray.gamma"), _times(cfg)
    vals = [_call("evaluation", leading_order, pot, ic, gamma, t) for t in ts]
    _write(cfg, ("t", "x", "re_psi", "im_psi", "abs_psi"),
           [(t, gamma * t, v.real, v.imag, abs(v)) for t, v in zip(ts, vals)])
    return 0


def cmd_interface_map(args):
    cfg = _config(args.config, "interface-map")
    pot, ic = build_potential(cfg), build_ic(cfg)
    imap = _call("solver", InterfaceMap, pot, ic, **_numerics(cfg))
    which = cfg.get("map.interfaces", "all")
    idx = list(range(1, pot.njumps + 1)) if which == "all" else \
        _read(cfg, "map.interfaces", lambda s: [int(p) for p in s.split(",")])
    ts = _times(cfg)
    samples = _call("evaluation", imap.trace_grid, ts, interface=idx, derivative=True)
    _write(cfg, ("x", "t", "re_psi", "im_psi", "abs_psi", "err_estimate",
                 "re_psi_x", "im_psi_x", "err_psi_x"),
           [(s.x, s.t, s.value.real, s.value.imag, abs(s.value), s.error,
             s.psi_x.real, s.psi_x.imag, s.psi_x_error) for s in samples])
    return 0


@functools.lru_cache(maxsize=None)
def _parser():
    """The argument parser, built on first use and shared by every main call."""
    ap = argparse.ArgumentParser(prog="schrostep", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("solve", help="evaluate a scenario on its grid")
    p.add_argument("config")
    p.set_defaults(fn=cmd_solve)
    p = sub.add_parser("compare", help="two scenarios on the first grid")
    p.add_argument("config")
    p.add_argument("config_b")
    p.set_defaults(fn=cmd_compare)
    p = sub.add_parser("asymptote", help="ray leading order at large time")
    p.add_argument("config")
    p.set_defaults(fn=cmd_asymptote)
    p = sub.add_parser("interface-map", help="traces at the interface points")
    p.add_argument("config")
    p.set_defaults(fn=cmd_interface_map)
    return ap


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(json.dumps({"error": str(e), "field": e.field}), file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())
