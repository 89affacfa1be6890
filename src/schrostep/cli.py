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
so a failed run leaves no partial output.  Configuration problems, a key
no subcommand reads or a key given twice among them, exit with status 2
and a one-line JSON object on stderr naming the offending field; so does a
quadrature that cannot meet numerics.tolerance within its panel budget.
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
from .step import ContourSettings, StepSolver
from .transforms import InitialCondition
from .well import WellSolver

__all__ = ["main", "ConfigError", "parse_config", "build_scenario"]

_FMT = "%.17g"
_KEYS = frozenset(
    "potential.levels potential.interfaces initial.kind initial.amplitude "
    "initial.center initial.width initial.momentum initial.x initial.values "
    "grid.x grid.t solver numerics.tolerance numerics.R ray.gamma "
    "map.interfaces output.path".split())


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


def _field(prefix, error, default):
    """The key of the parameter a library ValueError names as its first word.

    InitialCondition names the offending parameter first, and so does
    PiecewisePotential for a level or interface that is not finite; any
    other message falls back to default.
    """
    field = prefix + str(error).split(" ", 1)[0]
    return field if field in _KEYS else default


def _floats(field, val):
    try:
        return [float(p) for p in val.split(",") if p.strip() != ""]
    except ValueError:
        raise ConfigError(field, "expected comma separated numbers, got {!r}".format(val))


def _grid(field, val):
    if val.startswith("linspace:"):
        parts = val.split(":")[1:]
        if len(parts) != 3:
            raise ConfigError(field, "linspace needs start:stop:count")
        try:
            xs = np.linspace(float(parts[0]), float(parts[1]), int(parts[2]))
        except ValueError:
            raise ConfigError(field, "bad linspace spec {!r}".format(val))
    else:
        xs = np.array(_floats(field, val))
    if xs.size == 0:
        raise ConfigError(field, "no points given")
    if not np.all(np.isfinite(xs)):
        raise ConfigError(field, "points must be finite, got {!r}".format(val))
    return xs


def build_potential(cfg):
    if "potential.levels" not in cfg:
        raise ConfigError("potential.levels", "missing")
    if "potential.interfaces" not in cfg:
        raise ConfigError("potential.interfaces", "missing")
    levels = _floats("potential.levels", cfg["potential.levels"])
    ifaces = _floats("potential.interfaces", cfg["potential.interfaces"])
    try:
        return PiecewisePotential(levels, ifaces)
    except ValueError as e:
        raise ConfigError(_field("potential.", e, "potential.interfaces"), str(e))


def build_ic(cfg):
    kind = cfg.get("initial.kind", "gaussian")
    if kind == "gaussian":
        try:
            amp = complex(cfg.get("initial.amplitude", "1"))
        except ValueError:
            raise ConfigError("initial.amplitude", "not a complex number")
        try:
            return InitialCondition.gaussian(
                amplitude=amp,
                center=float(cfg.get("initial.center", "0")),
                width=float(cfg.get("initial.width", "1")),
                momentum=float(cfg.get("initial.momentum", "0")))
        except ValueError as e:
            raise ConfigError(_field("initial.", e, "initial.width"), str(e))
    if kind == "tabulated":
        xs = _floats("initial.x", cfg.get("initial.x", ""))
        try:
            vals = [complex(p) for p in cfg.get("initial.values", "").split(",")]
        except ValueError:
            raise ConfigError("initial.values", "expected comma separated complex numbers")
        try:
            return InitialCondition.tabulated(xs, vals)
        except ValueError as e:
            raise ConfigError(_field("initial.", e, "initial.x"), str(e))
    raise ConfigError("initial.kind", "unknown kind {!r}".format(kind))


_NUMERICS = (("numerics.tolerance", "tolerance"), ("numerics.R", "radius"))


def _numerics(cfg, potential, ic):
    """Solver keyword arguments from numerics.tolerance and numerics.R.

    Each value is checked on its own by ContourSettings, which every solver
    and InterfaceMap share, so a bad one is reported under its own field.
    Without numerics.R the default radius follows from the levels, and a
    refused one is reported under potential.levels.
    """
    if "numerics.R" not in cfg:
        try:
            ContourSettings(potential, ic)
        except ValueError as e:
            raise ConfigError("potential.levels", str(e))
    kw = {}
    for field, arg in _NUMERICS:
        if field not in cfg:
            continue
        try:
            kw[arg] = float(cfg[field])
        except ValueError:
            raise ConfigError(field, "not a number: {!r}".format(cfg[field]))
        try:
            ContourSettings(potential, ic, **{arg: kw[arg]})
        except ValueError as e:
            raise ConfigError(field, str(e))
    return kw


def build_solver(cfg, potential, ic):
    name = cfg.get("solver", "auto")
    kw = _numerics(cfg, potential, ic)
    if name == "auto":
        name = "d4" if potential.njumps == 1 else "general"
    try:
        if name in ("d4", "quadrant", "realline"):
            return StepSolver(potential, ic, representation=name, **kw)
        if name == "general":
            return GeneralSolver(potential, ic, **kw)
        if name == "well":
            return WellSolver(potential, ic, **kw)
    except ValueError as e:
        raise ConfigError("solver", str(e))
    raise ConfigError("solver", "unknown solver {!r}".format(name))


def build_scenario(cfg):
    pot = build_potential(cfg)
    ic = build_ic(cfg)
    return pot, ic, build_solver(cfg, pot, ic)


def _times(cfg):
    if "grid.t" not in cfg:
        raise ConfigError("grid.t", "missing")
    ts = _floats("grid.t", cfg["grid.t"])
    if not ts:
        raise ConfigError("grid.t", "no times given")
    if not all(np.isfinite(t) and t >= 0.0 for t in ts):
        raise ConfigError("grid.t", "times must be finite and nonnegative, "
                                    "got {!r}".format(cfg["grid.t"]))
    return ts


def _write(cfg, header, rows):
    """The header and the rows, tab separated, to output.path or stdout."""
    lines = ["\t".join(header)]
    lines += ["\t".join(_FMT % c for c in row) for row in rows]
    text = "\n".join(lines) + "\n"
    path = cfg.get("output.path", "-")
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w") as out:
        out.write(text)


def cmd_solve(args):
    cfg = parse_config(Path(args.config).read_text())
    pot, ic, solver = build_scenario(cfg)
    if "grid.x" not in cfg:
        raise ConfigError("grid.x", "missing")
    xs = _grid("grid.x", cfg["grid.x"])
    # one call for every time: one node table per term serves them all
    samples = solver.evaluate_grid(xs, _times(cfg))
    _write(cfg, ("x", "t", "re_psi", "im_psi", "abs_psi", "err_estimate"),
           [(s.x, s.t, s.value.real, s.value.imag, abs(s.value), s.error)
            for s in samples])
    return 0


def cmd_compare(args):
    cfg_a = parse_config(Path(args.config).read_text())
    cfg_b = parse_config(Path(args.config_b).read_text())
    pot_a, ic_a, sol_a = build_scenario(cfg_a)
    pot_b, ic_b, sol_b = build_scenario(cfg_b)
    if "grid.x" not in cfg_a:
        raise ConfigError("grid.x", "missing")
    xs = _grid("grid.x", cfg_a["grid.x"])
    ts = _times(cfg_a)
    pairs = list(zip(sol_a.evaluate_grid(xs, ts), sol_b.evaluate_grid(xs, ts)))
    diffs = [abs(a.value - b.value) for a, b in pairs]
    _write(cfg_a, ("x", "t", "re_psi_a", "im_psi_a", "re_psi_b", "im_psi_b",
                   "abs_diff", "err_a", "err_b"),
           [(a.x, a.t, a.value.real, a.value.imag, b.value.real, b.value.imag,
             d, a.error, b.error) for (a, b), d in zip(pairs, diffs)])
    worst = max([0.0] + diffs)
    print("max|psi_a - psi_b| = {:.6e}".format(worst), file=sys.stderr)
    return 0


def cmd_asymptote(args):
    cfg = parse_config(Path(args.config).read_text())
    pot = build_potential(cfg)
    ic = build_ic(cfg)
    if "ray.gamma" not in cfg:
        raise ConfigError("ray.gamma", "missing")
    try:
        gamma = float(cfg["ray.gamma"])
    except ValueError:
        raise ConfigError("ray.gamma", "not a number")
    ts = _times(cfg)
    if not all(t > 0.0 for t in ts):
        raise ConfigError("grid.t", "the leading order needs t > 0, "
                                    "got {!r}".format(cfg["grid.t"]))
    try:
        vals = [leading_order(pot, ic, gamma, t) for t in ts]
    except ValueError as e:
        raise ConfigError("ray.gamma", str(e))
    _write(cfg, ("t", "x", "re_psi", "im_psi", "abs_psi"),
           [(t, gamma * t, v.real, v.imag, abs(v)) for t, v in zip(ts, vals)])
    return 0


def cmd_interface_map(args):
    cfg = parse_config(Path(args.config).read_text())
    pot = build_potential(cfg)
    ic = build_ic(cfg)
    imap = InterfaceMap(pot, ic, **_numerics(cfg, pot, ic))
    which = cfg.get("map.interfaces", "all")
    if which == "all":
        idx = list(range(1, pot.njumps + 1))
    else:
        try:
            idx = [int(p) for p in which.split(",")]
        except ValueError:
            raise ConfigError("map.interfaces",
                              "expected 'all' or comma separated integers, "
                              "got {!r}".format(which))
        if any(not 1 <= i <= pot.njumps for i in idx):
            raise ConfigError("map.interfaces",
                              "indices must lie in 1..{}".format(pot.njumps))
    ts = _times(cfg)
    samples = imap.trace_grid(ts, interface=idx, derivative=True)
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
    except FileNotFoundError as e:
        print(json.dumps({"error": str(e), "field": "config"}), file=sys.stderr)
        return 2
    except QuadratureError as e:
        print(json.dumps({"error": str(e), "field": "numerics.tolerance"}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
