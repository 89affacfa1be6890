import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import schrostep
from schrostep import InitialCondition, InterfaceMap, PiecewisePotential, leading_order
from schrostep.cli import main
from schrostep.oracle import free_gaussian

STEP_CFG = """
# upward step hit from the left
potential.levels = 1, 2
potential.interfaces = 0
initial.kind = gaussian
initial.center = -1.0
initial.momentum = 0.7
grid.x = linspace:-2:2:5
grid.t = 0.5
solver = d4
"""


def scenario(base, line):
    """base with line in place of base's own line for the same key.

    Appending it instead would give the key twice, which is an error of
    its own.
    """
    key = line.split(" = ")[0]
    kept = [raw for raw in base.splitlines() if raw.split(" = ")[0] != key]
    return "\n".join(kept + [line]) + "\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def rows(captured):
    lines = [ln for ln in captured.strip().splitlines() if ln]
    header = lines[0].split("\t")
    body = [dict(zip(header, ln.split("\t"))) for ln in lines[1:]]
    return header, body


def test_solve_emits_tab_separated_samples(tmp_path, capsys):
    cfg = write(tmp_path, "step.cfg", STEP_CFG)
    assert main(["solve", cfg]) == 0
    header, body = rows(capsys.readouterr().out)
    assert header == ["x", "t", "re_psi", "im_psi", "abs_psi", "err_estimate"]
    assert len(body) == 5
    got = complex(float(body[2]["re_psi"]), float(body[2]["im_psi"]))
    assert float(body[2]["x"]) == 0.0
    assert abs(got) > 0.05
    assert float(body[2]["err_estimate"]) < 1e-6


def test_solve_free_case_matches_exact_values(tmp_path, capsys):
    cfg = write(tmp_path, "free.cfg", """
potential.levels = 0, 0
potential.interfaces = 0
initial.kind = gaussian
grid.x = linspace:-1:1:3
grid.t = 0.4
""")
    assert main(["solve", cfg]) == 0
    _, body = rows(capsys.readouterr().out)
    xs = np.array([float(r["x"]) for r in body])
    want = free_gaussian(xs, 0.4, 0.0, 1.0, 0.0, 1.0)
    for r, w in zip(body, want):
        assert abs(complex(float(r["re_psi"]), float(r["im_psi"])) - w) < 1e-7


def test_compare_reports_agreement(tmp_path, capsys):
    a = write(tmp_path, "a.cfg", STEP_CFG)
    b = write(tmp_path, "b.cfg", STEP_CFG.replace("solver = d4", "solver = quadrant"))
    assert main(["compare", a, b]) == 0
    cap = capsys.readouterr()
    header, body = rows(cap.out)
    assert "abs_diff" in header
    assert max(float(r["abs_diff"]) for r in body) < 1e-8
    assert "max|psi_a - psi_b|" in cap.err


def test_asymptote_matches_library_values(tmp_path, capsys):
    cfg = write(tmp_path, "ray.cfg", """
potential.levels = 1, 2
potential.interfaces = 0
initial.kind = gaussian
ray.gamma = 2.0
grid.t = 20, 40
""")
    assert main(["asymptote", cfg]) == 0
    _, body = rows(capsys.readouterr().out)
    pot = PiecewisePotential([1.0, 2.0], [0.0])
    ic = InitialCondition.gaussian()
    for r in body:
        t = float(r["t"])
        want = leading_order(pot, ic, 2.0, t)
        assert float(r["x"]) == 2.0 * t
        assert abs(complex(float(r["re_psi"]), float(r["im_psi"])) - want) < 1e-14


def test_interface_map_emits_slope_columns(tmp_path, capsys):
    cfg = write(tmp_path, "barrier.cfg", """
potential.levels = 0, 4, 0
potential.interfaces = 0, 1
initial.kind = gaussian
initial.center = -3.0
grid.t = 0.3, 0.6
map.interfaces = all
""")
    assert main(["interface-map", cfg]) == 0
    header, body = rows(capsys.readouterr().out)
    assert header == ["x", "t", "re_psi", "im_psi", "abs_psi", "err_estimate",
                      "re_psi_x", "im_psi_x", "err_psi_x"]
    assert len(body) == 4   # two interfaces, two times
    assert {r["x"] for r in body} == {"0", "1"}
    # the slope and its error estimate, against a direct trace_grid
    imap = InterfaceMap(PiecewisePotential([0.0, 4.0, 0.0], [0.0, 1.0]),
                        InitialCondition.gaussian(center=-3.0))
    want = imap.trace_grid([0.3, 0.6], [1, 2], derivative=True)
    for r, w in zip(body, want):
        assert (float(r["x"]), float(r["t"])) == (w.x, w.t)
        got = complex(float(r["re_psi_x"]), float(r["im_psi_x"]))
        assert float(r["err_psi_x"]) > 0.0
        assert abs(got - w.psi_x) <= float(r["err_psi_x"]) + w.psi_x_error


def test_interface_map_keeps_the_requested_interface_order(tmp_path, capsys):
    cfg = write(tmp_path, "order.cfg", THREE_JUMP_CFG.replace("grid.t = 0.5", "grid.t = 0.3, 0.6")
                + "map.interfaces = 3,1\n")
    assert main(["interface-map", cfg]) == 0
    _, body = rows(capsys.readouterr().out)
    assert [(float(r["x"]), float(r["t"])) for r in body] == [
        (2.5, 0.3), (2.5, 0.6), (0.0, 0.3), (0.0, 0.6)]
    imap = InterfaceMap(PiecewisePotential([0.0, 1.5, -1.0, 0.5], [0.0, 1.0, 2.5]),
                        InitialCondition.gaussian(center=-1.0))
    want = imap.trace_grid([0.3, 0.6], 3) + imap.trace_grid([0.3, 0.6], 1)
    for r, w in zip(body, want):
        got = complex(float(r["re_psi"]), float(r["im_psi"]))
        assert abs(got - w.value) <= float(r["err_estimate"]) + w.error


def test_output_path_writes_file(tmp_path, capsys):
    cfg = write(tmp_path, "tofile.cfg",
                STEP_CFG + "output.path = {}\n".format(tmp_path / "out.tsv"))
    assert main(["solve", cfg]) == 0
    capsys.readouterr()
    text = (tmp_path / "out.tsv").read_text()
    header, body = rows(text)
    assert header[0] == "x" and len(body) == 5


def test_missing_field_exits_two_with_json(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg", "potential.levels = 1, 2\n")
    assert main(["solve", cfg]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["field"] == "potential.interfaces"


@pytest.mark.parametrize("name", ["magic", "well-quadrant"])
def test_unknown_solver_exits_two(tmp_path, capsys, name):
    cfg = write(tmp_path, "bad2.cfg",
                STEP_CFG.replace("solver = d4", "solver = " + name))
    assert main(["solve", cfg]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["field"] == "solver"


WELL_CFG = """
potential.levels = 0, -3, 0
potential.interfaces = 0, 1
initial.kind = gaussian
initial.center = -1.0
initial.momentum = 0.7
grid.x = linspace:-2:3:6
grid.t = 0.4, 0.8
"""


def test_well_solves_alike_with_every_solver_that_takes_it(tmp_path, capsys):
    # the closed-form well, the interface system and auto (which picks the
    # interface system for two jumps) agree within their summed estimates
    out = {}
    for name in ("well", "general", "auto"):
        cfg = write(tmp_path, name + ".cfg", scenario(WELL_CFG, "solver = " + name))
        assert main(["solve", cfg]) == 0
        out[name] = rows(capsys.readouterr().out)[1]
    assert len(out["well"]) == 12
    for a, b in (("well", "general"), ("well", "auto"), ("general", "auto")):
        for ra, rb in zip(out[a], out[b]):
            assert (ra["x"], ra["t"]) == (rb["x"], rb["t"])
            psi_a = complex(float(ra["re_psi"]), float(ra["im_psi"]))
            psi_b = complex(float(rb["re_psi"]), float(rb["im_psi"]))
            assert abs(psi_a - psi_b) <= float(ra["err_estimate"]) + float(rb["err_estimate"])
    # the closed form takes wells only
    cfg = write(tmp_path, "three.cfg", scenario(THREE_JUMP_CFG, "solver = well")
                + "grid.x = 0.5\n")
    assert main(["solve", cfg]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert json.loads(cap.err.strip())["field"] == "solver"


def test_start_up_does_not_load_scipy_special(tmp_path):
    # scipy.special alone doubles the start-up time and memory of the package
    code = ("import sys, schrostep, schrostep.cli\n"
            "assert 'scipy.special' not in sys.modules\n"
            "status = schrostep.cli.main(['solve', sys.argv[1]])\n"
            "assert 'scipy.special' not in sys.modules\n"
            "sys.exit(status)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(schrostep.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "nope.cfg")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "AssertionError" not in proc.stderr


def test_missing_file_exits_two(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.cfg")]) == 2
    assert "error" in json.loads(capsys.readouterr().err.strip())


@pytest.mark.parametrize("where", ["a directory", "in a missing directory"])
def test_unwritable_output_path_exits_two_naming_it(tmp_path, capsys, where):
    # a directory used to end in an IsADirectoryError traceback, and a path
    # in a missing directory to name the config file
    out = tmp_path / "out"
    if where == "a directory":
        out.mkdir()
    else:
        out = out / "out.tsv"
    cfg = write(tmp_path, "bad.cfg", STEP_CFG + "output.path = {}\n".format(out))
    before = sorted(tmp_path.rglob("*"))
    assert main(["solve", cfg]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    lines = cap.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["field"] == "output.path"
    assert sorted(tmp_path.rglob("*")) == before


def test_unreadable_config_exits_two_naming_it(tmp_path, capsys):
    # a directory given as the config used to end in a traceback
    assert main(["solve", str(tmp_path)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert json.loads(cap.err.strip())["field"] == "config"


THREE_JUMP_CFG = """
potential.levels = 0, 1.5, -1, 0.5
potential.interfaces = 0, 1, 2.5
initial.kind = gaussian
initial.center = -1.0
grid.t = 0.5
"""

RAY_CFG = """
potential.levels = 1, 2
potential.interfaces = 0
initial.kind = gaussian
ray.gamma = 2.0
grid.t = 20, 40
"""

TABULATED_CFG = """
potential.levels = 1, 2
potential.interfaces = 0
initial.kind = tabulated
initial.x = -2, -1.5, -1, -0.5
initial.values = 0, 1, 1, 0
grid.x = 0.5
grid.t = 0.5
"""


@pytest.mark.parametrize("cmd, base, line, field", [
    ("solve", STEP_CFG, "numerics.tolerance = abc", "numerics.tolerance"),
    ("solve", STEP_CFG, "numerics.tolerance = -1", "numerics.tolerance"),
    ("solve", STEP_CFG, "numerics.tolerance = 0", "numerics.tolerance"),
    ("solve", STEP_CFG, "numerics.tolerance = inf", "numerics.tolerance"),
    ("solve", STEP_CFG, "numerics.tolerance = nan", "numerics.tolerance"),
    ("solve", STEP_CFG, "numerics.R = wide", "numerics.R"),
    ("solve", STEP_CFG, "numerics.R = 0.5", "numerics.R"),
    ("solve", STEP_CFG, "numerics.R = inf", "numerics.R"),
    ("solve", STEP_CFG, "numerics.R = 1e155", "numerics.R"),
    ("solve", STEP_CFG, "grid.t = 0.5, -0.25", "grid.t"),
    ("solve", STEP_CFG, "grid.t = nan", "grid.t"),
    ("solve", STEP_CFG, "grid.x = nan", "grid.x"),
    ("solve", STEP_CFG, "grid.x = inf", "grid.x"),
    ("asymptote", RAY_CFG, "grid.t = 0, 20", "grid.t"),
    ("interface-map", THREE_JUMP_CFG, "numerics.tolerance = -1", "numerics.tolerance"),
    ("interface-map", THREE_JUMP_CFG, "numerics.R = wide", "numerics.R"),
    ("interface-map", THREE_JUMP_CFG, "numerics.R = 0.5", "numerics.R"),
    ("interface-map", THREE_JUMP_CFG, "grid.t = -1", "grid.t"),
    ("interface-map", THREE_JUMP_CFG, "map.interfaces = 1.5", "map.interfaces"),
    ("interface-map", THREE_JUMP_CFG, "map.interfaces = first", "map.interfaces"),
    # non-finite initial data, levels and rays used to print a NaN row, and
    # center 1e160 or width 1e-300 to end in a traceback from the free term
    ("solve", STEP_CFG, "initial.center = nan", "initial.center"),
    ("solve", STEP_CFG, "initial.momentum = inf", "initial.momentum"),
    ("solve", STEP_CFG, "initial.amplitude = nan", "initial.amplitude"),
    ("solve", STEP_CFG, "initial.width = inf", "initial.width"),
    ("solve", STEP_CFG, "initial.center = 1e160", "initial.center"),
    ("solve", STEP_CFG, "initial.width = 1e-300", "initial.width"),
    # these three used to exit 0 with psi = NaN: 4/width^2, momentum^2 and
    # the data's norm overflow
    ("solve", STEP_CFG, "initial.width = 7.5e-155", "initial.width"),
    ("solve", STEP_CFG, "initial.momentum = 1e200", "initial.momentum"),
    ("solve", STEP_CFG, "initial.amplitude = 1e308", "initial.amplitude"),
    ("solve", STEP_CFG, "grid.t = ,", "grid.t"),
    # an empty grid.x used to exit 0 with a header-only table
    ("solve", STEP_CFG, "grid.x = ", "grid.x"),
    ("solve", STEP_CFG, "grid.x = linspace:-4:4:0", "grid.x"),
    ("compare", STEP_CFG, "grid.x = ", "grid.x"),
    ("compare", STEP_CFG, "grid.x = linspace:-4:4:0", "grid.x"),
    ("solve", TABULATED_CFG, "initial.x = -2, -1.5, nan, -0.5", "initial.x"),
    ("solve", TABULATED_CFG, "initial.values = 0, nan, 1, 0", "initial.values"),
    ("solve", STEP_CFG, "potential.levels = 1, nan", "potential.levels"),
    ("interface-map", THREE_JUMP_CFG, "initial.center = nan", "initial.center"),
    ("asymptote", RAY_CFG, "ray.gamma = nan", "ray.gamma"),
    # the library's own checks, which the CLI no longer repeats
    ("interface-map", THREE_JUMP_CFG, "map.interfaces = 0", "map.interfaces"),
    ("interface-map", THREE_JUMP_CFG, "map.interfaces = 4", "map.interfaces"),
    ("interface-map", THREE_JUMP_CFG, "grid.t = 0.5, inf", "grid.t"),
    ("asymptote", RAY_CFG, "grid.t = 20, nan", "grid.t"),
    ("compare", STEP_CFG, "grid.x = 0, inf", "grid.x"),
    # an unreadable center used to name initial.width, and the leading
    # order of three jumps ray.gamma
    ("solve", STEP_CFG, "initial.center = abc", "initial.center"),
    ("asymptote", THREE_JUMP_CFG, "ray.gamma = 2.0", "potential.interfaces"),
    # gamma^2 underflows to 0, and 4 delta / gamma^2 used to raise
    # ZeroDivisionError
    ("asymptote", RAY_CFG, "ray.gamma = 1e-200", "ray.gamma"),
])
def test_bad_numeric_field_exits_two_naming_it(tmp_path, capsys, cmd, base, line, field):
    # compare reads its grid from the first file; the second is the base
    cfg = write(tmp_path, "bad.cfg", scenario(base, line))
    args = [cfg, write(tmp_path, "good.cfg", base)] if cmd == "compare" else [cfg]
    assert main([cmd] + args) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    lines = cap.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["field"] == field


@pytest.mark.parametrize("cmd", ["solve", "interface-map"])
@pytest.mark.parametrize("line, field", [
    ("numerics.R = 1e8", "numerics.R"),
    ("numerics.R = 1e100", "numerics.R"),
    # the default radius 1.25 sqrt(2 max|alpha|) passes 2000 here
    ("potential.levels = 0, 3e6", "potential.levels"),
    ("potential.levels = 0, 1e308", "potential.levels"),
])
def test_radius_past_the_truncation_ladder_exits_two_fast(tmp_path, capsys, cmd, line,
                                                          field):
    # the first truncation rung 2R must lie within the ladder's cap of 4000:
    # R = 1e8 used to grind through about 5e7 initial chirp pieces, and
    # R = 1e100 and levels 0, 1e308 to end in a traceback; interface-map
    # reads neither grid.x nor solver, and refuses them
    base = STEP_CFG if cmd == "solve" else "\n".join(
        raw for raw in STEP_CFG.splitlines() if raw.split(" = ")[0] not in ("grid.x", "solver"))
    cfg = write(tmp_path, "bad.cfg", scenario(base, line))
    start = time.perf_counter()
    assert main([cmd, cfg]) == 2
    assert time.perf_counter() - start < 0.5
    cap = capsys.readouterr()
    assert cap.out == ""
    lines = cap.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["field"] == field


@pytest.mark.parametrize("line, field", [
    ("initial.x = 0, 1e-300, 2e-300, 1", "initial.x"),
    ("initial.x = -1e200, 0, 1e200, 2e200", "initial.x"),
    ("initial.values = 1e300, 1e300, -1e300, 1e300", "initial.values"),
])
def test_table_the_cubic_fit_cannot_carry_exits_two_fast(tmp_path, capsys, line, field):
    # a NaN fit, an overflowing Vandermonde and overflowing transforms used
    # to grind through 2011 panels and exit naming numerics.tolerance
    cfg = write(tmp_path, "bad.cfg", scenario(TABULATED_CFG, line))
    start = time.perf_counter()
    assert main(["solve", cfg]) == 2
    assert time.perf_counter() - start < 0.1
    cap = capsys.readouterr()
    assert cap.out == ""
    lines = cap.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["field"] == field


@pytest.mark.parametrize("cmd, base, line", [
    ("solve", STEP_CFG, "numerics.tolerence = 1e-300"),
    ("solve", STEP_CFG, "numerics.delta = 0.3"),
    ("solve", STEP_CFG, "solvr = realline"),
    ("interface-map", THREE_JUMP_CFG, "numerics.delta = 0.3"),
    ("compare", STEP_CFG, "grid.y = 1"),
    ("solve", STEP_CFG, "numerics.tolerance = 1e-300\nnumerics.tolerance = 1e-6"),
    ("interface-map", THREE_JUMP_CFG, "map.interfaces = 1\nmap.interfaces = 1"),
    ("compare", STEP_CFG, "grid.t = 0.25"),
])
def test_unknown_key_exits_two_naming_it(tmp_path, capsys, cmd, base, line):
    # a key no subcommand reads would leave its default in force silently,
    # and of a key given twice the later line would win; in compare the bad
    # key sits in the second file (the last case repeats the base's grid.t)
    bad = write(tmp_path, "bad.cfg", base + line + "\n")
    args = [write(tmp_path, "good.cfg", base), bad] if cmd == "compare" else [bad]
    assert main([cmd] + args) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    lines = cap.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["field"] == line.split(" = ")[0]


@pytest.mark.parametrize("cmd, base, line", [
    # each used to exit 0, the value never read and never checked
    ("asymptote", RAY_CFG, "solver = magic"),
    ("asymptote", RAY_CFG, "numerics.tolerance = -1"),
    ("asymptote", RAY_CFG, "numerics.R = 1e8"),
    ("asymptote", RAY_CFG, "map.interfaces = 7"),
    ("asymptote", RAY_CFG, "grid.x = nan"),
    ("interface-map", THREE_JUMP_CFG, "solver = well"),
    ("interface-map", THREE_JUMP_CFG, "grid.x = 0.5"),
    ("interface-map", THREE_JUMP_CFG, "ray.gamma = 2.0"),
    ("solve", STEP_CFG, "ray.gamma = 2.0"),
    ("solve", STEP_CFG, "map.interfaces = 1"),
    ("compare", STEP_CFG, "map.interfaces = 1"),
    ("compare", STEP_CFG, "ray.gamma = nan"),
    # compare takes these from the first file: the second may only repeat them
    ("compare", STEP_CFG, "grid.x = linspace:-4:4:41"),
    ("compare", STEP_CFG, "grid.t = 0.25"),
    ("compare", STEP_CFG, "output.path = other.tsv"),
])
def test_key_the_subcommand_does_not_read_exits_two_naming_it(tmp_path, capsys, cmd,
                                                              base, line):
    # in compare the key sits in the second file
    bad = write(tmp_path, "bad.cfg", scenario(base, line))
    args = [write(tmp_path, "good.cfg", base), bad] if cmd == "compare" else [bad]
    assert main([cmd] + args) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    lines = cap.err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["field"] == line.split(" = ")[0]
    assert cmd in err["error"]


def test_compare_takes_a_second_file_that_repeats_or_omits_the_grid(tmp_path, capsys):
    out = tmp_path / "out.tsv"
    a = STEP_CFG + "output.path = {}\n".format(out)
    b = STEP_CFG.replace("solver = d4", "solver = quadrant")
    for second in (b + "output.path = {}\n".format(out),
                   "\n".join(raw for raw in b.splitlines()
                             if raw.split(" = ")[0] not in ("grid.x", "grid.t"))):
        assert main(["compare", write(tmp_path, "a.cfg", a),
                     write(tmp_path, "b.cfg", second)]) == 0
        assert len(rows(out.read_text())[1]) == 5
        out.unlink()
    capsys.readouterr()


def test_unreachable_tolerance_exits_two_naming_it(tmp_path, capsys):
    # the quadrature exhausts its panel budget at this tolerance and raises
    # QuadratureError; the CLI reports it like a bad field, writing nothing
    cfg = write(tmp_path, "tight.cfg", STEP_CFG + "numerics.tolerance = 1e-300\n")
    assert main(["solve", cfg]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    lines = cap.err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["field"] == "numerics.tolerance"
    assert "quadrature failure" in err["error"]


def test_unreachable_interface_map_tolerance_exits_two_naming_it(tmp_path, capsys):
    # the interface map's table runs at the rates of its times on a chirp
    # ray, within a budget of 2000 panels; it used to grind through two
    # 40000-panel builds of a ray split for the residual phase (12.3 s)
    cfg = write(tmp_path, "tight.cfg", THREE_JUMP_CFG + "numerics.tolerance = 1e-300\n")
    assert main(["interface-map", cfg]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    lines = cap.err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["field"] == "numerics.tolerance"
    assert "quadrature failure" in err["error"]


def test_forbidden_ray_leaves_no_output_file(tmp_path, capsys):
    # gamma = -1 meets the branch cut of the (1, 2) step (speed <= 2)
    out = tmp_path / "ray.tsv"
    cfg = write(tmp_path, "ray.cfg", scenario(RAY_CFG, "ray.gamma = -1.0")
                + "output.path = {}\n".format(out))
    assert main(["asymptote", cfg]) == 2
    assert json.loads(capsys.readouterr().err.strip())["field"] == "ray.gamma"
    assert not out.exists()
