import json

import numpy as np
import pytest

from schrostep import InitialCondition, PiecewisePotential, leading_order
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
solver = well
""")
    assert main(["interface-map", cfg]) == 0
    header, body = rows(capsys.readouterr().out)
    assert header[-2:] == ["re_psi_x", "im_psi_x"]
    assert len(body) == 4   # two interfaces, two times
    assert {r["x"] for r in body} == {"0", "1"}


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


def test_missing_file_exits_two(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.cfg")]) == 2
    assert "error" in json.loads(capsys.readouterr().err.strip())


THREE_JUMP_CFG = """
potential.levels = 0, 1.5, -1, 0.5
potential.interfaces = 0, 1, 2.5
initial.kind = gaussian
initial.center = -1.0
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
    ("solve", STEP_CFG, "numerics.delta = tilted", "numerics.delta"),
    ("solve", STEP_CFG, "numerics.delta = 1.0", "numerics.delta"),
    ("solve", STEP_CFG, "numerics.delta = 0", "numerics.delta"),
    ("solve", STEP_CFG, "grid.t = 0.5, -0.25", "grid.t"),
    ("solve", STEP_CFG, "grid.t = nan", "grid.t"),
    ("interface-map", THREE_JUMP_CFG, "numerics.tolerance = -1", "numerics.tolerance"),
    ("interface-map", THREE_JUMP_CFG, "numerics.R = wide", "numerics.R"),
    ("interface-map", THREE_JUMP_CFG, "numerics.R = 0.5", "numerics.R"),
    ("interface-map", THREE_JUMP_CFG, "numerics.delta = tilted", "numerics.delta"),
    ("interface-map", THREE_JUMP_CFG, "numerics.delta = 1.0", "numerics.delta"),
    ("interface-map", THREE_JUMP_CFG, "grid.t = -1", "grid.t"),
    ("interface-map", THREE_JUMP_CFG, "map.interfaces = 1.5", "map.interfaces"),
    ("interface-map", THREE_JUMP_CFG, "map.interfaces = first", "map.interfaces"),
])
def test_bad_numeric_field_exits_two_naming_it(tmp_path, capsys, cmd, base, line, field):
    cfg = write(tmp_path, "bad.cfg", base + line + "\n")
    assert main([cmd, cfg]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    lines = cap.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["field"] == field


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
