"""Solutions at large t, where the sector contours cross the growth quadrant
on the corner legs (ContourSettings.sector).

Every comparison uses the contract |a - b| <= err_a + err_b at tolerance
1e-8, and the reported errors must stay near that tolerance: a solver that
ran out of panels and fell back to tol * 1e4 reports errors near 1e-4.
"""

import numpy as np
import pytest

from schrostep import (GeneralSolver, InitialCondition, InterfaceMap,
                       PiecewisePotential, StepSolver, WellSolver)

TOL = 1e-8
UP = PiecewisePotential([1.0, 2.0], [0.0])
WELL = PiecewisePotential([0.0, -3.0, 0.0], [0.0, 1.0])
THREE = PiecewisePotential([0.0, 1.5, -1.0, 0.5], [0.0, 1.0, 2.5])
IC = InitialCondition.gaussian(center=-1.0, width=1.0, momentum=0.7)


def _assert_agree(got, ref):
    for a, b in zip(got, ref):
        assert a.x == b.x and a.t == b.t
        assert abs(a.value - b.value) <= a.error + b.error
    assert max(s.error for s in got) <= 2.0 * TOL


@pytest.mark.parametrize("t", [4.0, 16.0])
@pytest.mark.parametrize("rep", ["d4", "quadrant"])
def test_step_sector_forms_match_realline(rep, t):
    xs = np.linspace(-4.0, 4.0, 17)
    ref = StepSolver(UP, IC, representation="realline", tolerance=TOL).evaluate_grid(xs, t)
    got = StepSolver(UP, IC, representation=rep, tolerance=TOL).evaluate_grid(xs, t)
    _assert_agree(got, ref)


def test_general_solver_matches_step_solver():
    xs = np.linspace(-4.0, 4.0, 17)
    ref = StepSolver(UP, IC, tolerance=TOL).evaluate_grid(xs, 4.0)
    got = GeneralSolver(UP, IC, tolerance=TOL).evaluate_grid(xs, 4.0)
    _assert_agree(got, ref)


@pytest.mark.parametrize("scale", [1.0, 1.5])
def test_well_general_solver_matches_well_solver(scale):
    # R^2 t = 37.5 at the default radius: the arc alone would carry e^37
    xs = np.linspace(-4.0, 6.0, 21)
    radius = scale * GeneralSolver(WELL, IC).radius
    ref = WellSolver(WELL, IC, tolerance=TOL, radius=radius).evaluate_grid(xs, 4.0)
    got = GeneralSolver(WELL, IC, tolerance=TOL, radius=radius).evaluate_grid(xs, 4.0)
    _assert_agree(got, ref)


@pytest.mark.parametrize("interface", [1, 2, 3])
def test_interface_map_matches_general_solver_over_times(interface):
    ts = [0.5, 1.0, 2.0, 4.0]
    x = THREE.interfaces[interface - 1]
    got = InterfaceMap(THREE, IC, tolerance=TOL).trace_grid(ts, interface)
    ref = [GeneralSolver(THREE, IC, tolerance=TOL).evaluate(x, t) for t in ts]
    _assert_agree(got, ref)
