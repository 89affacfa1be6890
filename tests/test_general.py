"""Interface-system solver: factorization identity, determinants, n = 1 cross-check."""

import numpy as np
import pytest

from schrostep import (
    GeneralSolver,
    InitialCondition,
    PiecewisePotential,
    StepSolver,
    WellSolver,
    hat_transform,
    interface_system,
    nu,
    reduced_system,
    solve_unknowns,
    trig_denominator,
)
from schrostep.general import rhs_reduced


def q4_nodes(count, rmin, rmax, seed=11):
    rng = np.random.default_rng(seed)
    r = rng.uniform(rmin, rmax, count)
    th = rng.uniform(-np.pi / 2 + 0.05, -0.05, count)
    return r * np.exp(1j * th)


def test_reduced_factorization_matches_raw_matrix():
    pot = PiecewisePotential([0.5, -1.5, 3.0, 0.7], [0.0, 0.8, 2.1])
    kap = q4_nodes(40, 3.2, 9.0)
    raw = interface_system(pot, kap)
    ldiag, AM = reduced_system(pot, kap)
    recon = ldiag[:, :, None] * AM
    scale = np.abs(raw).max(axis=(1, 2), keepdims=True)
    assert (np.abs(raw - recon) / scale).max() < 1e-12


def test_single_jump_determinant_is_nu_sum():
    pot = PiecewisePotential([1.0, 2.0], [0.0])
    kap = q4_nodes(25, 2.5, 8.0, seed=3)
    _, AM = reduced_system(pot, kap)
    det = np.linalg.det(AM)
    want = nu(1.0, kap) + nu(2.0, kap)
    assert np.abs(det - want).max() / np.abs(want).max() < 1e-13


@pytest.mark.parametrize("alpha", [-4.0, 4.0, 2.5])
def test_two_jump_determinant_proportional_to_trig_form(alpha):
    x2 = 1.0
    pot = PiecewisePotential([0.0, alpha, 0.0], [0.0, x2])
    kap = q4_nodes(30, 3.5, 9.0, seed=5)
    _, AM = reduced_system(pot, kap)
    det = np.linalg.det(AM)
    ratio = det * np.exp(kap * x2) / trig_denominator(alpha, x2, kap)
    assert np.abs(ratio - 2j).max() < 1e-12


def test_unknowns_satisfy_raw_system():
    pot = PiecewisePotential([0.0, 4.0, 0.0], [0.0, 1.0])
    ic = InitialCondition.gaussian(center=-3.0)
    kap = q4_nodes(12, 3.5, 7.0, seed=9)
    X, _ = solve_unknowns(pot, ic, kap)
    ldiag, AM = reduced_system(pot, kap)
    lhs = np.einsum("kij,kj->ki", AM, X)
    from schrostep.general import rhs_reduced
    rhs = rhs_reduced(pot, ic, kap)
    assert np.abs(lhs - rhs).max() < 1e-12


# profiles for the block sweep of solve_unknowns, n = 1, 2, 3 and 6
SWEEP_PROFILES = {
    "one jump": PiecewisePotential([1.0, 2.0], [0.0]),
    "well": PiecewisePotential([0.0, -3.0, 0.0], [0.0, 1.0]),
    "three jumps": PiecewisePotential([0.0, 1.5, -1.0, 0.5], [0.0, 1.0, 2.5]),
    "six jumps": PiecewisePotential([0.0, 2.0, -1.0, 3.0, 0.5, -2.0, 1.0],
                                    [0.0, 0.4, 1.1, 2.0, 3.5, 4.2]),
}


@pytest.mark.parametrize("t", [0.5, 4.0])
@pytest.mark.parametrize("case", list(SWEEP_PROFILES))
def test_sweep_matches_the_dense_solve(case, t):
    # the dense bounded system solved by LAPACK is the reference, node by node
    pot = SWEEP_PROFILES[case]
    ic = InitialCondition.gaussian(center=-0.8, width=0.9, momentum=0.6)
    gen = GeneralSolver(pot, ic)
    path, _ = gen.sector(4, t)(4.0 * gen.radius)
    labels = {leg.label for leg in path.legs}
    assert labels == {"rotated real leg", "arc", "corner leg", "imaginary leg"}
    z = np.concatenate([leg.point(np.linspace(0.0, 1.0, 9)) for leg in path.legs])
    _, AM = reduced_system(pot, z)
    want = np.linalg.solve(AM, rhs_reduced(pot, ic, z)[..., None])[..., 0]
    got, _ = solve_unknowns(pot, ic, z)
    dev = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
    assert dev.max() <= 1e-12


def test_sweep_gives_each_node_the_same_bits_in_any_batch():
    pot = SWEEP_PROFILES["three jumps"]
    ic = InitialCondition.gaussian(center=-0.8, width=0.9, momentum=0.6)
    z = q4_nodes(37, 0.5, 40.0, seed=4)
    whole, _ = solve_unknowns(pot, ic, z)
    for i in (0, 17, 36):
        assert solve_unknowns(pot, ic, z[i:i + 1])[0].tobytes() == whole[i].tobytes()


def test_single_jump_matches_step_solver():
    # the d4 step runs on the interface system: the same code, the same bits
    ic = InitialCondition.gaussian(center=-1.0, momentum=0.7)
    xs = np.linspace(-2.0, 2.0, 9)
    for levels in ([1.0, 2.0], [2.0, 1.0]):
        pot = PiecewisePotential(levels, [0.0])
        got = [GeneralSolver(pot, ic), StepSolver(pot, ic, representation="d4")]
        a, b = (np.array([(s.value, s.error, s.psi_x, s.psi_x_error)
                          for s in solver.evaluate_grid(xs, 0.5, derivative=True)])
                for solver in got)
        assert a.tobytes() == b.tobytes()


def test_three_jump_interface_continuity():
    pot = PiecewisePotential([0.0, 2.0, -1.0, 0.5], [0.0, 0.7, 1.5])
    ic = InitialCondition.gaussian(center=-2.0, width=0.8, momentum=1.0)
    g = GeneralSolver(pot, ic)
    for ell, xl in enumerate(pot.interfaces, start=1):
        a = g.evaluate(xl, 0.4, region=ell, derivative=True)
        b = g.evaluate(xl, 0.4, region=ell + 1, derivative=True)
        assert abs(a.value - b.value) < 1e-6
        assert abs(a.psi_x - b.psi_x) < 1e-5


def test_time_zero_and_negative_time():
    pot = PiecewisePotential([0.0, 4.0, 0.0], [0.0, 1.0])
    ic = InitialCondition.gaussian(center=-3.0)
    g = GeneralSolver(pot, ic)
    got = g.evaluate(0.3, 0.0)
    assert abs(got.value - ic.evaluate(np.array([0.3]))[0]) < 1e-14
    with pytest.raises(ValueError):
        g.evaluate(0.3, -1.0)


def test_derivative_solve_keeps_value_estimate_honest():
    # derivative=True truncates the axis ray further out (T = 73 against 45);
    # a first panel there spanning many periods once passed the 7-15 check
    # by accident and put the value 8e-8 off under an estimate of 9.8e-9
    pot = PiecewisePotential([0.0, 1.5, -1.0, 0.5], [0.0, 1.0, 2.5])
    ic = InitialCondition.gaussian(center=-1.0, width=1.0, momentum=0.7)
    ref = GeneralSolver(pot, ic, tolerance=1e-11).evaluate(2.5, 0.5)
    for region in (3, 4):
        got = GeneralSolver(pot, ic).evaluate(2.5, 0.5, region=region, derivative=True)
        assert abs(got.value - ref.value) <= got.error + ref.error


@pytest.mark.parametrize("t", [0.5, 1.0])
def test_derivative_error_estimate_is_tight_and_honest(t):
    # the node table is refined on the slope integrands i c W exp(i c x) as
    # well; on the value integrands alone psi_x_error read 2.3e-6 (t = 0.5)
    # and 1.2e-6 (t = 1) with psi_x within 3e-12 of the reference
    pot = PiecewisePotential([0.0, 1.5, -1.0, 0.5], [0.0, 1.0, 2.5])
    ic = InitialCondition.gaussian(center=-1.0, width=1.0, momentum=0.7)
    ref = GeneralSolver(pot, ic, tolerance=1e-11).evaluate(2.5, t, region=3,
                                                           derivative=True)
    got = GeneralSolver(pot, ic).evaluate(2.5, t, region=3, derivative=True)
    assert got.psi_x_error <= 1e-8
    assert abs(got.psi_x - ref.psi_x) <= got.psi_x_error


def test_unknowns_far_out_on_the_path_do_not_overflow():
    # the solve used to build the diagonal factor exp(-+i nu_l x_l) of
    # reduced_system as well, which overflows on the generic tail sample of
    # this call; the suite turns that RuntimeWarning into an error
    pot = PiecewisePotential([0.0, 1.5, -1.0, 0.5], [0.0, 1.0, 2.5])
    ic = InitialCondition.gaussian(center=-1.0, width=1.0, momentum=0.7)
    got = GeneralSolver(pot, ic, tolerance=1e-11).evaluate(1.0, 0.3, region=2,
                                                           derivative=True)
    assert np.isfinite([got.value, got.psi_x]).all()
    assert got.error <= 1e-11 and got.psi_x_error <= 1e-9


class StepClosedForm:
    """The single jump's 2x2 interface system solved in closed form.

    With h1 = hat_1(nu_1) and h2 = hat_2(-nu_2), region 1 carries
    z (2 h2 + (nu_1 - nu_2)/nu_1 h1) / (nu_1 + nu_2) and region 2 carries
    z ((nu_1 - nu_2)/nu_2 h2 - 2 h1) / (nu_1 + nu_2).  The solvers take the
    step through the interface system; this form stays as its reference.
    """

    def __init__(self, potential, ic):
        self.potential, self.ic = potential, ic

    def _interface_data(self, z):
        a1, a2 = self.potential.levels
        n1 = nu(a1, z)
        n2 = nu(a2, z)
        h1, h2 = hat_transform(self.ic, self.potential, (1, 2), np.stack((n1, -n2)))
        return (np.stack((z * (2.0 * h2 + (n1 - n2) / n1 * h1) / (n1 + n2),
                          z * ((n1 - n2) / n2 * h2 - 2.0 * h1) / (n1 + n2)), axis=1),
                np.stack((n1, n2)))


# one closed form per case, compared column by column: jump l gives the
# term of region l at x_l, then the term of region l + 1 at x_l
CLOSED_FORMS = {
    "step up": (PiecewisePotential([1.0, 2.0], [0.0]), StepClosedForm),
    "step down": (PiecewisePotential([2.0, 1.0], [0.0]), StepClosedForm),
    "well": (PiecewisePotential([0.0, -3.0, 0.0], [0.0, 1.0]), WellSolver),
    "barrier": (PiecewisePotential([0.0, 4.0, 0.0], [0.0, 1.0]), WellSolver),
}


@pytest.mark.parametrize("t", [0.5, 4.0])
@pytest.mark.parametrize("case", list(CLOSED_FORMS))
def test_closed_form_combinations_match_the_linear_solve(case, t):
    pot, make = CLOSED_FORMS[case]
    ic = InitialCondition.gaussian(center=-0.8, width=0.9, momentum=0.6)
    closed = make(pot, ic)
    gen = GeneralSolver(pot, ic)
    path, _ = gen.sector(4, t)(4.0 * gen.radius)
    # arc, tilted leg, corner legs and ray
    z = np.concatenate([leg.point(np.linspace(0.05, 0.95, 7)) for leg in path.legs])
    (B, nus), (want, want_nus) = closed._interface_data(z), gen._interface_data(z)
    np.testing.assert_allclose(B, want, rtol=1e-12, atol=0.0)
    # the nus that come with the rows are potential.nus, to the last bit
    assert nus.tobytes() == want_nus.tobytes() == pot.nus(z).tobytes()
