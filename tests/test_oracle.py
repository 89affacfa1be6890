import numpy as np
import pytest

from schrostep import InitialCondition, PiecewisePotential
from schrostep import oracle
from schrostep.oracle import cn_evolve


def test_free_gaussian_reference_value():
    # (x, t) = (0.7, 0.3), frozen in tools/make_reference_values.py
    v = oracle.free_gaussian(np.array([0.7]), 0.3)[0]
    want = 0.64187636349702374 - 0.12814155186364198j
    assert abs(v - want) < 1e-15


def test_crank_nicolson_reproduces_free_evolution():
    pot = PiecewisePotential([0.0, 0.0], [0.0])
    ic = InitialCondition.gaussian(center=-1.0, width=1.0, momentum=0.5)
    xs = np.linspace(-3.0, 3.0, 13)
    vals, info = oracle.crank_nicolson(ic, pot, [0.4], x_eval=xs, L=16.0)
    exact = oracle.free_gaussian(xs, 0.4, -1.0, 1.0, 0.5, 1.0)
    assert np.max(np.abs(vals[0] - exact)) < 2e-6
    assert info["bmax"] < 1e-5


def test_crank_nicolson_mass_is_conserved():
    pot = PiecewisePotential([1.0, 2.0], [0.0])
    ic = InitialCondition.gaussian()
    vals, info = oracle.crank_nicolson(ic, pot, [0.05, 0.15], L=12.0)
    dx = info["dx"]
    m0 = np.sum(np.abs(vals[0]) ** 2) * dx
    m1 = np.sum(np.abs(vals[1]) ** 2) * dx
    assert abs(m1 - m0) < 1e-10 * m0


def test_domain_guard_raises():
    pot = PiecewisePotential([0.0, 0.0], [0.0])
    ic = InitialCondition.gaussian(momentum=3.0)
    with pytest.raises(RuntimeError):
        oracle.crank_nicolson(ic, pot, [1.0], L=5.0)


def test_ground_state_energy_matches_bound_state():
    """The tridiagonal eigensolver and the transcendental root agree.

    beta* frozen in tools/make_reference_values.py: energy -beta*^2 for the
    depth-4 width-1 well.
    """
    pot = PiecewisePotential([0.0, -4.0, 0.0], [0.0, 1.0])
    energy, x, phi = oracle.ground_state(pot, L=14.0, dx=1e-3)
    beta = 1.3472240583664296
    assert abs(energy - (-beta * beta)) < 5e-6
    assert abs(np.sum(phi ** 2) * (x[1] - x[0]) - 1.0) < 1e-12


def test_cn_evolve_matches_dense_solve():
    # the sparse-LU stepper against a dense solve of the same Crank-Nicolson
    # step
    rng = np.random.default_rng(11)
    n = 400
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n)
    dx, dt, nsteps = 0.05, 1e-3, 40
    h = 0.5j * dt
    dplus = 1.0 + h * (2.0 / dx ** 2 + v)
    dminus = 1.0 - h * (2.0 / dx ** 2 + v)
    coff = complex(-h / dx ** 2)
    off = np.eye(n, k=1) + np.eye(n, k=-1)
    lhs = np.diag(dplus) + coff * off
    rhs = np.diag(dminus) - coff * off
    step = np.linalg.solve(lhs, rhs)
    want = psi.copy()
    bmax = 0.0
    for _ in range(nsteps):
        want = step @ want
        bmax = max(bmax, abs(want[0]), abs(want[-1]))
    got, gotb = cn_evolve(psi, v, dx, dt, nsteps)
    assert np.max(np.abs(got - want)) < 1e-11
    assert abs(gotb - bmax) < 1e-11
