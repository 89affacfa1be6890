"""Two-jump closed forms: scattering coefficient, bound states, solver agreement."""

import numpy as np
import pytest

from schrostep import (
    GeneralSolver,
    InitialCondition,
    PiecewisePotential,
    WellSolver,
    bound_states,
    nu,
    scattering_a,
    trig_denominator,
)

# frozen by tools/make_reference_values.py (mpmath root polishing)
ROOTS_M4 = [1.3472240583664296]
ROOTS_M100 = [1.9269332034953509, 6.4105682139847225,
              8.5468447114426533, 9.6526088710838112]


def test_bound_states_match_reference():
    got = bound_states(-4.0, 1.0)
    assert got.shape == (1,)
    assert abs(got[0] - ROOTS_M4[0]) < 1e-10
    got = bound_states(-100.0, 1.0)
    assert got.shape == (4,)
    for g, w in zip(got, ROOTS_M100):
        assert abs(g - w) < 1e-10
    assert bound_states(3.0, 1.0).size == 0


def test_bound_states_are_zeros_of_a_and_of_the_denominator():
    for alpha, roots in ((-4.0, ROOTS_M4), (-100.0, ROOTS_M100)):
        for beta in roots:
            assert abs(scattering_a(alpha, 1.0, 1j * beta)) < 1e-8
            assert abs(trig_denominator(alpha, 1.0, beta)) < 1e-8


def test_zero_barrier_has_unit_a():
    xi = np.linspace(-6.0, 6.0, 41)
    xi = xi[xi != 0.0]
    assert np.max(np.abs(scattering_a(0.0, 1.0, xi) - 1.0)) < 1e-12


def test_a_matches_unguarded_trig_form():
    xi = np.linspace(-6.0, 6.0, 41)
    xi = xi[xi != 0.0]
    alpha, x2 = -4.0, 1.0
    m = np.sqrt(alpha - xi * xi + 0j)
    ref = np.exp(1j * xi * x2) * (np.cosh(x2 * m)
                                  - 1j * (2 * xi ** 2 - alpha) / (2 * xi * m) * np.sinh(x2 * m))
    assert np.max(np.abs(scattering_a(alpha, x2, xi) - ref)) < 1e-13


def test_a_rejects_origin():
    with pytest.raises(ValueError):
        scattering_a(-4.0, 1.0, 0.0)


def test_denominator_product_identity():
    """(nu-ik)^2 e^{2 i nu x2} - (nu+ik)^2 = -2i e^{i nu x2} * trig form."""
    rng = np.random.default_rng(2)
    x2 = 1.3
    for alpha in (4.0, -4.0, 2.5):
        r = 3.5 * (1.0 + 2.0 * rng.random(20))
        th = -0.5 * np.pi * rng.random(20)
        kap = r * np.exp(1j * th)
        nuv = nu(alpha, kap)
        P = nuv - 1j * kap
        M = nuv + 1j * kap
        lhs = P * P * np.exp(2j * nuv * x2) - M * M
        rhs = -2j * np.exp(1j * nuv * x2) * trig_denominator(alpha, x2, kap)
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-12


def test_closed_forms_match_interface_system_barrier():
    pot = PiecewisePotential([0.0, 4.0, 0.0], [0.0, 1.0])
    ic = InitialCondition.gaussian(center=-3.0)
    gen = GeneralSolver(pot, ic)
    w = WellSolver(pot, ic)
    xs = np.array([-3.5, -1.0, 0.4, 1.0, 2.5])
    ref = gen.evaluate_grid(xs, 0.5)
    got = w.evaluate_grid(xs, 0.5)
    for a, b in zip(got, ref):
        assert abs(a.value - b.value) < 1e-10


def test_closed_forms_match_interface_system_well():
    pot = PiecewisePotential([0.0, -4.0, 0.0], [0.0, 1.0])
    ic = InitialCondition.gaussian(center=0.5, width=0.6)
    gen = GeneralSolver(pot, ic)
    w = WellSolver(pot, ic)
    xs = np.array([-1.0, 0.2, 0.8, 1.7])
    ref = gen.evaluate_grid(xs, 0.75)
    got = w.evaluate_grid(xs, 0.75)
    for a, b in zip(got, ref):
        assert abs(a.value - b.value) < 1e-10


def test_well_agrees_with_general_solver_at_a_second_radius():
    # a different arc, corner and truncation from the well's own contour
    pot = PiecewisePotential([0.0, 4.0, 0.0], [0.0, 1.0])
    ic = InitialCondition.gaussian(center=-3.0)
    wd = WellSolver(pot, ic)
    gen = GeneralSolver(pot, ic, radius=1.5 * wd.radius)
    for x in (-1.5, 0.5, 2.0):
        a = wd.evaluate(x, 1.0)
        b = gen.evaluate(x, 1.0)
        assert abs(a.value - b.value) <= 5.0 * (a.error + b.error)


def test_constructor_validation():
    ic = InitialCondition.gaussian()
    with pytest.raises(ValueError):
        WellSolver(PiecewisePotential([0.0, 4.0], [0.0]), ic)
    with pytest.raises(ValueError):
        WellSolver(PiecewisePotential([1.0, 4.0, 0.0], [0.0, 1.0]), ic)
