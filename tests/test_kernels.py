import numpy as np
import pytest
from hypothesis import given, assume, settings
from hypothesis import strategies as st

from schrostep import BranchCutError, PiecewisePotential, nu, omega


def test_nu_zero_level_is_ik_exactly():
    k = np.array([0.3 - 0.2j, 2.0 + 0.0j, -1.5j, 1e-12 + 0j])
    assert np.array_equal(nu(0.0, k), 1j * k)


def test_nu_squares_to_minus_k2_minus_alpha():
    rng = np.random.default_rng(3)
    k = rng.normal(size=40) + 1j * rng.normal(size=40)
    k = k[np.abs(k) > 0.1] * 5.0
    for alpha in (-3.0, 0.7, 12.0):
        v = nu(alpha, k)
        assert np.max(np.abs(v * v + k * k + alpha)) < 1e-10 * np.max(np.abs(k) ** 2)


def test_nu_is_odd():
    k = np.array([3.0 - 1j, 0.2 - 5j, 4.0 + 0.001j])
    for alpha in (-2.0, 6.0):
        np.testing.assert_allclose(nu(alpha, -k), -nu(alpha, k), rtol=1e-14)


def test_nu_reference_point():
    # tools/make_reference_values.py, alpha = 5, kappa = 0.01 - 10i
    v = nu(5.0, 0.01 - 10.0j)
    assert abs(v - (9.7467946148 + 0.0102597832366j)) < 1e-8
    # the sign lemma: Re(-i nu) has the sign of Re kappa
    assert (-1j * v).real > 0.0


def test_cut_points_rejected():
    with pytest.raises(BranchCutError):
        nu(4.0, 1.0j)          # on the imaginary cut [-2i, 2i]
    with pytest.raises(BranchCutError):
        nu(-4.0, 0.5)          # on the real cut [-2, 2]
    nu(4.0, 2.5j)              # beyond the cut tip is fine
    nu(-4.0, 2.5)


@settings(max_examples=200, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-8.0, 8.0), st.floats(-8.0, 8.0))
def test_sign_lemma_tracks_real_part(alpha, re, im):
    kap = complex(re, im)
    assume(abs(kap) ** 2 > 2.0 * abs(alpha) + 0.5)
    assume(abs(re) > 1e-3)
    assert np.sign((-1j * nu(alpha, kap)).real) == np.sign(re)


def test_omega():
    assert omega(2.0, 3.0) == 1j * (2.0 + 9.0)
    k = np.array([1.0 + 1j])
    np.testing.assert_allclose(omega(-1.0, k), 1j * (-1.0 + k * k))


def test_potential_validation():
    with pytest.raises(ValueError):
        PiecewisePotential([1.0], [])
    with pytest.raises(ValueError):
        PiecewisePotential([1.0, 2.0], [0.5])      # first jump must sit at 0
    with pytest.raises(ValueError):
        PiecewisePotential([1.0, 2.0, 3.0], [0.0, -1.0])
    with pytest.raises(ValueError):
        PiecewisePotential([1.0, 2.0], [0.0, 1.0])  # level/interface mismatch
    # a bool is not a level or a jump, though float(True) is 1.0
    for levels, interfaces, field in (([True, 0.0], [0.0], "levels"),
                                      ([0.0, np.False_], [0.0], "levels"),
                                      ([0.0, 1.0], [False], "interfaces")):
        with pytest.raises(ValueError, match="^" + field):
            PiecewisePotential(levels, interfaces)
    assert PiecewisePotential((1, 2), np.array([0])).levels == (1.0, 2.0)


def test_potential_regions():
    pot = PiecewisePotential([1.0, -2.0, 0.5], [0.0, 1.5])
    assert pot.njumps == 2 and pot.nregions == 3
    assert pot.lam == 2.0
    assert pot.region_of(-0.1) == 1
    assert pot.region_of(0.0) == 2          # right-continuous
    assert pot.region_of(1.5) == 3
    assert pot.region_bounds(1) == (-np.inf, 0.0)
    assert pot.region_bounds(2) == (0.0, 1.5)
    assert pot.region_bounds(3) == (1.5, np.inf)
    assert pot.level(2) == -2.0
    kap = np.array([3.0 - 4.0j])
    stack = pot.nus(kap)
    assert stack.shape == (3, 1)
    np.testing.assert_allclose(stack[0], nu(1.0, kap))
    np.testing.assert_allclose(stack[1], nu(-2.0, kap))
