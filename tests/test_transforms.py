import numpy as np
import pytest

from schrostep import InitialCondition, PiecewisePotential, free_term, hat_transform, whole_line_hat
from schrostep.oracle import free_gaussian

STEP = PiecewisePotential([1.0, 2.0], [0.0])


def test_gaussian_hat_reference_value():
    """Left half-line transform of exp(-y^2) at k = 1 - 0.5i.

    Frozen with mpmath quadrature in tools/make_reference_values.py.  Checked
    through the ungated kernel because the public entry point only admits the
    half plane where arbitrary data stay integrable.
    """
    from schrostep.transforms import _gauss_hat_piece
    got = _gauss_hat_piece(1.0, 0.0, 1.0, 0.0, np.array([1.0 - 0.5j]),
                           -np.inf, 0.0, 0.0)[0]
    want = 0.85802348410093029 + 0.65228518359757822j
    assert abs(got - want) < 1e-14
    ic = InitialCondition.gaussian()
    legal = hat_transform(ic, STEP, 1, 1.0 + 0.5j)
    mirror = _gauss_hat_piece(1.0, 0.0, 1.0, 0.0, np.array([1.0 + 0.5j]),
                              -np.inf, 0.0, 0.0)[0]
    assert abs(legal - mirror) < 1e-14


def test_hat_origin_shift_is_exact_phase():
    pot = PiecewisePotential([0.0, 3.0, 0.0], [0.0, 1.2])
    ic = InitialCondition.gaussian(center=0.4, width=0.7, momentum=1.1)
    k = 2.0 - 1.3j
    a = hat_transform(ic, pot, 2, k, origin=1.2)
    b = np.exp(1j * k * 1.2) * hat_transform(ic, pot, 2, k, origin=0.0)
    assert abs(a - b) < 1e-13 * max(1.0, abs(a))


def test_interior_transform_reference_value():
    # int_0^1 exp(-2iy) dy, frozen in tools/make_reference_values.py
    pot = PiecewisePotential([0.0, 1.0, 0.0], [0.0, 1.0])
    xs = np.linspace(-0.5, 1.5, 401)
    ic = InitialCondition.tabulated(xs, np.ones_like(xs, dtype=complex))
    got = hat_transform(ic, pot, 2, 2.0)
    want = 0.45464871341284085 - 0.70807341827357119j
    assert abs(got - want) < 1e-12


def test_half_line_gates():
    ic = InitialCondition.gaussian()
    hat_transform(ic, STEP, 1, 1.0 + 0.2j)
    with pytest.raises(ValueError):
        hat_transform(ic, STEP, 1, 1.0 - 0.2j)   # grows on the left half line
    with pytest.raises(ValueError):
        hat_transform(ic, STEP, 2, 1.0 + 0.2j)   # grows on the right half line
    hat_transform(ic, STEP, 2, 1.0 - 0.2j)


def test_whole_line_hat_splits():
    ic = InitialCondition.gaussian(center=-0.3, momentum=0.6)
    k = 1.7
    whole = whole_line_hat(ic, k)
    parts = hat_transform(ic, STEP, 1, k) + hat_transform(ic, STEP, 2, k)
    assert abs(whole - parts) < 1e-14


def test_free_term_matches_free_gaussian():
    # with alpha = 0 on both sides the two half-line heat pieces sum to the
    # exact free evolution
    pot = PiecewisePotential([0.0, 0.0], [0.0])
    ic = InitialCondition.gaussian(center=-1.0, width=0.8, momentum=0.5)
    for x in (-1.5, 0.0, 2.0):
        want = free_gaussian(np.array([x]), 0.6, -1.0, 0.8, 0.5, 1.0)[0]
        got = free_term(ic, pot, 1, x, 0.6) + free_term(ic, pot, 2, x, 0.6)
        assert abs(got - want) < 1e-12


def test_free_term_alpha_phase():
    pot0 = PiecewisePotential([0.0, 0.0], [0.0])
    pot2 = PiecewisePotential([2.0, 2.0], [0.0])
    ic = InitialCondition.gaussian()
    a = free_term(ic, pot0, 1, -0.7, 0.4)
    b = free_term(ic, pot2, 1, -0.7, 0.4)
    assert abs(b - a * np.exp(-2j * 0.4)) < 1e-13


def test_free_term_derivative_consistency():
    pot = PiecewisePotential([1.0, 2.0], [0.0])
    ic = InitialCondition.gaussian(center=-1.0)
    x, t, h = -0.9, 0.5, 1e-6
    F, dF = free_term(ic, pot, 1, x, t, derivative=True)
    fd = (free_term(ic, pot, 1, x + h, t) - free_term(ic, pot, 1, x - h, t)) / (2 * h)
    assert abs(dF - fd) < 1e-8


@pytest.mark.parametrize("derivative", [False, True])
@pytest.mark.parametrize("kind", ["gaussian", "tabulated"])
def test_free_term_on_an_array_matches_each_point_bitwise(kind, derivative):
    pot = PiecewisePotential([0.0, -3.0, 0.0], [0.0, 1.0])
    ic = InitialCondition.gaussian(amplitude=0.8 - 0.6j, center=-0.5, width=0.9,
                                   momentum=0.7)
    if kind == "tabulated":
        xt = np.linspace(-3.5, 2.5, 21)
        ic = InitialCondition.tabulated(xt, ic.evaluate(xt))
    xs = np.linspace(-6.0, 6.0, 151)
    for region in (1, 2, 3):
        got = free_term(ic, pot, region, xs, 0.5, derivative=derivative)
        one = [free_term(ic, pot, region, float(x), 0.5, derivative=derivative)
               for x in xs]
        want = np.array(one).T if derivative else np.array(one)
        assert np.asarray(got).tobytes() == want.tobytes()


def test_tabulated_matches_gaussian_when_sampled():
    xs = np.linspace(-7.0, 7.0, 1400)
    gauss = InitialCondition.gaussian(center=0.2, width=0.9)
    tab = InitialCondition.tabulated(xs, gauss.evaluate(xs))
    k = 1.4 + 0.8j
    a = hat_transform(gauss, STEP, 1, k)
    b = hat_transform(tab, STEP, 1, k)
    assert abs(a - b) < 5e-9
    xq = np.array([-0.37, 0.81])
    assert np.max(np.abs(gauss.evaluate(xq) - tab.evaluate(xq))) < 5e-9
    assert np.max(np.abs(gauss.derivative(xq) - tab.derivative(xq))) < 1e-6


def test_tabulated_validation():
    with pytest.raises(ValueError):
        InitialCondition.tabulated([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        InitialCondition.gaussian(width=0.0)


def _osc_moments_all_entries(k, ta, tb, nmax):
    # the series summed at every entry and then selected: the reference the
    # gathered series in transforms._osc_moments must reproduce bit for bit
    k = np.asarray(k, dtype=complex)
    ta = np.asarray(ta, dtype=float)
    tb = np.asarray(tb, dtype=float)
    z = -1j * k
    span = np.maximum(np.abs(ta), np.abs(tb))
    small = np.abs(z) * span < 0.5
    out_series = []
    for m_idx in range(nmax + 1):
        acc = np.zeros(np.broadcast(z, ta, tb).shape, dtype=complex)
        zp = np.ones_like(acc)
        fact = 1.0
        for j in range(22):
            acc = acc + zp * (tb ** (m_idx + j + 1) - ta ** (m_idx + j + 1)) / (fact * (m_idx + j + 1))
            zp = zp * z
            fact *= (j + 1)
        out_series.append(acc)
    zs = np.where(small, 1.0, z)
    ea = np.exp(zs * ta)
    eb = np.exp(zs * tb)
    out_rec = [(eb - ea) / zs]
    for m_idx in range(1, nmax + 1):
        out_rec.append((tb ** m_idx * eb - ta ** m_idx * ea - m_idx * out_rec[-1]) / zs)
    return [np.where(small, s, r) for s, r in zip(out_series, out_rec)]


# (ta, tb) as _tabulated_hat passes them: 0 <= ta < tb, local to a cell
OSC_CELLS = [(0.0, 0.3), (0.25, 0.5), (0.1, 0.45)]
# directions of k: real both ways, and complex in both half-planes
OSC_DIRECTIONS = np.exp(1j * np.array([0.0, np.pi, 0.6, -0.6, 2.5, -2.5,
                                       0.5 * np.pi, -0.5 * np.pi]))


def _osc_k(factors):
    # |k| max(|ta|, |tb|) = f for each factor f, for every cell's span
    spans = [max(abs(a), abs(b)) for a, b in OSC_CELLS]
    mags = np.array([0.5 * f / s for s in spans for f in factors])
    return (mags[:, None] * OSC_DIRECTIONS).ravel()


def test_osc_moments_bitwise_equal_to_all_entries_series():
    from schrostep.transforms import _osc_moments
    k = _osc_k([0.2, 0.999, 1.0 - 1e-12, 1.0 + 1e-12, 1.001, 5.0])
    ta = np.array([a for a, _ in OSC_CELLS] + [-0.2])
    tb = np.array([b for _, b in OSC_CELLS] + [0.15])
    layouts = [(k[None, :], ta[:, None], tb[:, None]),
               (k[:, None], ta[None, :], tb[None, :]),
               (k, 0.25, 0.5)]
    for args in layouts:
        small = np.abs(args[0]) * np.maximum(np.abs(args[1]), np.abs(args[2])) < 0.5
        assert small.any() and not small.all()
        for nmax in (3, 4):
            got = _osc_moments(*args, nmax)
            want = _osc_moments_all_entries(*args, nmax)
            assert len(got) == nmax + 1
            for g, w in zip(got, want):
                assert g.shape == w.shape
                np.testing.assert_array_equal(g.view(float), w.view(float))
    # no small entry: the series is skipped, the recursion is unchanged
    k = _osc_k([1.001, 5.0])
    for nmax in (3, 4):
        got = _osc_moments(k[None, :], ta[:3, None], tb[:3, None], nmax)
        want = _osc_moments_all_entries(k[None, :], ta[:3, None], tb[:3, None], nmax)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.view(float), w.view(float))


def test_osc_moments_match_mpmath_quadrature():
    mp = pytest.importorskip("mpmath")
    from schrostep.transforms import _osc_moments
    for ta, tb in OSC_CELLS:
        # |k| tb just below 0.5 and deeper (series), just above and 5x
        # (recursion), along the real axis and into both half-planes
        for factors in ([0.2, 0.999], [1.001, 5.0]):
            k = (0.5 / tb * np.array(factors)[:, None] * OSC_DIRECTIONS[[0, 3, 4, 7]]).ravel()
            J = _osc_moments(k, ta, tb, 3)
            for m in range(4):
                for kk, got in zip(k, J[m]):
                    with mp.workdps(30):
                        kc = mp.mpc(kk.real, kk.imag)
                        want = complex(mp.quad(lambda y: y ** m * mp.exp(-1j * kc * y),
                                               [ta, tb]))
                    assert abs(got - want) <= 1e-13 * abs(want), (ta, tb, kk, m)
