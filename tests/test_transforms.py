import numpy as np
import pytest

from schrostep import (GeneralSolver, InitialCondition, PiecewisePotential, StepSolver,
                       free_term, hat_transform, whole_line_hat)
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


def test_free_term_of_a_region_the_table_misses_is_zero():
    # tabulated data vanish outside their table, so a region the table does
    # not reach has no free term: exact zeros, value and slope
    three = PiecewisePotential([0.0, 1.5, -1.0, 0.5], [0.0, 1.0, 2.5])
    xt = np.linspace(1.2, 2.2, 9)
    ic = InitialCondition.tabulated(xt, np.exp(-(xt - 1.7) ** 2))
    xs = np.linspace(-3.0, 5.0, 17)
    for region in (1, 2, 4):
        for t in (0.1, 2.0):
            value, slope = free_term(ic, three, region, xs, t, derivative=True)
            assert value.shape == slope.shape == xs.shape
            assert not np.any(value) and not np.any(slope)
            assert not np.any(free_term(ic, three, region, xs, t))
    # the region that holds the table has a term
    assert np.all(np.abs(free_term(ic, three, 3, xt, 0.1)) > 0.0)


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


@pytest.mark.parametrize("derivative", [False, True])
@pytest.mark.parametrize("kind", ["gaussian", "tabulated"])
def test_free_term_is_elementwise_over_region_and_time(kind, derivative):
    # one call over every (x, region, t) of an evaluate_grid call gives the
    # bits of one call per region and time
    pot = PiecewisePotential([0.0, -3.0, 0.0], [0.0, 1.0])
    ic = InitialCondition.gaussian(amplitude=0.8 - 0.6j, center=-0.5, width=0.9,
                                   momentum=0.7)
    if kind == "tabulated":
        xt = np.linspace(-3.5, 2.5, 21)
        ic = InitialCondition.tabulated(xt, ic.evaluate(xt))
    xs = np.linspace(-6.0, 6.0, 61)
    regions = np.searchsorted(pot.interfaces, xs, side="right") + 1
    ts = [0.3, 1.7, 0.05]
    got = free_term(ic, pot, np.tile(regions, 3), np.tile(xs, 3), np.repeat(ts, xs.size),
                    derivative=derivative)
    got = np.asarray(got).reshape(-1, 3, xs.size)
    for k, t in enumerate(ts):
        for region in (1, 2, 3):
            at = regions == region
            want = np.asarray(free_term(ic, pot, region, xs[at], t, derivative=derivative))
            assert got[:, k, at].tobytes() == want.reshape(-1, at.sum()).tobytes()
    with pytest.raises(ValueError, match="t > 0"):
        free_term(ic, pot, [1, 2], [0.0, 0.5], [0.5, 0.0])


@pytest.mark.parametrize("kind", ["gaussian", "tabulated"])
def test_hat_of_a_batch_matches_each_point_bitwise(kind):
    # an evaluate_grid call computes the transforms at each node once, in
    # whatever batch first reaches it; one point used to sum the cells of a
    # table in another order than a batch
    pot = PiecewisePotential([0.0, -3.0, 0.0], [0.0, 1.0])
    ic = InitialCondition.gaussian(center=-0.5, width=0.9, momentum=0.7)
    if kind == "tabulated":
        xt = np.linspace(-3.5, 2.5, 21)
        ic = InitialCondition.tabulated(xt, ic.evaluate(xt))
    rng = np.random.default_rng(3)
    k = rng.uniform(-6.0, 6.0, 300) + 1j * rng.uniform(0.0, 3.0, 300)
    for region, ks in ((1, k), (2, k), (2, -k), (3, np.conj(k))):
        got = hat_transform(ic, pot, region, ks)
        one = np.array([hat_transform(ic, pot, region, kk) for kk in ks])
        cuts = [0, 1, 3, 140, 141, 300]
        parts = np.concatenate([hat_transform(ic, pot, region, ks[a:b])
                                for a, b in zip(cuts, cuts[1:])])
        assert got.tobytes() == one.tobytes() == parts.tobytes()


@pytest.mark.parametrize("kind", ["gaussian", "tabulated"])
def test_rows_match_one_region_calls_bitwise(kind):
    # the row form shares one Faddeeva call among its rows; each row must
    # still be the one-region call, and each node its own one-point call
    pot = PiecewisePotential([0.0, -3.0, 0.0], [0.0, 1.0])
    ic = InitialCondition.gaussian(center=-0.5, width=0.9, momentum=0.7)
    if kind == "tabulated":
        xt = np.linspace(-3.5, 2.5, 21)
        ic = InitialCondition.tabulated(xt, ic.evaluate(xt))
    rng = np.random.default_rng(4)
    k = rng.uniform(-12.0, 12.0, 200) + 1j * rng.uniform(0.0, 12.0, 200)
    regions, origins = (1, 2, 2, 3), (0.0, 1.0, 0.0, 1.0)
    K = np.stack((k, k, -k, np.conj(k)))
    got = hat_transform(ic, pot, regions, K, origins)
    assert got.shape == K.shape
    rows = np.array([hat_transform(ic, pot, r, kr, origin=o)
                     for r, kr, o in zip(regions, K, origins)])
    one = np.array([hat_transform(ic, pot, regions, K[:, i:i + 1], origins)[:, 0]
                    for i in range(k.size)]).T
    assert got.tobytes() == rows.tobytes() == one.tobytes()
    with pytest.raises(ValueError, match="region 1"):
        hat_transform(ic, pot, (2, 1), np.stack((k, np.conj(k))))
    with pytest.raises(ValueError, match="one row of k per region"):
        hat_transform(ic, pot, (1, 2), k)


def _faddeeva_points():
    rng = np.random.default_rng(5)
    # the upper half-plane at |z| from 1e-3 to 1e3
    r = 10.0 ** rng.uniform(-3.0, 3.0, 425)
    upper = r * np.exp(1j * rng.uniform(0.0, np.pi, 425))
    # both sides of the |z| = 8 seam
    seam = np.outer(8.0 * (1.0 + np.array([-1e-3, -1e-12, 0.0, 1e-12, 1e-3])),
                    np.exp(1j * np.linspace(0.0, np.pi, 25))).ravel()
    mags = np.geomspace(1e-3, 1e3, 50)
    axes = np.concatenate((mags, -mags, 1j * mags))
    # just above the real axis
    x = np.concatenate((np.geomspace(1e-3, 1e3, 50), -np.geomspace(1e-3, 1e3, 50)))
    skim = x + 1j * np.tile([1e-6, 1e-9, 1e-15, 1e-300, 0.0], 20)
    return np.concatenate((upper, seam, axes, skim))


def test_faddeeva_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    from schrostep.transforms import faddeeva
    z = _faddeeva_points()
    assert z.size >= 800 and np.all(z.imag >= 0.0)
    got = faddeeva(z)
    with mp.workdps(32):
        want = np.array([complex(mp.exp(-mp.mpc(q.real, q.imag) ** 2)
                                 * mp.erfc(-1j * mp.mpc(q.real, q.imag))) for q in z])
    rel = np.abs(got - want) / np.abs(want)
    assert rel.max() <= 3e-14, z[np.argmax(rel)]
    np.testing.assert_array_equal(faddeeva(z[::7].reshape(-1, 1)).ravel(), got[::7])


def test_weideman_coefficients_are_the_papers_fft():
    # Weideman, SIAM J. Numer. Anal. 31 (1994): N = 36 coefficients from
    # one FFT of exp(-t^2) (L^2 + t^2), t = L tan(theta / 2), over 4N points
    from schrostep.transforms import _W_COEFFS, _W_L
    n = 36
    m = 2 * n
    L = np.sqrt(n / np.sqrt(2.0))
    t = L * np.tan(np.arange(-m + 1, m) * np.pi / (2 * m))
    f = np.concatenate(([0.0], np.exp(-t * t) * (L * L + t * t)))
    a = np.real(np.fft.fft(np.fft.fftshift(f))) / (2 * m)
    assert _W_L == L
    np.testing.assert_allclose(_W_COEFFS, a[n:0:-1], rtol=0.0, atol=1e-16)


def test_faddeeva_rejects_the_lower_half_plane():
    from schrostep.transforms import faddeeva
    with pytest.raises(ValueError, match="Im z >= 0"):
        faddeeva(np.array([1.0 + 1.0j, 2.0 - 1e-12j]))


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


@pytest.mark.parametrize("n", [21, 1400])
@pytest.mark.parametrize("spacing", ["random", "linspace"])
def test_cubic_fit_of_all_cells_matches_one_solve_per_cell(n, spacing):
    # one solve over every cell, with the powers of tau formed as np.vander
    # forms them (running products): each cubic is bitwise its own solve's
    rng = np.random.default_rng(n)
    x = np.sort(rng.uniform(-5.0, 5.0, n)) if spacing == "random" else \
        np.linspace(-4.0, 2.0, n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = InitialCondition.tabulated(x, v)._cells
    assert got.shape == (n - 1, 4)
    for i in range(n - 1):
        j0 = min(max(i - 1, 0), n - 4)
        V = np.vander(x[j0:j0 + 4] - x[i], 4, increasing=True)
        np.testing.assert_array_equal(got[i], np.linalg.solve(V, v[j0:j0 + 4]))


def test_tabulated_validation():
    with pytest.raises(ValueError):
        InitialCondition.tabulated([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        InitialCondition.gaussian(width=0.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kwargs, name", [
    (dict(amplitude=complex(NAN, 0.0)), "amplitude"),
    (dict(center=NAN), "center"),
    (dict(momentum=INF), "momentum"),
    (dict(width=INF), "width"),
    # the squares the Gaussian's transforms form would overflow
    (dict(center=1e160), "center"),
    (dict(center=1e150, width=1e-10), "center"),
    (dict(width=1e-300), "width"),
    # each used to give psi = NaN: 4/width^2, momentum^2 and the data's norm
    # overflow where the free term and transforms form them
    (dict(width=7.5e-155), "width"),
    (dict(momentum=1e200), "momentum"),
    (dict(amplitude=1e308), "amplitude"),
    # a bool is not a number, though complex() and float() take it
    (dict(amplitude=True), "amplitude"),
    (dict(center=True), "center"),
    (dict(width=True), "width"),
    (dict(momentum=np.True_), "momentum"),
    (dict(center=np.False_), "center"),
    (dict(x=[False, True, 2.0, 3.0], values=[0.0, 1.0, 1.0, 0.0]), "x"),
    (dict(x=np.array([False, True, True, True]), values=[0.0, 1.0, 1.0, 0.0]), "x"),
    (dict(x=[0.0, 1.0, 2.0, 3.0], values=[0.0, 1.0, True, 0.0]), "values"),
    (dict(x=[0.0, 1.0, 2.0, 3.0], values=[np.True_, 1.0, 1.0, 0.0]), "values"),
    (dict(x=[0.0, 1.0, 2.0, 3.0], values=np.array([0, 1, 1, 0], dtype=bool)), "values"),
    (dict(x=[0.0, 1.0, NAN, 3.0], values=[1.0] * 4), "x"),
    (dict(x=[0.0, 1.0, 2.0, 3.0], values=[1.0, NAN, 1.0, 1.0]), "values"),
    # a cubic fit that is NaN (points 1e-300 apart), a Vandermonde that
    # overflows, and values whose transforms overflow; each used to grind
    # through 2011 panels before the solver gave up on the tolerance
    (dict(x=[0.0, 1e-300, 2e-300, 1.0], values=[0.0, 1.0, 1.0, 0.0]), "x"),
    (dict(x=[-1e200, 0.0, 1e200, 2e200], values=[0.0, 1.0, 1.0, 0.0]), "x"),
    (dict(x=[0.0, 1e-200, 2e-200, 3e-200], values=[0.0, 1.0, 1.0, 0.0]), "x"),
    (dict(x=[-2.0, -1.5, -1.0, -0.5], values=[1e300, 1e300, -1e300, 1e300]), "values"),
])
def test_non_finite_or_overflowing_initial_data_is_refused_by_name(kwargs, name):
    make = InitialCondition.tabulated if "x" in kwargs else InitialCondition.gaussian
    with pytest.raises(ValueError, match="^" + name + " "):
        make(**kwargs)


@pytest.mark.parametrize("solver", [StepSolver, GeneralSolver])
def test_a_narrow_packet_near_the_jump_meets_the_free_gaussian(solver):
    # (2 center/width^2)^2 overflows for this packet, a square no code forms
    ic = InitialCondition.gaussian(center=-1.0, width=1e-78, momentum=0.7)
    xs = np.array([-1.5, -0.5, 0.5])
    want = free_gaussian(xs, 0.5, -1.0, 1e-78, 0.7)
    got = solver(PiecewisePotential([0.0, 0.0], [0.0]), ic).evaluate_grid(xs, 0.5)
    for smp, w in zip(got, want):
        # the estimate charges nothing for the free term's own rounding
        assert abs(smp.value - w) <= smp.error + 1e-14 * abs(w), smp


def _osc_series_reference(k, ta, tb, nmax):
    # the series with its powers taken inline: the reference the tabulated
    # powers of transforms._osc_moments must reproduce bit for bit
    k = np.asarray(k, dtype=complex)
    ta = np.asarray(ta, dtype=float)
    tb = np.asarray(tb, dtype=float)
    z = -1j * k
    out = []
    for m_idx in range(nmax + 1):
        acc = np.zeros(np.broadcast(z, ta, tb).shape, dtype=complex)
        zp = np.ones_like(acc)
        fact = 1.0
        for j in range(22):
            acc = acc + zp * (tb ** (m_idx + j + 1) - ta ** (m_idx + j + 1)) / (fact * (m_idx + j + 1))
            zp = zp * z
            fact *= (j + 1)
        out.append(acc)
    return out


# (ta, tb) local to a cell, 0 <= ta < tb
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
    k = _osc_k([0.2, 0.999, 1.0 - 1e-12])
    ta = np.array([a for a, _ in OSC_CELLS] + [-0.2])
    tb = np.array([b for _, b in OSC_CELLS] + [0.15])
    layouts = [(k[None, :], ta[:, None], tb[:, None]),
               (k[:, None], ta[None, :], tb[None, :]),
               (k, 0.25, 0.5),
               (k[:, None], 0.0, tb[None, :])]
    for args in layouts:
        for nmax in (3, 4):
            got = _osc_moments(*args, nmax)
            want = _osc_series_reference(*args, nmax)
            assert len(got) == nmax + 1
            for g, w in zip(got, want):
                assert g.shape == w.shape
                np.testing.assert_array_equal(g.view(float), w.view(float))


def test_osc_moments_match_mpmath_quadrature():
    mp = pytest.importorskip("mpmath")
    from schrostep.transforms import _osc_moments
    for ta, tb in OSC_CELLS:
        # |k| tb well below 0.5 and just below, along the real axis and into
        # both half-planes
        k = (0.5 / tb * np.array([0.2, 0.999])[:, None] * OSC_DIRECTIONS[[0, 3, 4, 7]]).ravel()
        J = _osc_moments(k, ta, tb, 3)
        for m in range(4):
            for kk, got in zip(k, J[m]):
                with mp.workdps(30):
                    kc = mp.mpc(kk.real, kk.imag)
                    want = complex(mp.quad(lambda y: y ** m * mp.exp(-1j * kc * y),
                                           [ta, tb]))
                assert abs(got - want) <= 1e-13 * abs(want), (ta, tb, kk, m)


# a table with cells of width 0.5, smooth data and seeded random data
TAB_X = np.linspace(-1.0, 1.5, 6)
TAB_VALUES = {
    "smooth": np.exp(-(TAB_X - 0.2) ** 2 + 0.7j * TAB_X),
    "random": (lambda g: g.normal(size=6) + 1j * g.normal(size=6))(np.random.default_rng(7)),
}


def _piecewise_cubic_hat(mp, ic, k, a, b, origin):
    """integral_a^b psi0(y) exp(-i k (y - origin)) dy by mpmath, cell by cell,
    over the cubics the table was fitted with."""
    xt = ic.x_table
    a, b = max(a, xt[0]), min(b, xt[-1])
    if not a < b:
        return 0.0j
    pts = [a] + [v for v in xt if a < v < b] + [b]
    total = mp.mpc(0)
    with mp.workdps(30):
        kc = mp.mpc(k.real, k.imag)
        for lo, hi in zip(pts, pts[1:]):
            i = min(int(np.searchsorted(xt, lo, side="right")) - 1, xt.size - 2)
            c = [mp.mpc(v.real, v.imag) for v in ic._cells[i]]
            x0 = mp.mpf(xt[i])

            def f(y):
                t = y - x0
                return (c[0] + t * (c[1] + t * (c[2] + t * c[3]))) * \
                    mp.exp(-1j * kc * (y - mp.mpf(origin)))
            total += mp.quad(f, [lo, hi])
    return complex(total)


def _widest_cell(ic, a, b):
    xt = ic.x_table
    a, b = max(a, xt[0]), min(b, xt[-1])
    return max(np.diff([a] + [v for v in xt if a < v < b] + [b]))


@pytest.mark.parametrize("data", sorted(TAB_VALUES))
def test_tabulated_hat_matches_mpmath_across_the_series_switch(data):
    # one clipped cell, at the offsets the moments' recursion was checked
    # at; the switch is |k| (tb - ta) = 0.5, and the points just above it
    # and 5x it take the knot sum, those below it the series
    mp = pytest.importorskip("mpmath")
    from schrostep.transforms import _tabulated_hat
    ic = InitialCondition.tabulated(TAB_X, TAB_VALUES[data])
    for ta, tb in OSC_CELLS:
        a, b = TAB_X[1] + ta, TAB_X[1] + tb
        for factors in ([0.2, 0.999], [1.001, 5.0]):
            k = (0.5 / (tb - ta) * np.array(factors)[:, None]
                 * OSC_DIRECTIONS[[0, 3, 4, 7]]).ravel()
            got = _tabulated_hat(ic, k, a, b, 0.3)
            for kk, g in zip(k, got):
                want = _piecewise_cubic_hat(mp, ic, kk, a, b, 0.3)
                assert abs(g - want) <= 1e-13 * abs(want), (ta, tb, kk)


@pytest.mark.parametrize("data", sorted(TAB_VALUES))
def test_tabulated_hat_matches_mpmath_on_clipped_regions(data):
    mp = pytest.importorskip("mpmath")
    from schrostep.transforms import _tabulated_hat
    ic = InitialCondition.tabulated(TAB_X, TAB_VALUES[data])
    regions = [
        (-0.8, 0.7),        # a and b inside cells
        (-3.0, 0.2),        # from below the table to inside a cell
        (0.1, 9.0),         # from inside a cell to above the table
        (-0.5, 1.0),        # from point to point
        (0.1, 0.3),         # inside one cell
        (-np.inf, np.inf),  # the whole table
    ]
    for a, b in regions:
        w = _widest_cell(ic, a, b)
        k = (0.5 / w * np.array([0.5, 1.001, 5.0, 40.0])[:, None]
             * OSC_DIRECTIONS[[0, 3, 4, 7]]).ravel()
        got = _tabulated_hat(ic, k, a, b, 0.3)
        for kk, g in zip(k, got):
            want = _piecewise_cubic_hat(mp, ic, kk, a, b, 0.3)
            assert abs(g - want) <= 1e-13 * abs(want), (a, b, kk)
    # a region that misses the table, or meets it at one point
    k = np.array([0.0, 1.0, 3.0 - 2.0j])
    for a, b in ((-5.0, -1.0), (1.5, 4.0), (2.0, np.inf), (-np.inf, -2.0)):
        got = _tabulated_hat(ic, k, a, b, 0.3)
        assert got.tobytes() == np.zeros(3, dtype=complex).tobytes()


def test_tabulated_hat_is_bitwise_per_k_across_the_series_switch():
    # one batch with k on both sides of |k| w = 0.5 (w = 0.5, the widest
    # cell): each k gets the bits of its own call and of any split
    from schrostep.transforms import _tabulated_hat
    ic = InitialCondition.tabulated(TAB_X, TAB_VALUES["random"])
    rng = np.random.default_rng(11)
    mags = np.concatenate(([0.0], rng.uniform(0.0, 2.0, 120), [1.0 - 1e-12, 1.0, 1.0 + 1e-12]))
    k = mags * np.exp(1j * rng.uniform(-np.pi, np.pi, mags.size))
    series = np.abs(k) * 0.5 < 0.5
    assert series.sum() > 20 and (~series).sum() > 20
    for a, b in ((-0.8, 0.7), (-np.inf, np.inf)):
        got = _tabulated_hat(ic, k, a, b, 0.3)
        one = np.concatenate([_tabulated_hat(ic, k[i:i + 1], a, b, 0.3)
                              for i in range(k.size)])
        cuts = [0, 1, 2, 37, 38, 100, k.size]
        parts = np.concatenate([_tabulated_hat(ic, k[c:d], a, b, 0.3)
                                for c, d in zip(cuts, cuts[1:])])
        routed = np.empty_like(got)
        routed[series] = _tabulated_hat(ic, k[series], a, b, 0.3)
        routed[~series] = _tabulated_hat(ic, k[~series], a, b, 0.3)
        assert got.tobytes() == one.tobytes() == parts.tobytes() == routed.tobytes()


def test_whole_line_hat_at_zero_is_the_integral_of_the_cubics():
    mp = pytest.importorskip("mpmath")
    for values in TAB_VALUES.values():
        ic = InitialCondition.tabulated(TAB_X, values)
        h = np.diff(TAB_X)
        with mp.workdps(30):
            want = complex(mp.fsum(mp.mpc(c[m].real, c[m].imag) * mp.mpf(hi) ** (m + 1) / (m + 1)
                                   for c, hi in zip(ic._cells, h) for m in range(4)))
        got = whole_line_hat(ic, 0.0)
        assert isinstance(got, complex)
        assert abs(got - want) <= 1e-14 * abs(want)
