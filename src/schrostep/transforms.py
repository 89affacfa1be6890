"""Initial data, half-line transforms, and free-evolution terms.

Conventions used by every solver in the package:

    hat_j(k; origin) = integral over region j of psi0(y) exp(-i k (y - origin)) dy

    F_j(x, t) = exp(-i alpha_j t) * integral over region j of G_t(x - y) psi0(y) dy
    G_t(xi)   = (4 pi i t)^(-1/2) exp(i xi^2 / (4 t))

Transforms over a half-infinite region converge only in one half of the
k-plane: region 1 (unbounded to the left) needs Im k >= 0 and the last
region (unbounded to the right) needs Im k <= 0, boundary included.
Evaluation outside the valid half-plane raises ValueError naming the region.

Gaussian data is integrated in closed form through the Faddeeva function
w(z) = exp(-z^2) erfc(-iz), combined so that every explicit exponential
carries an exponent whose real part is bounded by the true envelope of the
integral (no intermediate overflow).  Every endpoint needs w only in the
closed upper half-plane, where `faddeeva` computes it in the package:

    |z| >= 8   the Laplace continued fraction in its even form, four levels
               deep (Poppe & Wijers, ACM TOMS 16, 1990);
    |z| <  8   Weideman's rational series with N = 36 terms, summed by
               Horner's rule (SIAM J. Numer. Anal. 31, 1994).

Both stay within 1e-14 of w relatively.  One call serves every finite
endpoint of a transform, or of a stack of transforms (the row form of
`hat_transform`), because each call costs tens of microseconds of numpy
dispatch whatever its size.

Tabulated data is interpolated by a local cubic per cell, so integration by
parts terminates (the exact, finite case of Iserles & Norsett, Proc. R.
Soc. A 461, 2005): with y_j the table's points inside the region and the
region's two clipped ends, and D_jm the jump of the m-th derivative of the
data at y_j (the data taken as zero outside the region),

    hat(k) = sum_j exp(-i k (y_j - origin)) sum_{m=0..3} D_jm / (i k)^(m+1),

one exponential per knot and k.  The sum cancels as |k| times the widest
clipped cell falls below 1/2, k = 0 included; there each cell's moments
are summed by their power series instead.
"""

import numpy as np

__all__ = ["InitialCondition", "faddeeva", "hat_transform", "free_term", "whole_line_hat"]

_SQRT_PI = 1.7724538509055159


# Weideman's series with N = 36: the scale L = sqrt(N / sqrt(2)) and the
# coefficients of p, leading first.  They are the Fourier coefficients of
# exp(-t^2) (L^2 + t^2) in theta, t = L tan(theta / 2), computed by one FFT
# over 4N points as in Weideman's paper (tests/test_transforms.py repeats
# the computation).
_W_L = 5.045378491522287
_W_COEFFS = (
    5.353549393917313e-14, -8.061168438014101e-14, -3.240267634165634e-13,
    4.4298493789069534e-13, 2.0979473041617125e-12, -2.117034533577603e-12,
    -1.4312585141524958e-11, 6.346276609370552e-12, 9.939327348449196e-11,
    3.197210398816971e-11, -6.63484656720661e-10, -9.092238093041557e-10,
    3.773443075419046e-09, 1.1883887210243599e-08, -1.0962277926127363e-08,
    -1.1303157198683394e-07, -1.2894842925868314e-07, 6.74165566301324e-07,
    2.7654086656395635e-06, 1.4187058479301548e-06, -2.1741186565494455e-05,
    -8.817797141849295e-05, -0.00011396630644459431, 0.00046290316939988515,
    0.0035484447086996693, 0.013898253763251402, 0.04105104301657689,
    0.1008429337184795, 0.21501636320107395, 0.4073424189503341,
    0.6956621918971001, 1.0813580371765887, 1.5401625788153652,
    2.0193976436113505, 2.445378492851921, 2.74074502740986,
)
# where the continued fraction takes over from the series
_W_FAR = 8.0


def _faddeeva_near(z):
    # w = 2 p(Z) / (L - iz)^2 + 1 / (sqrt(pi) (L - iz)), Z = (L + iz) / (L - iz).
    # Horner's products are taken out of place: numpy's in-place complex
    # product may round an element differently with the array's length.
    d = _W_L - 1j * z
    Z = (_W_L + 1j * z) / d
    p = np.full(z.shape, _W_COEFFS[0], dtype=complex)
    for c in _W_COEFFS[1:]:
        p = p * Z + c
    return 2.0 * p / (d * d) + (1.0 / _SQRT_PI) / d


def _faddeeva_far(z):
    # w = i z / sqrt(pi) / (z^2 - 1/2 - (1/2) / (z^2 - 5/2 - 3 / (z^2 - 9/2
    #     - (15/2) / (z^2 - 13/2 - 14 / (z^2 - 17/2)))))
    z2 = z * z
    acc = z2 - 8.5
    for level in (4, 3, 2, 1):
        acc = z2 - (2 * level - 1.5) - level * (level - 0.5) / acc
    return (1j / _SQRT_PI) * z / acc


def faddeeva(z):
    """The Faddeeva function w(z) = exp(-z^2) erfc(-iz) for Im z >= 0.

    Elementwise over an array, and each element gets the same bits in an
    array of any size.  Raises ValueError for Im z < 0, where neither
    approximation holds.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag < 0.0):
        raise ValueError("faddeeva covers Im z >= 0 only")
    far = np.abs(z) >= _W_FAR
    if not far.any():
        return _faddeeva_near(z)
    if far.all():
        return _faddeeva_far(z)
    out = np.empty(z.shape, dtype=complex)
    out[far] = _faddeeva_far(z[far])
    out[~far] = _faddeeva_near(z[~far])
    return out


def _erf_endpoint(u, phi):
    """Stable endpoint data for exp(E)*erf(u) style formulas.

    Returns (coeff, corr) so that exp(E)*erf(u) = coeff*exp(E) + corr with
    corr = -coeff * exp(phi) * w(i*coeff*u) and phi = E - u^2 supplied by the
    caller in a cancellation-free form.
    """
    u = np.asarray(u, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    coeff = np.where(u.real >= 0.0, 1.0, -1.0)
    corr = -coeff * np.exp(phi) * faddeeva(1j * coeff * u)
    return coeff, corr


def _gauss_hat_piece(amp, c, w, mu, k, a, b, origin):
    """Transform of a Gaussian restricted to [a, b], origin-shifted kernel.

    Computes integral_a^b amp exp(-((y-c)/w)^2 + i mu y) exp(-i k (y-origin)) dy
    for a 1-D array of k, or row by row for an (m, n) array of k with m
    values each of a, b and origin.  Endpoints may be -inf or +inf; the
    finite ones of every row go through one Faddeeva call.
    """
    K = np.atleast_2d(np.asarray(k, dtype=complex))
    m = K.shape[0]
    o = np.broadcast_to(np.asarray(origin, dtype=float), (m,))[:, None]
    d = mu - K
    cp = c - o
    E = 1j * d * cp - 0.25 * d * d * w * w

    # the upper ends of the rows, then their lower ends; an infinite end
    # contributes its sign and no correction
    ends = np.array([np.broadcast_to(b, (m,)), np.broadcast_to(a, (m,))], dtype=float)
    coeff = np.repeat(np.sign(ends)[..., None], K.shape[1], axis=2)
    corr = np.zeros(coeff.shape, dtype=complex)
    finite = np.isfinite(ends)
    if finite.any():
        row = np.nonzero(finite)[1]
        tau = (ends[finite] - o[row, 0])[:, None]
        dr, cpr = d[row], cp[row]
        u = (tau - cpr) / w - 0.5j * dr * w
        phi = -((tau - cpr) / w) ** 2 + 1j * dr * tau
        coeff[finite], corr[finite] = _erf_endpoint(u, phi)
    net = coeff[0] - coeff[1]
    eE = np.zeros(K.shape, dtype=complex)
    live = net != 0.0
    if np.any(live):
        eE[live] = np.exp(E[live])
    val = 0.5 * _SQRT_PI * w * (net * eE + corr[0] - corr[1])
    return (amp * np.exp(1j * mu * o) * val).reshape(np.shape(k))


def _osc_moments(k, ta, tb, nmax):
    """Moments J_m = integral_ta^tb tau^m exp(-i k tau) dtau for m = 0..nmax.

    k, ta and tb broadcast together.  Every entry is summed by the 22-term
    power series

        J_m = sum_j z^j (tb^(m+j+1) - ta^(m+j+1)) / (j! (m+j+1)),  z = -i k,

    which holds to rounding where |k| max(|ta|, |tb|) < 0.5; _tabulated_hat
    routes a k here when that holds on every cell, with ta = 0.  The power
    differences are tabulated once per (ta, tb) pair with scalar integer
    exponents, and the terms are summed elementwise, so an entry's moments
    do not depend on the other entries of the call.
    """
    z = -1j * np.asarray(k, dtype=complex)
    ta = np.asarray(ta, dtype=float)
    tb = np.asarray(tb, dtype=float)
    shape = np.broadcast(z, ta, tb).shape
    dpow = [tb ** p - ta ** p for p in range(1, nmax + 23)]
    out = []
    for m_idx in range(nmax + 1):
        acc = np.zeros(shape, dtype=complex)
        zp = np.ones_like(acc)
        fact = 1.0
        for j in range(22):
            acc = acc + zp * dpow[m_idx + j] / (fact * (m_idx + j + 1))
            zp = zp * z
            fact *= (j + 1)
        out.append(acc)
    return out


def _gauss_moments(p, s, ta, tb, nmax):
    """Moments integral_ta^tb tau^m exp(-p tau^2 + s tau) dtau, m = 0..nmax.

    p is a scalar with Re p >= 0 and p != 0; exponents at the endpoints and
    the saddle must be bounded (true for the purely oscillatory kernels this
    is used on).  s, ta, tb broadcast.
    """
    s = np.asarray(s, dtype=complex)
    ta = np.asarray(ta, dtype=float)
    tb = np.asarray(tb, dtype=float)
    sqp = np.sqrt(complex(p))
    E = s * s / (4.0 * p)

    # both endpoints in one Faddeeva call
    u = np.stack([sqp * tau - s / (2.0 * sqp) for tau in (tb, ta)])
    phi = np.stack([-p * tau * tau + s * tau for tau in (tb, ta)])
    (cb, ca), (corr_b, corr_a) = _erf_endpoint(u, phi)
    phib, phia = np.exp(phi)
    m0 = (_SQRT_PI / (2.0 * sqp)) * ((cb - ca) * np.exp(E) + corr_b - corr_a)
    out = [m0]
    if nmax >= 1:
        out.append((s * out[0] - (phib - phia)) / (2.0 * p))
    for m_idx in range(2, nmax + 1):
        bdry = tb ** (m_idx - 1) * phib - ta ** (m_idx - 1) * phia
        out.append(((m_idx - 1) * out[m_idx - 2] + s * out[m_idx - 1] - bdry) / (2.0 * p))
    return out


def _cubic_derivatives(c, tau):
    """The cubic c0 + c1 tau + c2 tau^2 + c3 tau^3 and its first three
    derivatives at tau, from c = (c0, c1, c2, c3): scalars, or arrays that
    broadcast with tau."""
    c0, c1, c2, c3 = c
    return (c0 + tau * (c1 + tau * (c2 + tau * c3)),
            c1 + tau * (2.0 * c2 + 3.0 * tau * c3),
            2.0 * c2 + 6.0 * tau * c3,
            6.0 * c3)


class InitialCondition:
    """Initial wave packet: a (modulated) Gaussian or tabulated samples.

    Gaussian form: amplitude * exp(-((x-center)/width)^2) * exp(i momentum x).
    Tabulated form: strictly increasing sample points with complex values,
    interpolated by a local cubic in each cell and treated as zero outside
    the table.

    Every parameter must be finite, and the scales a Gaussian's transforms
    and free terms form from its parameters must not overflow
    (_check_scales), nor the fit of tabulated data (_fit_table).  A
    ValueError names the offending parameter as its first word: amplitude,
    center, width, momentum, or x and values of `tabulated`.
    """

    def __init__(self, kind, amplitude=1.0, center=0.0, width=1.0, momentum=0.0,
                 x_table=None, values_table=None):
        self.kind = kind
        if kind == "gaussian":
            self.amplitude = complex(amplitude)
            self.center = float(center)
            self.width = float(width)
            self.momentum = float(momentum)
            for name in ("amplitude", "center", "width", "momentum"):
                value = getattr(self, name)
                if not np.isfinite(value):
                    raise ValueError("{} must be finite, got {}".format(name, value))
            if not self.width > 0.0:
                raise ValueError("width must be positive, got {}".format(width))
            self._check_scales()
        elif kind == "tabulated":
            x = np.asarray(x_table, dtype=float)
            v = np.asarray(values_table, dtype=complex)
            if x.ndim != 1 or x.size < 4:
                raise ValueError("x needs at least 4 sample points")
            if v.shape != x.shape:
                raise ValueError("x and values differ in length")
            if not np.all(np.isfinite(x)):
                raise ValueError("x must be finite")
            if not np.all(np.isfinite(v)):
                raise ValueError("values must be finite")
            if np.any(np.diff(x) <= 0.0):
                raise ValueError("x must be strictly increasing")
            self.x_table = x
            self.values_table = v
            self._fit_table()
        else:
            raise ValueError("unknown initial condition kind {!r}".format(kind))

    def _check_scales(self):
        """Refuse a Gaussian whose transforms or free terms would overflow.

        The free term forms 4 / width^2 and s^2 with
        s = 2 center / width^2 + i momentum + ..., the transforms
        (momentum - k)^2 and (center/width)^2, and the solvers multiply the
        transforms, up to the data's L1 norm |amplitude| width sqrt(pi) in
        size, by factors up to about 1e8 on the contours (kappa^2 up to
        max_T^2 = 1.6e7, times the corner legs' growth within e^(9/4)).
        Each bound is checked on the quantity as the code forms it (numpy
        float64, which overflows to inf quietly).
        """
        amp, c, w, mu = (np.float64(v) for v in (abs(self.amplitude), self.center,
                                                 self.width, self.momentum))
        with np.errstate(all="ignore"):
            w2 = w * w
            checks = (
                ("width", 4.0 / w2, "4/width^2"),
                ("center", (c / w) ** 2, "(center/width)^2"),
                ("center", (2.0 * c / w2) ** 2, "(2 center/width^2)^2"),
                ("momentum", mu * mu, "momentum^2"),
                ("amplitude", 1e8 * amp * w * np.sqrt(np.pi),
                 "1e8 |amplitude| width sqrt(pi)"))
        for name, value, what in checks:
            if not value < np.inf:
                raise ValueError("{} {} gives an overflowing {} at width {}".format(
                    name, getattr(self, name), what, self.width))

    @classmethod
    def gaussian(cls, amplitude=1.0, center=0.0, width=1.0, momentum=0.0):
        return cls("gaussian", amplitude=amplitude, center=center, width=width,
                   momentum=momentum)

    @classmethod
    def tabulated(cls, x, values):
        return cls("tabulated", x_table=x, values_table=values)

    def _fit_table(self):
        """Fit the cells and their knot jumps, refusing a table they overflow.

        _cells holds the cubic of each cell, and _jumps[j, m] the jump of
        the m-th derivative of the data at x[j], the data taken as zero
        outside the table.  As for a Gaussian's amplitude, the solvers
        multiply the transforms by factors up to about 1e8, so 1e8 times
        max|values| (x[-1] - x[0]), and then 1e8 times the cubics' L1 bound
        sum |c_m| h^(m+1), must be finite.  Sample points too close together
        or too far apart for the cubic through four of them in float64 give
        a singular, NaN or overflowing fit.
        """
        x, v = self.x_table, self.values_table
        h = np.diff(x)
        with np.errstate(all="ignore"):
            span = x[-1] - x[0]
            try:
                cells = self._fit_cells(x, v)
            except np.linalg.LinAlgError:
                cells = np.full((h.size, 4), np.nan)
            right = np.array(_cubic_derivatives(cells.T, h)).T
            checks = (
                ("x", span, "x[-1] - x[0]"),
                ("values", 1e8 * np.max(np.abs(v)) * span, "1e8 max|values| (x[-1] - x[0])"),
                ("x", np.max(np.abs(cells)) + np.max(np.abs(right)), "cubic fit"),
                ("values", 1e8 * np.sum(np.abs(cells) * h[:, None] ** np.arange(1, 5)),
                 "1e8 sum |c_m| h^(m+1)"))
        for name, value, what in checks:
            if not value < np.inf:
                raise ValueError("{} out of range: {} is not finite (x from {} to {}, "
                                 "|values| up to {})".format(name, what, x[0], x[-1],
                                                             np.max(np.abs(v))))
        jumps = np.zeros((x.size, 4), dtype=complex)
        jumps[:-1] = np.array(_cubic_derivatives(cells.T, 0.0)).T
        jumps[1:] -= right
        self._cells, self._jumps = cells, jumps

    @staticmethod
    def _fit_cells(x, v):
        # cubic through the 4-point stencil around each cell, coefficients in
        # the local variable tau = y - x[i], in one solve over the cells; the
        # powers are running products, as np.vander forms them
        n = x.size - 1
        idx = np.clip(np.arange(n) - 1, 0, x.size - 4)[:, None] + np.arange(4)
        V = np.ones((n, 4, 4))
        V[..., 1:] = (x[idx] - x[:n, None])[..., None]
        np.multiply.accumulate(V, axis=-1, out=V)
        return np.linalg.solve(V, v[idx][..., None])[..., 0]

    def _cell_at(self, x):
        """Cell lookup at x: (inside, tau, coeffs).

        coeffs is the cubic of x's cell and tau the offset of x from the
        cell's left sample; inside marks the x within the table, outside
        which the data vanish.
        """
        xt = self.x_table
        idx = np.clip(np.searchsorted(xt, x, side="right") - 1, 0, xt.size - 2)
        return (x >= xt[0]) & (x <= xt[-1]), x - xt[idx], self._cells[idx]

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "gaussian":
            z = (x - self.center) / self.width
            return self.amplitude * np.exp(-z * z + 1j * self.momentum * x)
        inside, tau, c = self._cell_at(x)
        val = c[..., 0] + tau * (c[..., 1] + tau * (c[..., 2] + tau * c[..., 3]))
        return np.where(inside, val, 0.0)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "gaussian":
            z = (x - self.center) / self.width
            return (1j * self.momentum - 2.0 * z / self.width) * \
                self.amplitude * np.exp(-z * z + 1j * self.momentum * x)
        inside, tau, c = self._cell_at(x)
        val = c[..., 1] + tau * (2.0 * c[..., 2] + 3.0 * tau * c[..., 3])
        return np.where(inside, val, 0.0)

    def support(self):
        """Interval outside which the data vanishes (inf for a Gaussian)."""
        if self.kind == "gaussian":
            return -np.inf, np.inf
        return float(self.x_table[0]), float(self.x_table[-1])


def _gate(a, b, region, k):
    k = np.asarray(k, dtype=complex)
    if np.isinf(a) and np.any(k.imag < 0.0):
        raise ValueError(
            "transform over region {} (unbounded left) needs Im k >= 0".format(region))
    if np.isinf(b) and np.any(k.imag > 0.0):
        raise ValueError(
            "transform over region {} (unbounded right) needs Im k <= 0".format(region))


def hat_transform(ic, potential, region, k, origin=0.0):
    """Region-restricted transform of the initial data at spectral points k.

    Returns integral over region `region` of psi0(y) exp(-i k (y - origin)) dy,
    enforcing the validity half-plane of half-infinite regions (inclusive of
    the real axis), for k a scalar or a 1-D array.

    Row form: with `region` a sequence of m regions, k an (m, n) array and
    `origin` a scalar or m origins, row r of the (m, n) result is the
    transform over region[r] at k[r] about origin[r].  It equals the m
    one-region calls bit for bit, but the Gaussian endpoints of all rows
    share one Faddeeva call.
    """
    if np.ndim(region) == 0:
        a, b = potential.region_bounds(region)
        _gate(a, b, region, k)
        return _hat(ic, k, a, b, origin)
    k = np.asarray(k, dtype=complex)
    if k.ndim != 2 or k.shape[0] != len(region):
        raise ValueError("the row form needs one row of k per region, got k of "
                         "shape {} for {} regions".format(k.shape, len(region)))
    bounds = [potential.region_bounds(r) for r in region]
    for r, (a, b), kr in zip(region, bounds, k):
        _gate(a, b, r, kr)
    origin = np.broadcast_to(np.asarray(origin, dtype=float), len(region))
    if ic.kind == "gaussian":
        a, b = np.array(bounds, dtype=float).T
        return _gauss_hat_piece(ic.amplitude, ic.center, ic.width, ic.momentum,
                                k, a, b, origin)
    return np.array([_tabulated_hat(ic, kr, a, b, o)
                     for kr, (a, b), o in zip(k, bounds, origin.tolist())])


def whole_line_hat(ic, k, origin=0.0):
    """Transform of the initial data over the whole line."""
    return _hat(ic, k, -np.inf, np.inf, origin)


def _hat(ic, k, a, b, origin):
    """Transform of the initial data over [a, b] at k, scalar or array."""
    scalar = np.ndim(k) == 0
    k = np.atleast_1d(np.asarray(k, dtype=complex))
    if ic.kind == "gaussian":
        out = _gauss_hat_piece(ic.amplitude, ic.center, ic.width, ic.momentum,
                               k, a, b, origin)
    else:
        out = _tabulated_hat(ic, k, a, b, origin)
    return complex(out[0]) if scalar else out


def _table_cells(ic, a, b):
    """The table's cells that meet [a, b], clipped to it: (idx, ta, tb).

    idx are cell indices, and ta < tb the ends of each clipped cell relative
    to its left sample; all three are empty when [a, b] misses the table.
    """
    lo, hi = ic.support()
    a, b = max(a, lo), min(b, hi)
    xt = ic.x_table
    i0 = int(np.clip(np.searchsorted(xt, a, side="right") - 1, 0, xt.size - 2))
    i1 = int(np.clip(np.searchsorted(xt, b, side="left") - 1, 0, xt.size - 2))
    idx = np.arange(i0, i1 + 1)
    ta = np.maximum(xt[idx], a) - xt[idx]
    tb = np.minimum(xt[idx + 1], b) - xt[idx]
    keep = tb > ta
    return idx[keep], ta[keep], tb[keep]


# entries of the (k x knots) or (k x cells) arrays of one block of
# _tabulated_hat, which bounds its temporaries whatever the table's size
_TAB_ENTRIES = 4096


def _tabulated_hat(ic, k, a, b, origin):
    """Transform of tabulated data over [a, b] at a 1-D array of k.

    The knot sum of the module docstring, over a, b (clipped to the table)
    and the table's points strictly between them.  The points' jumps are
    built once per table; a and b add two end rows, the derivatives there
    of the cells holding them.  Where |k| times the widest clipped cell
    falls below 0.5 and the knot sum cancels, k = 0 included, each clipped
    cell's cubic is instead expanded about its left end and integrated by
    the power series of _osc_moments, whose criterion this is.

    Each value is summed along its own row, over the knots or cells in a
    fixed order, so it does not depend on the other k of the call.  The k
    go in blocks of at most _TAB_ENTRIES (k, knot) entries.
    """
    out = np.zeros(k.shape, dtype=complex)
    xt = ic.x_table
    a, b = max(a, xt[0]), min(b, xt[-1])
    if not a < b:
        return out
    i = int(xt.searchsorted(a, side="right"))
    j = int(xt.searchsorted(b, side="left"))
    # the derivatives at a and b, in Python scalars: two rows do not pay
    # for numpy's dispatch
    at_a = _cubic_derivatives(ic._cells[i - 1].tolist(), float(a - xt[i - 1]))
    at_b = _cubic_derivatives(ic._cells[j - 1].tolist(), float(b - xt[j - 1]))
    y = np.concatenate(([a], xt[i:j], [b]))
    D = np.concatenate(([at_a], ic._jumps[i:j], [[-d for d in at_b]]))
    widths = y[1:] - y[:-1]
    series = np.abs(k) * widths.max() < 0.5

    def knot_sum(kb):
        s = (1.0 / (1j * kb))[:, None]
        P = ((D[:, 3] * s + D[:, 2]) * s + D[:, 1]) * s + D[:, 0]
        E = np.exp(-1j * kb[:, None] * (y - origin))
        return s[:, 0] * (E * P).sum(axis=1)

    def cell_series(kb):
        # the cubics in the offset from each clipped cell's left end
        c = ic._cells[i - 1:j].copy()
        c[0] = np.array(at_a) / (1.0, 1.0, 2.0, 6.0)
        J = _osc_moments(kb[:, None], 0.0, widths, 3)
        E = np.exp(-1j * kb[:, None] * (y[:-1] - origin))
        return (E * (c[:, 0] * J[0] + c[:, 1] * J[1] + c[:, 2] * J[2]
                     + c[:, 3] * J[3])).sum(axis=1)

    rows = max(1, _TAB_ENTRIES // y.size)
    for route, where in ((knot_sum, ~series), (cell_series, series)):
        kr = k[where]
        if kr.size:
            out[where] = np.concatenate([route(kr[r:r + rows])
                                         for r in range(0, kr.size, rows)])
    return out


def _complex(re, im):
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _mul(a, b):
    """a * b rounded as Python's complex product: each real product and sum
    rounded once.  numpy's vectorised complex product may fuse a product
    into the sum (FMA), which moves the last bit."""
    return _complex(np.real(a) * np.real(b) - np.imag(a) * np.imag(b),
                    np.real(a) * np.imag(b) + np.imag(a) * np.real(b))


def _div(a, b):
    """a / b rounded as Python's complex quotient: Smith's method, dividing
    by the scaled denominator where numpy multiplies by its reciprocal.  b
    is a complex scalar or an array like a; each entry takes the branch its
    own b takes as a scalar."""
    b = np.asarray(b, dtype=complex)
    big = np.abs(b.real) >= np.abs(b.imag)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(big, b.imag / b.real, b.real / b.imag)
        d = np.where(big, b.real + b.imag * r, b.real * r + b.imag)
        return _complex(np.where(big, a.real + a.imag * r, a.real * r + a.imag) / d,
                        np.where(big, a.imag - a.real * r, a.imag * r - a.real) / d)


def free_term(ic, potential, region, x, t, derivative=False):
    """Free evolution of the data restricted to one region.

    F_region(x, t) elementwise over x, region and t, which broadcast
    together (t > 0); a scalar when all three are.  With derivative=True
    returns (F, dF/dx).  The potential only enters through the region
    bounds and the phase exp(-i alpha_region t).  The factors that depend
    on (region, t) alone are taken once per distinct pair in Python
    scalars, and a Gaussian's finite endpoints of every entry share one
    Faddeeva call.  Complex products and quotients are rounded as Python
    rounds complex scalars (_mul, _div), not as numpy's vectorised loops
    do, so every value is bit-identical to a point-by-point evaluation of
    the same formulas with Python complex numbers, and an array gives the
    same bits as its points one at a time.
    """
    x, region, t = np.broadcast_arrays(np.asarray(x, dtype=float),
                                       np.asarray(region), np.asarray(t, dtype=float))
    shape = x.shape
    x, region, t = (np.ravel(v) for v in (x, region, t))
    if not np.all(t > 0.0):
        raise ValueError("free term needs t > 0, got t = {}".format(t[~(t > 0.0)][0]))
    # the distinct (region, t) pairs, and the pair of each entry
    ut, ti = np.unique(t, return_inverse=True)
    ur, ri = np.unique(region, return_inverse=True)
    keys, which = np.unique(ri * ut.size + ti, return_inverse=True)
    pairs = [(int(ur[k // ut.size]), float(ut[k % ut.size])) for k in keys.tolist()]
    bounds = np.array([potential.region_bounds(r) for r, _ in pairs],
                      dtype=float).reshape(-1, 2)
    pref = np.array([np.exp(-1j * potential.level(r) * tp) / np.sqrt(4j * np.pi * tp)
                     for r, tp in pairs])[which]
    if ic.kind == "gaussian":
        val, dval = _free_gauss(ic, x, bounds[which, 0], bounds[which, 1],
                                [tp for _, tp in pairs], which, derivative)
    else:
        val = np.empty(x.shape, dtype=complex)
        dval = np.empty(x.shape, dtype=complex) if derivative else None
        for i, (r, tp) in enumerate(pairs):
            at = which == i
            v, dv = _free_tabulated(ic, x[at], tp, *bounds[i], derivative)
            val[at] = v
            if derivative:
                dval[at] = dv
    out = [_mul(pref, v).reshape(shape) for v in ((val, dval) if derivative else (val,))]
    if not shape:
        out = [complex(v) for v in out]
    return tuple(out) if derivative else out[0]


def _free_gauss(ic, x, a, b, times, which, want_dx):
    # a and b per entry; times holds the time of each distinct (region, t)
    # pair and which gives each entry's pair, whose scalar factors are taken
    # as a single time took them
    c, w, mu, amp = ic.center, ic.width, ic.momentum, ic.amplitude
    t = np.array(times)[which]
    ps = [1.0 / (w * w) - 0.25j / tp for tp in times]
    sqps = [np.sqrt(p) for p in ps]
    p2, p4 = (np.array([f * p for p in ps])[which] for f in (2.0, 4.0))
    sqp = np.array(sqps)[which]
    half = np.array([_SQRT_PI / (2.0 * q) for q in sqps])[which]
    s = 2.0 * c / (w * w) + 1j * (mu - 0.5 * x / t)

    # the finite endpoints in one Faddeeva call; an infinite one contributes
    # its sign and no correction
    ends = np.stack([b, a])
    sgn = np.stack([np.ones(x.shape), -np.ones(x.shape)])
    corr = np.zeros(ends.shape, dtype=complex)
    e = np.zeros(ends.shape, dtype=complex)
    finite = np.isfinite(ends)
    if finite.any():
        y = ends[finite]
        col = np.nonzero(finite)[1]
        q, sc, xc, tc = sqp[col], s[col], x[col], t[col]
        u = q * y - sc / (2.0 * q)
        # the full exponent at a real endpoint, no cancellation; the squares
        # go through libm pow (float_power), as a Python float ** 2 does
        phi = (1j * (0.25 * np.float_power(xc - y, 2.0) / tc)
               - np.float_power((y - c) / w, 2.0) + 1j * mu * y)
        sg = np.where(u.real >= 0.0, 1.0, -1.0)
        ef = np.exp(phi)
        sgn[finite], e[finite] = sg, ef
        corr[finite] = _mul(-sg * ef, faddeeva(1j * sg * u))
    (cb, ca), (corr_b, corr_a), (eb, ea) = sgn, corr, e
    net = cb - ca
    E_tot = 1j * (0.25 * x * x / t) - c * c / (w * w) + _div(_mul(s, s), p4)
    # exp(E_tot) may overflow where the endpoint signs agree and it drops out
    eE = np.zeros(x.shape, dtype=complex)
    m = net != 0.0
    eE[m] = np.exp(E_tot[m])
    m0 = _mul(half, net * eE + corr_b - corr_a)
    m0 = _mul(amp, m0)
    if not want_dx:
        return m0, None
    m1 = (_mul(s, m0) - _mul(amp, eb - ea)) / p2
    dval = 0.5j * (x * m0 - m1) / t
    return m0, dval


def _free_tabulated(ic, x, t, a, b, want_dx):
    idx, ta, tb = _table_cells(ic, a, b)
    if idx.size == 0:
        zero = np.zeros(x.shape, dtype=complex)
        return zero, zero
    xt = ic.x_table
    # one row per x, the cells along the contiguous axis, which each sum
    # below runs over
    X = x[:, None] - xt[idx]
    p = -0.25j / t
    s = -0.5j * X / t
    kappa = 0.25j * X * X / t
    nmax = 4 if want_dx else 3
    M = _gauss_moments(p, s, ta, tb, nmax)
    cells = ic._cells[idx]
    val = np.zeros(x.shape, dtype=complex)
    dval = np.zeros(x.shape, dtype=complex)
    ek = np.exp(kappa)
    for m_idx in range(4):
        val = val + np.sum(ek * cells[:, m_idx] * M[m_idx], axis=1)
        if want_dx:
            dval = dval + np.sum(ek * cells[:, m_idx] *
                                 (X * M[m_idx] - M[m_idx + 1]), axis=1)
    if want_dx:
        dval = 0.5j * dval / t
    return val, dval if want_dx else None
