"""Initial data, half-line transforms, and free-evolution terms.

Conventions used by every solver in the package:

    hat_j(k; origin) = integral over region j of psi0(y) exp(-i k (y - origin)) dy

    F_j(x, t) = exp(-i alpha_j t) * integral over region j of G_t(x - y) psi0(y) dy
    G_t(xi)   = (4 pi i t)^(-1/2) exp(i xi^2 / (4 t))

Transforms over a half-infinite region converge only in one half of the
k-plane: region 1 (unbounded to the left) needs Im k >= 0 and the last
region (unbounded to the right) needs Im k <= 0, boundary included.
Evaluation outside the valid half-plane raises ValueError naming the region.

A Gaussian's transforms and free terms, and the free terms of tabulated
data cell by cell, are all Gaussian moments

    J_m = integral_a^b tau^m exp(-p tau^2 + s tau + e) dtau,

which one kernel (_gauss_moments) integrates in closed form through the
Faddeeva function w(z) = exp(-z^2) erfc(-iz).  Each caller states the
exponent at the saddle and at the finite ends free of cancellation: a
Gaussian's tau is taken from its center, where a free term's saddle
exponent is the whole-line free Gaussian's, and a table cell's from its
left sample, where the saddle exponent of i (x - y)^2 / (4t) is 0.  Every
explicit exponential carries an exponent whose real part is bounded by the
true envelope of the integral (no intermediate overflow).  Every endpoint
needs w only in the closed upper half-plane, where `faddeeva` computes it
in the package:

    |z| >= 8   the Laplace continued fraction in its even form, four levels
               deep (Poppe & Wijers, ACM TOMS 16, 1990);
    |z| <  8   Weideman's rational series with N = 36 terms, summed by
               Horner's rule (SIAM J. Numer. Anal. 31, 1994).

Both stay within 1e-14 of w relatively.  One call serves every finite
endpoint of a transform, or of a stack of transforms (the row form of
`hat_transform`), because each call costs tens of microseconds of numpy
dispatch whatever its size.  Every other step is elementwise numpy
arithmetic, so an array of points gets the bits of its points one at a
time.

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


def _gauss_hat_piece(amp, c, w, mu, k, a, b, origin):
    """Transform of a Gaussian restricted to [a, b], origin-shifted kernel.

    Computes integral_a^b amp exp(-((y-c)/w)^2 + i mu y) exp(-i k (y-origin)) dy
    for a 1-D array of k, or row by row for an (m, n) array of k with m
    values each of a, b and origin.  Endpoints may be -inf or +inf; the
    finite ones of every row go through one Faddeeva call.
    """
    K = np.atleast_2d(np.asarray(k, dtype=complex))
    o, a, b = (np.asarray(v, dtype=float).reshape(-1, 1) for v in (origin, a, b))
    d = mu - K

    # in v = y - c the integrand is amp exp(i mu o) times
    # exp(-(v/w)^2 + i d v + i d (c - o))
    s = 1j * d

    def phi(end):
        v, y = end - c, end - o
        return lambda at: s[at] * y[at] - (v[at] / w) ** 2

    E = s * (c - o) - (0.25 * w * w) * (d * d)
    J0 = _gauss_moments(1.0 / (w * w), s, E, a - c, b - c, phi(a), phi(b), 0)[0]
    return (amp * np.exp(1j * mu * o) * J0).reshape(np.shape(k))


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


def _gauss_moments(p, s, E, ta, tb, phia, phib, nmax):
    """Moments J_m = integral_ta^tb tau^m exp(-p tau^2 + s tau + e) dtau, m = 0..nmax.

    s and E = e + s^2 / (4 p), the exponent at the saddle, are arrays of
    one shape; p (Re p >= 0, p != 0) is a scalar or of that shape too, and
    ta and tb, of one shape, broadcast to it.  An end may be infinite
    where the integrand decays there; ends infinite on some entries only
    vary along the first axis alone, with shape (m,) or (m, 1).
    phia(at) and phib(at) give the exponent -p tau^2 + s tau + e at ta and
    at tb on the entries where that end is finite: `at` is Ellipsis where
    every end is, and otherwise indexes the first axis.  The caller forms
    E and the end exponents without cancellation.

    With u = sqrt(p) tau - s / (2 sqrt(p)) at an end and g = +-1 the sign
    of Re u (of tau at an infinite end),

        exp(E) erf(u) = g exp(E) - g exp(phi) w(i g u),

    w in the closed upper half-plane, and J_0 is sqrt(pi) / (2 sqrt(p))
    times its difference across the ends.  Every finite end shares one
    Faddeeva call, an infinite end contributes its sign and no correction,
    and exp(E) is taken only where the two signs differ (where they agree
    it cancels, and may overflow).  Higher moments follow from

        2 p J_m = (m - 1) J_(m-2) + s J_(m-1) - [tau^(m-1) exp(phi)]_ta^tb,

    the bracket 0 at an infinite end.
    """
    s = np.asarray(s, dtype=complex)
    p = np.asarray(p, dtype=complex)
    sqp = np.sqrt(p)
    h = 0.5 / sqp
    # the ends on a new first axis, the upper first, shaped to broadcast
    # with s; u, g and exp(phi) at the finite ones, all in one pass
    T = np.array((tb, ta), dtype=float)
    T = T.reshape((2,) + (1,) * (s.ndim + 1 - T.ndim) + T.shape[1:])
    finite = np.isfinite(T)
    if finite.all():
        pick = Ellipsis
        u = sqp * T - s * h
        phi = np.stack((phib(pick), phia(pick)))
    else:
        # the finite ends by (end, row), those of tb first
        pick = finite.nonzero()[:2]
        row, nb = pick[1], finite[0].sum()
        q, hq = (sqp[row], h[row]) if sqp.ndim else (sqp, h)
        u = q * T[pick] - s[row] * hq
        phi = np.concatenate((phib(row[:nb]), phia(row[nb:])))
    g = np.where(u.real >= 0.0, 1.0, -1.0)
    e = np.exp(phi)
    corr = g * e * faddeeva(1j * g * u)
    if pick is not Ellipsis:
        # back on (2,) + s.shape, where an infinite end keeps the sign of
        # tau and adds no correction
        at = g, corr
        g = np.zeros((2,) + s.shape) + np.sign(T)
        corr = np.zeros(g.shape, dtype=complex)
        g[pick], corr[pick] = at
    net = g[0] - g[1]
    live = net != 0.0
    J = corr[1] - corr[0]
    J[live] += net[live] * np.exp(E[live])
    out = [(_SQRT_PI / (2.0 * sqp)) * J]
    for m_idx in range(1, nmax + 1):
        # tau^(m-1) exp(phi) at each end, 0 at an infinite one
        bdry = np.zeros((2,) + s.shape, dtype=complex)
        bdry[pick] = T[pick] ** (m_idx - 1) * e
        prev = (m_idx - 1) * out[m_idx - 2] if m_idx > 1 else 0.0
        out.append((prev + s * out[m_idx - 1] - (bdry[0] - bdry[1])) / (2.0 * p))
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
            for name, value in zip(("amplitude", "center", "width", "momentum"),
                                   (amplitude, center, width, momentum)):
                if isinstance(value, (bool, np.bool_)):
                    raise ValueError("{} must be a number, got {!r}".format(name, value))
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

        Both take their Gaussian moments in tau = y - center: they form
        p = 1/width^2 (less i/(4t) in a free term), which 4/width^2 bounds;
        the end exponent ((y - center)/width)^2, which at the interface
        y = 0 is (center/width)^2; and (momentum - k)^2 width^2 / 4, and
        momentum^2 t in the free term's saddle exponent
        i momentum (x - momentum t) - (x - center - 2 momentum t)^2 /
        (width^2 + 4 i t).  The solvers multiply the transforms, up to the
        data's L1 norm |amplitude| width sqrt(pi) in size, by factors up to
        about 1e8 on the contours (kappa^2 up to max_T^2 = 1.6e7, times the
        corner legs' growth within e^(9/4)).  Each bound is checked on the
        quantity as the code forms it (numpy float64, which overflows to inf
        quietly).
        """
        amp, c, w, mu = (np.float64(v) for v in (abs(self.amplitude), self.center,
                                                 self.width, self.momentum))
        with np.errstate(all="ignore"):
            w2 = w * w
            checks = (
                ("width", 4.0 / w2, "4/width^2"),
                ("center", (c / w) ** 2, "(center/width)^2"),
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
    share one Faddeeva call.  One region is the row form with one row.
    """
    if np.ndim(region) == 0:
        a, b = potential.region_bounds(region)
        _gate(a, b, region, k)
        return _hat_rows(ic, k, [(a, b)], origin)
    k = np.asarray(k, dtype=complex)
    if k.ndim != 2 or k.shape[0] != len(region):
        raise ValueError("the row form needs one row of k per region, got k of "
                         "shape {} for {} regions".format(k.shape, len(region)))
    bounds = [potential.region_bounds(r) for r in region]
    for r, (a, b), kr in zip(region, bounds, k):
        _gate(a, b, r, kr)
    return _hat_rows(ic, k, bounds, origin)


def whole_line_hat(ic, k, origin=0.0):
    """Transform of the initial data over the whole line."""
    return _hat_rows(ic, k, [(-np.inf, np.inf)], origin)


def _hat_rows(ic, k, bounds, origin):
    """The row form of hat_transform, ungated: row r of k over bounds[r] =
    (a, b), about origin (a scalar or one per row).  A scalar or 1-D k is
    one row and keeps its shape; a scalar k returns a complex."""
    k = np.asarray(k, dtype=complex)
    K = k.reshape(len(bounds), -1)
    origin = np.zeros(len(bounds)) + origin
    if ic.kind == "gaussian":
        a, b = np.array(bounds, dtype=float).T
        out = _gauss_hat_piece(ic.amplitude, ic.center, ic.width, ic.momentum,
                               K, a, b, origin)
    else:
        out = np.array([_tabulated_hat(ic, kr, a, b, o)
                        for kr, (a, b), o in zip(K, bounds, origin.tolist())])
    out = out.reshape(k.shape)
    return complex(out) if out.ndim == 0 else out


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


def free_term(ic, potential, region, x, t, derivative=False):
    """Free evolution of the data restricted to one region.

    F_region(x, t) elementwise over x, region and t, which broadcast
    together (t > 0); a scalar when all three are.  With derivative=True
    returns (F, dF/dx).  The potential only enters through the region
    bounds and the phase exp(-i alpha_region t).  The factors that depend
    on (region, t) alone are taken once per distinct pair, and a
    Gaussian's finite endpoints of every entry share one Faddeeva call.
    Every other step is elementwise, so an array gives the same bits as
    its points one at a time, and one call over every (x, region, t) the
    bits of one call per (region, t) pair.
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
        val, dval = _free_gauss(ic, x, bounds[which, 0], bounds[which, 1], t, derivative)
    else:
        val = np.empty(x.shape, dtype=complex)
        dval = np.empty(x.shape, dtype=complex) if derivative else None
        for i, (r, tp) in enumerate(pairs):
            at = which == i
            v, dv = _free_tabulated(ic, x[at], tp, *bounds[i], derivative)
            val[at] = v
            if derivative:
                dval[at] = dv
    out = [(pref * v).reshape(shape) for v in ((val, dval) if derivative else (val,))]
    if not shape:
        out = [complex(v) for v in out]
    return tuple(out) if derivative else out[0]


def _free_gauss(ic, x, a, b, t, want_dx):
    # entrywise over x, a, b and t; in tau = y - c the exponent is
    # i (X - tau)^2 / (4t) - (tau/w)^2 + i mu (tau + c), X = x - c, whose
    # saddle value E is the whole-line free Gaussian's exponent
    c, w, mu = ic.center, ic.width, ic.momentum
    X = x - c

    def phi(end):
        return lambda at: (1j * (0.25 * (x[at] - end[at]) ** 2 / t[at])
                           - ((end[at] - c) / w) ** 2 + 1j * mu * end[at])

    E = 1j * mu * (x - mu * t) - (X - 2.0 * mu * t) ** 2 / (w * w + 4j * t)
    J = _gauss_moments(1.0 / (w * w) - 0.25j / t, 1j * (mu - 0.5 * X / t), E,
                       a - c, b - c, phi(a), phi(b), 1 if want_dx else 0)
    val = ic.amplitude * J[0]
    if not want_dx:
        return val, None
    return val, ic.amplitude * (0.5j * (X * J[0] - J[1]) / t)


def _free_tabulated(ic, x, t, a, b, want_dx):
    idx, ta, tb = _table_cells(ic, a, b)
    if idx.size == 0:
        zero = np.zeros(x.shape, dtype=complex)
        return zero, zero
    xt = ic.x_table
    # one row per x, the cells along the contiguous axis, which each sum
    # below runs over; in each cell's own tau the exponent i (X - tau)^2 /
    # (4t) has its saddle at tau = X, where it is 0
    X = x[:, None] - xt[idx]

    def phi(end):
        return lambda at: 0.25j * (X - end)[at] ** 2 / t

    nmax = 4 if want_dx else 3
    M = _gauss_moments(-0.25j / t, -0.5j * X / t, np.zeros(X.shape), ta, tb, phi(ta), phi(tb),
                       nmax)
    cells = ic._cells[idx]
    val = np.zeros(x.shape, dtype=complex)
    dval = np.zeros(x.shape, dtype=complex)
    for m_idx in range(4):
        val = val + np.sum(cells[:, m_idx] * M[m_idx], axis=1)
        if want_dx:
            dval = dval + np.sum(cells[:, m_idx] * (X * M[m_idx] - M[m_idx + 1]), axis=1)
    if want_dx:
        dval = 0.5j * dval / t
    return val, dval if want_dx else None
