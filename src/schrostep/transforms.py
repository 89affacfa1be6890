"""Initial data, half-line transforms, and free-evolution terms.

Conventions used by every solver in the package:

    hat_j(k; origin) = integral over region j of psi0(y) exp(-i k (y - origin)) dy

    F_j(x, t) = exp(-i alpha_j t) * integral over region j of G_t(x - y) psi0(y) dy
    G_t(xi)   = (4 pi i t)^(-1/2) exp(i xi^2 / (4 t))

Transforms over a half-infinite region converge only in one half of the
k-plane: region 1 (unbounded to the left) needs Im k >= 0 and the last
region (unbounded to the right) needs Im k <= 0, boundary included.
Evaluation outside the valid half-plane raises ValueError naming the region.

Gaussian data is integrated in closed form through the scaled complementary
error function w(z) = exp(-z^2) erfc(-iz), combined so that every explicit
exponential carries an exponent whose real part is bounded by the true
envelope of the integral (no intermediate overflow).  Tabulated data is
interpolated by a local cubic per cell and integrated cell by cell against
the oscillatory kernel exactly.
"""

import numpy as np
from scipy.special import wofz

__all__ = ["InitialCondition", "hat_transform", "free_term", "whole_line_hat"]

_SQRT_PI = 1.7724538509055159


def _erf_endpoint(u, phi):
    """Stable endpoint data for exp(E)*erf(u) style formulas.

    Returns (coeff, corr) so that exp(E)*erf(u) = coeff*exp(E) + corr with
    corr = -coeff * exp(phi) * w(i*coeff*u) and phi = E - u^2 supplied by the
    caller in a cancellation-free form.
    """
    u = np.asarray(u, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    coeff = np.where(u.real >= 0.0, 1.0, -1.0)
    corr = -coeff * np.exp(phi) * wofz(1j * coeff * u)
    return coeff, corr


def _gauss_hat_piece(amp, c, w, mu, k, a, b, origin):
    """Transform of a Gaussian restricted to [a, b], origin-shifted kernel.

    Computes integral_a^b amp exp(-((y-c)/w)^2 + i mu y) exp(-i k (y-origin)) dy
    for an array of k.  Endpoints may be -inf or +inf.
    """
    k = np.asarray(k, dtype=complex)
    d = mu - k
    cp = c - origin
    E = 1j * d * cp - 0.25 * d * d * w * w

    def endpoint(y):
        if np.isinf(y):
            s = 1.0 if y > 0 else -1.0
            return np.full(k.shape, s), np.zeros(k.shape, dtype=complex)
        tau = y - origin
        u = (tau - cp) / w - 0.5j * d * w
        phi = -((tau - cp) / w) ** 2 + 1j * d * tau
        return _erf_endpoint(u, phi)

    cb, corr_b = endpoint(b)
    ca, corr_a = endpoint(a)
    net = cb - ca
    eE = np.zeros(k.shape, dtype=complex)
    m = net != 0.0
    if np.any(m):
        eE[m] = np.exp(E[m])
    val = 0.5 * _SQRT_PI * w * (net * eE + corr_b - corr_a)
    return amp * np.exp(1j * mu * origin) * val


def _osc_moments(k, ta, tb, nmax):
    """Moments J_m = integral_ta^tb tau^m exp(-i k tau) dtau for m = 0..nmax.

    ta, tb, k broadcast together.  Every entry takes the stable upward
    recursion first; the entries where |k| max(|ta|, |tb|) < 0.5, where the
    recursion cancels, are then overwritten by the 22-term power series

        J_m = sum_j z^j (tb^(m+j+1) - ta^(m+j+1)) / (j! (m+j+1)),  z = -i k.

    The power differences are tabulated once per (ta, tb) pair, with the
    same scalar integer exponents as an all-entries sum, and gathered only
    at those entries; with none (every node of the d4 and quadrant paths,
    whose |k| stays above the arc radius) the series is skipped.  The terms
    are summed in the same order as over the whole grid, and elementwise
    numpy arithmetic does not depend on the array shape, so the moments are
    bit-identical to evaluating the series everywhere and selecting.
    """
    k = np.asarray(k, dtype=complex)
    ta = np.asarray(ta, dtype=float)
    tb = np.asarray(tb, dtype=float)
    z = -1j * k
    span = np.maximum(np.abs(ta), np.abs(tb))
    small = np.abs(z) * span < 0.5

    zs = np.where(small, 1.0, z)
    ea = np.exp(zs * ta)
    eb = np.exp(zs * tb)
    out = [(eb - ea) / zs]
    for m_idx in range(1, nmax + 1):
        out.append((tb ** m_idx * eb - ta ** m_idx * ea - m_idx * out[-1]) / zs)
    if not np.any(small):
        return out

    zg = np.broadcast_to(z, small.shape)[small]
    dpow = [np.broadcast_to(tb ** p - ta ** p, small.shape)[small]
            for p in range(1, nmax + 23)]
    for m_idx in range(nmax + 1):
        acc = np.zeros(zg.shape, dtype=complex)
        zp = np.ones_like(acc)
        fact = 1.0
        for j in range(22):
            acc = acc + zp * dpow[m_idx + j] / (fact * (m_idx + j + 1))
            zp = zp * zg
            fact *= (j + 1)
        out[m_idx] = np.asarray(out[m_idx])
        out[m_idx][small] = acc
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

    def endpoint(tau):
        u = sqp * tau - s / (2.0 * sqp)
        phi = -p * tau * tau + s * tau
        c, corr = _erf_endpoint(u, phi)
        return c, corr, np.exp(phi)

    cb, corr_b, phib = endpoint(tb)
    ca, corr_a, phia = endpoint(ta)
    m0 = (_SQRT_PI / (2.0 * sqp)) * ((cb - ca) * np.exp(E) + corr_b - corr_a)
    out = [m0]
    if nmax >= 1:
        out.append((s * out[0] - (phib - phia)) / (2.0 * p))
    for m_idx in range(2, nmax + 1):
        bdry = tb ** (m_idx - 1) * phib - ta ** (m_idx - 1) * phia
        out.append(((m_idx - 1) * out[m_idx - 2] + s * out[m_idx - 1] - bdry) / (2.0 * p))
    return out


class InitialCondition:
    """Initial wave packet: a (modulated) Gaussian or tabulated samples.

    Gaussian form: amplitude * exp(-((x-center)/width)^2) * exp(i momentum x).
    Tabulated form: strictly increasing sample points with complex values,
    interpolated by a local cubic in each cell and treated as zero outside
    the table.
    """

    def __init__(self, kind, amplitude=1.0, center=0.0, width=1.0, momentum=0.0,
                 x_table=None, values_table=None):
        self.kind = kind
        if kind == "gaussian":
            if not width > 0.0:
                raise ValueError("gaussian width must be positive, got {}".format(width))
            self.amplitude = complex(amplitude)
            self.center = float(center)
            self.width = float(width)
            self.momentum = float(momentum)
        elif kind == "tabulated":
            x = np.asarray(x_table, dtype=float)
            v = np.asarray(values_table, dtype=complex)
            if x.ndim != 1 or x.size < 4:
                raise ValueError("tabulated data needs at least 4 sample points")
            if v.shape != x.shape:
                raise ValueError("sample points and values differ in length")
            if np.any(np.diff(x) <= 0.0):
                raise ValueError("sample points must be strictly increasing")
            self.x_table = x
            self.values_table = v
            self._cells = self._fit_cells(x, v)
        else:
            raise ValueError("unknown initial condition kind {!r}".format(kind))

    @classmethod
    def gaussian(cls, amplitude=1.0, center=0.0, width=1.0, momentum=0.0):
        return cls("gaussian", amplitude=amplitude, center=center, width=width,
                   momentum=momentum)

    @classmethod
    def tabulated(cls, x, values):
        return cls("tabulated", x_table=x, values_table=values)

    @staticmethod
    def _fit_cells(x, v):
        # cubic through the 4-point stencil around each cell, coefficients in
        # the local variable tau = y - x[i]
        n = x.size - 1
        coeffs = np.zeros((n, 4), dtype=complex)
        for i in range(n):
            j0 = min(max(i - 1, 0), x.size - 4)
            idx = np.arange(j0, j0 + 4)
            tau = x[idx] - x[i]
            V = np.vander(tau, 4, increasing=True)
            coeffs[i] = np.linalg.solve(V, v[idx])
        return coeffs

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "gaussian":
            z = (x - self.center) / self.width
            return self.amplitude * np.exp(-z * z + 1j * self.momentum * x)
        xt = self.x_table
        out = np.zeros(x.shape, dtype=complex)
        inside = (x >= xt[0]) & (x <= xt[-1])
        idx = np.clip(np.searchsorted(xt, x, side="right") - 1, 0, xt.size - 2)
        tau = x - xt[idx]
        c = self._cells[idx]
        val = c[..., 0] + tau * (c[..., 1] + tau * (c[..., 2] + tau * c[..., 3]))
        out[inside] = val[inside]
        return out

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "gaussian":
            z = (x - self.center) / self.width
            return (1j * self.momentum - 2.0 * z / self.width) * \
                self.amplitude * np.exp(-z * z + 1j * self.momentum * x)
        xt = self.x_table
        out = np.zeros(x.shape, dtype=complex)
        inside = (x >= xt[0]) & (x <= xt[-1])
        idx = np.clip(np.searchsorted(xt, x, side="right") - 1, 0, xt.size - 2)
        tau = x - xt[idx]
        c = self._cells[idx]
        val = c[..., 1] + tau * (2.0 * c[..., 2] + 3.0 * tau * c[..., 3])
        out[inside] = val[inside]
        return out

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
    the real axis).
    """
    scalar = np.ndim(k) == 0
    a, b = potential.region_bounds(region)
    _gate(a, b, region, k)
    k = np.atleast_1d(np.asarray(k, dtype=complex))
    if ic.kind == "gaussian":
        out = _gauss_hat_piece(ic.amplitude, ic.center, ic.width, ic.momentum,
                               k, a, b, origin)
    else:
        lo, hi = ic.support()
        a_eff, b_eff = max(a, lo), min(b, hi)
        out = np.zeros(k.shape, dtype=complex)
        if a_eff < b_eff:
            out = _tabulated_hat(ic, k, a_eff, b_eff, origin)
    return complex(out[0]) if scalar else out


def whole_line_hat(ic, k, origin=0.0):
    """Transform of the initial data over the whole line."""
    scalar = np.ndim(k) == 0
    k = np.atleast_1d(np.asarray(k, dtype=complex))
    if ic.kind == "gaussian":
        out = _gauss_hat_piece(ic.amplitude, ic.center, ic.width, ic.momentum,
                               k, -np.inf, np.inf, origin)
    else:
        lo, hi = ic.support()
        out = _tabulated_hat(ic, k, lo, hi, origin)
    return complex(out[0]) if scalar else out


# k values per block of _tabulated_hat, which keeps its (cells x k)
# temporaries small whatever the batch size.
_TAB_BLOCK = 128


def _tabulated_hat(ic, k, a, b, origin):
    if k.size > _TAB_BLOCK:
        # near-equal blocks, none of one point: a one-point block would sum
        # its cells in a different order and change the last bits
        return np.concatenate([_tabulated_hat(ic, kb, a, b, origin) for kb in
                               np.array_split(k, -(-k.size // _TAB_BLOCK))])
    xt = ic.x_table
    i0 = int(np.clip(np.searchsorted(xt, a, side="right") - 1, 0, xt.size - 2))
    i1 = int(np.clip(np.searchsorted(xt, b, side="left") - 1, 0, xt.size - 2))
    idx = np.arange(i0, i1 + 1)
    ta = np.maximum(xt[idx], a) - xt[idx]
    tb = np.minimum(xt[idx + 1], b) - xt[idx]
    keep = tb > ta
    idx, ta, tb = idx[keep], ta[keep], tb[keep]
    if idx.size == 0:
        return np.zeros(k.shape, dtype=complex)
    kc = k[None, :]
    J = _osc_moments(kc, ta[:, None], tb[:, None], 3)
    pref = np.exp(-1j * kc * (xt[idx][:, None] - origin))
    cells = ic._cells[idx]
    total = np.zeros(k.shape, dtype=complex)
    for m_idx in range(4):
        total = total + np.sum(pref * cells[:, m_idx][:, None] * J[m_idx], axis=0)
    return total


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
    """a / b for a complex scalar b, rounded as Python's complex quotient:
    Smith's method, dividing by the scaled denominator where numpy
    multiplies by its reciprocal."""
    b = complex(b)
    if abs(b.real) >= abs(b.imag):
        r = b.imag / b.real
        d = b.real + b.imag * r
        return _complex((a.real + a.imag * r) / d, (a.imag - a.real * r) / d)
    r = b.real / b.imag
    d = b.real * r + b.imag
    return _complex((a.real * r + a.imag) / d, (a.imag * r - a.real) / d)


def free_term(ic, potential, region, x, t, derivative=False):
    """Free evolution of the data restricted to one region.

    F_region(x, t) for scalar or array x and scalar t > 0; with
    derivative=True returns (F, dF/dx).  The potential only enters through
    the region bounds and the phase exp(-i alpha_region t).  Complex
    products and quotients are rounded as Python rounds complex scalars
    (_mul, _div), not as numpy's vectorised loops do, so every value is
    bit-identical to a point-by-point evaluation of the same formulas with
    Python complex numbers, and an array gives the same bits as its points
    one at a time.
    """
    if not t > 0.0:
        raise ValueError("free term needs t > 0, got t = {}".format(t))
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    a, b = potential.region_bounds(region)
    alpha = potential.level(region)
    pref = np.exp(-1j * alpha * t) / np.sqrt(4j * np.pi * t)
    if ic.kind == "gaussian":
        val, dval = _free_gauss(ic, x, t, a, b, derivative)
    else:
        val, dval = _free_tabulated(ic, x, t, a, b, derivative)
    out = [_mul(pref, v) for v in ((val, dval) if derivative else (val,))]
    if scalar:
        out = [complex(v[0]) for v in out]
    return tuple(out) if derivative else out[0]


def _free_gauss(ic, x, t, a, b, want_dx):
    c, w, mu, amp = ic.center, ic.width, ic.momentum, ic.amplitude
    p = 1.0 / (w * w) - 0.25j / t
    s = 2.0 * c / (w * w) + 1j * (mu - 0.5 * x / t)
    sqp = np.sqrt(p)

    def endpoint(y):
        if np.isinf(y):
            return (1.0 if y > 0 else -1.0), 0.0j, 0.0j
        u = sqp * y - s / (2.0 * sqp)
        # the full exponent at a real endpoint, no cancellation; the square
        # goes through libm pow (float_power), as a Python float ** 2 does
        phi = 1j * (0.25 * np.float_power(x - y, 2.0) / t) \
            - ((y - c) / w) ** 2 + 1j * mu * y
        sgn = np.where(u.real >= 0.0, 1.0, -1.0)
        e = np.exp(phi)
        return sgn, _mul(-sgn * e, wofz(1j * sgn * u)), e

    cb, corr_b, eb = endpoint(b)
    ca, corr_a, ea = endpoint(a)
    net = cb - ca
    E_tot = 1j * (0.25 * x * x / t) - c * c / (w * w) + _div(_mul(s, s), 4.0 * p)
    # exp(E_tot) may overflow where the endpoint signs agree and it drops out
    eE = np.zeros(x.shape, dtype=complex)
    m = net != 0.0
    eE[m] = np.exp(E_tot[m])
    m0 = _mul(_SQRT_PI / (2.0 * sqp), net * eE + corr_b - corr_a)
    m0 = _mul(amp, m0)
    if not want_dx:
        return m0, None
    m1 = (_mul(s, m0) - _mul(amp, eb - ea)) / (2.0 * p)
    dval = 0.5j * (x * m0 - m1) / t
    return m0, dval


def _free_tabulated(ic, x, t, a, b, want_dx):
    lo, hi = ic.support()
    a_eff, b_eff = max(a, lo), min(b, hi)
    if not a_eff < b_eff:
        zero = np.zeros(x.shape, dtype=complex)
        return zero, zero
    xt = ic.x_table
    i0 = int(np.clip(np.searchsorted(xt, a_eff, side="right") - 1, 0, xt.size - 2))
    i1 = int(np.clip(np.searchsorted(xt, b_eff, side="left") - 1, 0, xt.size - 2))
    idx = np.arange(i0, i1 + 1)
    ta = np.maximum(xt[idx], a_eff) - xt[idx]
    tb = np.minimum(xt[idx + 1], b_eff) - xt[idx]
    keep = tb > ta
    idx, ta, tb = idx[keep], ta[keep], tb[keep]
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
