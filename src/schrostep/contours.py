"""Oriented contour paths in the complex plane and quadrature along them.

Two path builders serve every solver.  rotated_boundary gives the boundary
of a quarter-plane sector: two straight legs, one tilted by delta into a
decay sector, joined by a quarter-circle arc of radius R and traversed with
the sector interior on the left.  deform_to_real_line replaces a sector
boundary by the real line (as a principal value) plus contributions hugging
a branch cut.  Neither path touches a branch cut: the arc radius must clear
sqrt(2 Lambda), and the straight legs run through cut-free open sectors.

The corner variant of rotated_boundary keeps the arc only inside the decay
sector.  It crosses the quadrant where the quadratic phase grows on straight
legs through points of the hyperbola p q = c, with kappa = p e + q f in the
quadrant's own axis directions e and f (exact constants such as 1 and -1j),
so |exp(+-i kappa^2 t)| = exp(2 p q t).  With c = 1/t and neighbouring
points in the ratio rho <= 2, that factor stays within
exp((1 + rho)^2 / (2 rho)) <= exp(9/4) (about e^2.1 for the (1, 2) step at
t = 4), where the arc reaches exp(R^2 t) = e^25.

Quadrature is adaptive Gauss-Kronrod 7-15 with worst-panel-first bisection.
The caller's integrand data are evaluated once per node, in batches: when
the refinement needs children nobody has evaluated yet, it runs the loop
ahead on the errors it knows and evaluates the children of up to 64 panels
that loop will split; legs sharing a tag share calls of at most 480 nodes.
The bisection itself replays the one-panel-at-a-time loop exactly (heap
order, error updates, stopping rules), so the panels, nodes and results are
bit-identical to it; speculation only decides what is evaluated when.
The tables of several integrands on one path (the terms of a solver call
that ended on one truncation rung) may be refined over one PanelStore:
each span is evaluated once, nodes and weights once, with the columns and
panel errors of every owner whose table is still to be built, and each
owner replays its own loop on its own errors, so every table is the one
built alone, bit for bit.

The quadrature weights of a path carry its phase exp(i rate z^2), so the
integrand sampled at the nodes leaves the phase out.  A path has one rate
per time of a call (ContourPath.rates), and one set of nodes serves them
all: only the weights depend on the rate.  A chirp leg (Leg.chirp) is an
axis ray parametrised by v = z^2 / e^2, so that the phase is linear in the
parameter; its panels take Kronrod and Gauss weights exact for a
polynomial times that phase (Filon-type quadrature, Iserles & Norsett,
Proc. R. Soc. A 461, 2005), one row per rate, and need only the amplitude
resolved, however many periods of the phase they span.  Other legs take the
phase at the nodes: the first rate's, times exp(i (rate - rates[0]) z^2)
for each other rate.  Either way every rate is one more array axis, with
no loop over the rates.  A panel is refined until it converges at every rate,
and a finished table keeps the weights of every rate that refinement made.

table_integral is the one summation over a finished table.  It sums
W exp(i C X) for a whole vector of X in one pass over the table: every
rate of the table times every column of a stack W is one column of the
stack it sums, so the phases are built once for all of them.  It runs in
tiles of at most 2^12 complex entries, and builds the phases of points on
a uniform lattice from two small exp tables instead of one exp per
(X, node) pair.  Lattice points come in 16-point groups, one per coarse
point, and a batch of groups rides on the column axis of one product per
panel, as many groups as keep each temporary within the same 2^12
entries.  Where every X is 0 (an x-free stack) every phase is 1, and each
column is summed elementwise, with no product.
Every sum runs in a fixed order, so repeated runs give bit-identical
results.
"""

import functools
import heapq
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Leg",
    "ContourPath",
    "QuadratureError",
    "rotated_boundary",
    "deform_to_real_line",
    "build_node_table",
    "table_integral",
    "NodeTable",
    "PanelStore",
]

# Gauss-Kronrod 7-15 on [-1, 1].  Nodes and weights are the standard
# QUADPACK constants to full double precision; the Gauss-7 rule lives on
# the odd-indexed nodes.
_XK_HALF = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WK_HALF = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG_HALF = np.array([
    0.0,
    0.129484966168869693270611432679082,
    0.0,
    0.279705391489276667901467771423780,
    0.0,
    0.381830050505118944950369775488975,
    0.0,
    0.417959183673469387755102040816327,
])

_XK = np.concatenate([-_XK_HALF[:-1], [0.0], _XK_HALF[:-1][::-1]])
_WK = np.concatenate([_WK_HALF[:-1], [_WK_HALF[-1]], _WK_HALF[:-1][::-1]])
_WG = np.concatenate([_WG_HALF[:-1], [_WG_HALF[-1]], _WG_HALF[:-1][::-1]])
_GAUSS = _WG != 0.0
_WKG = np.stack((_WK, _WG))


def _legendre(x, n):
    """P_0 .. P_{n-1} at the points x, one row per degree."""
    P = np.empty((n, x.size))
    P[0] = 1.0
    P[1] = x
    for k in range(1, n - 1):
        P[k + 1] = ((2 * k + 1) * x * P[k] - k * P[k - 1]) / (k + 1)
    return P


# A rule exact for P_0 .. P_{m-1} times exp(i omega xi) has the weights
# inv(P) mu, with P the Legendre values at its m nodes (condition numbers
# 6.4 for the Kronrod and 4.2 for the Gauss nodes) and mu the moments.
_PK_INV = np.linalg.inv(_legendre(_XK, 15))
_PG_INV = np.linalg.inv(_legendre(_XK[_GAUSS], 7))


def _spherical_j(x):
    """Spherical Bessel functions j_0 .. j_14 at x >= 0, to a few ulps.

    A power series up to x = 1, Miller's downward recurrence from order 50
    normalised by sum (2n + 1) j_n^2 = 1 below x = 16, and the upward
    recurrence from sin and cos above, where it is stable for n < x.
    """
    if x <= 1.0:
        out = np.empty(15)
        lead = 1.0
        for n in range(15):
            term = total = 1.0
            for k in range(1, 20):
                term *= -0.5 * x * x / (k * (2 * n + 2 * k + 1))
                total += term
            out[n] = lead * total
            lead *= x / (2 * n + 3)
        return out
    s, c = np.sin(x), np.cos(x)
    j0, j1 = s / x, s / (x * x) - c / x
    if x >= 16.0:
        out = [j0, j1]
        for n in range(1, 14):
            out.append((2 * n + 1) / x * out[n] - out[n - 1])
        return np.array(out)
    f = [0.0] * 52
    f[50] = 1.0
    for n in range(50, 0, -1):
        f[n - 1] = (2 * n + 1) / x * f[n] - f[n + 1]
    f = np.array(f[:51])
    scale = 1.0 / np.sqrt(np.sum((2.0 * np.arange(51) + 1.0) * f * f))
    ref, got = (j0, f[0]) if abs(j0) >= abs(j1) else (j1, f[1])
    return f[:15] * np.copysign(scale, ref * got)


@functools.lru_cache(maxsize=2048)
def _chirp_row(omega):
    """(wk, wg) of _chirp_weights at one omega, read-only.

    Bisection leaves a table few distinct panel widths, so the rows recur
    for every rate of its path; the cache is bounded because omega changes
    with every t and T.  A call over 20 times on a three-jump profile
    computes about 1,700 rows, under 300 per term, and finds the rest here.
    """
    if omega == 0.0:
        wk, wg = _WK.astype(complex), _WG.astype(complex)
    else:
        mu = 2.0 * 1j ** np.arange(15) * _spherical_j(abs(omega))
        if omega < 0.0:
            mu = mu.conj()
        wk = _PK_INV @ mu
        wg = np.zeros(15, dtype=complex)
        wg[_GAUSS] = _PG_INV @ mu[:7]
    wk.flags.writeable = wg.flags.writeable = False
    return wk, wg


def _chirp_weights(omega):
    """Kronrod and Gauss weights on [-1, 1] for the phase exp(i omega xi).

    Returns (wk, wg), one row of 15 per omega: sum_k wk_k p(xi_k) is the
    integral of p(xi) exp(i omega xi) over [-1, 1] for every polynomial p
    of degree up to 14, and sum_k wg_k p(xi_k) for degree up to 6, with wg
    zero off the Gauss nodes.  The Legendre moments are 2 i^n j_n(omega)
    (their conjugates for omega < 0).  omega = 0 gives _WK and _WG.
    """
    rows = [_chirp_row(w) for w in np.asarray(omega, dtype=float).ravel().tolist()]
    return (np.array([wk for wk, _ in rows]).reshape(-1, 15),
            np.array([wg for _, wg in rows]).reshape(-1, 15))


class QuadratureError(RuntimeError):
    """Adaptive refinement ran out of budget without meeting the tolerance."""

    def __init__(self, message, leg_index=None, leg_label=""):
        self.leg_index = leg_index
        self.leg_label = leg_label
        super().__init__(message)


@dataclass
class Leg:
    """One smooth piece of a contour.

    kind 'line'  straight z0 -> z1
    kind 'arc'   radius * exp(i theta), theta from th0 to th1, centred at 0
    kind 'pv'    principal-value pass through `center` along the real
                 direction, half-width `half`; integrated as the symmetric
                 fold integral_0^half [f(c+u) + f(c-u)] du
    kind 'chirp' the axis ray z0 -> z1 = r z0 (r > 1, z0 on a real or
                 imaginary half-axis e), parametrised by v = (z / e)^2 from
                 |z0|^2 to |z1|^2: z^2 = e^2 v is linear in the parameter,
                 and the path's phase exp(i rate z^2) is the pure phase
                 exp(i rate e^2 v), which its panel weights carry exactly
                 (_chirp_weights).

    `splits` lists parameter values in (0, 1) where the initial panelling
    must break (branch points, cut endpoints, the pieces of a long chirp
    leg).  `tag` marks legs that need a special integrand
    ('cut-difference'); ordinary legs carry an empty tag.
    """

    kind: str
    z0: complex = 0.0
    z1: complex = 0.0
    radius: float = 0.0
    th0: float = 0.0
    th1: float = 0.0
    center: float = 0.0
    half: float = 0.0
    label: str = ""
    tag: str = ""
    splits: tuple = ()

    @classmethod
    def line(cls, z0, z1, label="line", tag="", splits=()):
        if z0 == z1:
            raise ValueError("degenerate line leg at {}".format(z0))
        return cls(kind="line", z0=complex(z0), z1=complex(z1), label=label,
                   tag=tag, splits=tuple(splits))

    @classmethod
    def arc(cls, radius, th0, th1, label="arc", tag="", splits=()):
        if radius <= 0.0:
            raise ValueError("arc radius must be positive, got {}".format(radius))
        if th0 == th1:
            raise ValueError("degenerate arc")
        return cls(kind="arc", radius=float(radius), th0=float(th0),
                   th1=float(th1), label=label, tag=tag, splits=tuple(splits))

    @classmethod
    def pv(cls, center, half, label="principal value leg", tag="", splits=()):
        if half <= 0.0:
            raise ValueError("principal value half-width must be positive")
        return cls(kind="pv", center=float(center), half=float(half),
                   label=label, tag=tag, splits=tuple(splits))

    @classmethod
    def chirp(cls, z0, z1, label="chirp leg", tag="", splits=()):
        z0, z1 = complex(z0), complex(z1)
        e = z1 / abs(z1) if z1 != 0.0 else 0.0
        if e not in (1.0, -1.0, 1j, -1j) or z0 != abs(z0) * e \
                or not 0.0 < abs(z0) < abs(z1):
            raise ValueError("a chirp leg runs outward along a real or imaginary "
                             "half-axis, got {} -> {}".format(z0, z1))
        return cls(kind="chirp", z0=z0, z1=z1, label=label, tag=tag,
                   splits=tuple(splits))

    def start(self):
        if self.kind in ("line", "chirp"):
            return self.z0
        if self.kind == "arc":
            return self.radius * np.exp(1j * self.th0)
        return complex(self.center - self.half)

    def end(self):
        if self.kind in ("line", "chirp"):
            return self.z1
        if self.kind == "arc":
            return self.radius * np.exp(1j * self.th1)
        return complex(self.center + self.half)

    def _v(self):
        """(e, v at z0, v at z1) of a chirp leg, z = e sqrt(v)."""
        return self.z1 / abs(self.z1), abs(self.z0) ** 2, abs(self.z1) ** 2

    def point(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "line":
            return self.z0 + s * (self.z1 - self.z0)
        if self.kind == "arc":
            th = self.th0 + s * (self.th1 - self.th0)
            return self.radius * np.exp(1j * th)
        if self.kind == "chirp":
            e, v0, v1 = self._v()
            return e * np.sqrt(v0 + s * (v1 - v0))
        raise ValueError("pv legs have no single-valued parametrisation")

    def deriv(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "line":
            return np.full(s.shape, self.z1 - self.z0, dtype=complex)
        if self.kind == "arc":
            th = self.th0 + s * (self.th1 - self.th0)
            return 1j * self.radius * (self.th1 - self.th0) * np.exp(1j * th)
        if self.kind == "chirp":
            e, v0, v1 = self._v()
            return e * (v1 - v0) / (2.0 * np.sqrt(v0 + s * (v1 - v0)))
        raise ValueError("pv legs have no single-valued parametrisation")


@dataclass
class ContourPath:
    """A sequence of legs with an overall orientation sign.

    `sign` multiplies the final integral; deformations that reverse the
    effective direction (lower half plane collapsing onto the real line
    traversed left to right) carry sign -1.  The path has one set of
    quadrature weights per entry of `rates`, each carrying the phase
    exp(i rate z^2), on the same nodes.
    """

    legs: list
    sign: int = 1
    rates: tuple = (0.0,)

    def validate_continuity(self, rtol=1e-9):
        scale = max(abs(leg.start()) + abs(leg.end()) for leg in self.legs) + 1.0
        for a, b in zip(self.legs, self.legs[1:]):
            if abs(a.end() - b.start()) > rtol * scale:
                raise ValueError(
                    "contour legs do not join: {} ends at {} but {} starts at {}".format(
                        a.label, a.end(), b.label, b.start()))
        return self

    def reach(self):
        return max(abs(leg.end()) for leg in self.legs)


def rotated_boundary(quadrant, radius, truncation, delta, lam=0.0, corner=None):
    """Sector boundary with one straight leg tilted into a decay sector.

    Quadrant 4 rotates the real leg counterclockwise by delta (exp(i k^2 t)
    then decays along the leg); quadrants 1 and 3 rotate the imaginary leg
    counterclockwise by delta (exp(-i k^2 t) decays).  The other straight
    leg stays on its axis, where the transform factors provide the decay.
    Rotation never moves a leg closer to a branch cut than the arc already
    is, because the legs sweep through cut-free open sectors.

    The quarter arc from the axis direction e (1, i, -i for quadrants 4, 1,
    3) to the outgoing axis direction f (-i, 1, -1) crosses the quadrant
    where the quadratic phase grows: with kappa = p e + q f (p, q > 0),
    |exp(+-i kappa^2 t)| = exp(2 p q t), up to exp(R^2 t) on the arc.
    Given corner = c (0 < c < R^2), the arc stops at R e and the quadrant
    is crossed on straight legs through points of the hyperbola p q = c:
    R e -> R e + (c/R) f, then n chords with p falling geometrically from R
    to c/R by the ratio rho = (R^2 / c)^(1/n), n = max(8, ceil(log2(R^2 /
    c))), then (c/R) e + R f -> R f.  On a chord p q stays within
    c (1 + rho)^2 / (4 rho), so with c = 1/t the factor stays within
    exp((1 + rho)^2 / (2 rho)) <= exp(9/4).  These legs lie in the open
    quadrant, where no branch cut runs.
    """
    if quadrant not in (1, 3, 4):
        raise ValueError("rotated boundaries are built for quadrants 1, 3 and 4")
    if not 0.0 < delta < 0.25 * np.pi:
        raise ValueError("rotation angle must lie in (0, pi/4), got {}".format(delta))
    thresh = np.sqrt(2.0 * lam)
    if not radius > thresh:
        raise ValueError(
            "arc radius {} too small: need radius > sqrt(2*Lambda) = {:.12g} "
            "to clear the branch cuts".format(radius, thresh))
    if not truncation > radius:
        raise ValueError(
            "truncation {} must exceed the arc radius {}".format(truncation, radius))
    T, R = float(truncation), float(radius)
    if corner is not None and not 0.0 < corner < R * R:
        raise ValueError("corner constant {} must lie in (0, radius^2)".format(corner))
    half_pi = 0.5 * np.pi
    # angle of e, the axes e and f as exact constants, the two legs' labels
    th, e, f, tilted, axis = {
        4: (0.0, 1.0, -1j, "rotated real leg", "imaginary leg"),
        1: (half_pi, 1j, 1.0, "rotated imaginary leg", "real leg"),
        3: (-half_pi, -1j, -1.0, "rotated imaginary leg", "real leg")}[quadrant]
    u = np.exp(1j * (th + delta))
    legs = [Leg.line(T * u, R * u, tilted)]
    if corner is None:
        legs.append(Leg.arc(R, th + delta, th - half_pi))
    else:
        legs.append(Leg.arc(R, th + delta, th))
        n = max(8, int(np.ceil(np.log2(R * R / corner))))
        p = R * (corner / (R * R)) ** (np.arange(n + 1) / n)
        pts = [R * e] + [pk * e + (corner / pk) * f for pk in p] + [R * f]
        legs += [Leg.line(a, b, "corner leg") for a, b in zip(pts, pts[1:])]
    legs.append(Leg.line(R * f, T * f, axis))
    return ContourPath(legs=legs).validate_continuity()


def deform_to_real_line(quadrant, pv_half_length, cut=None):
    """Collapse a half-plane sector boundary onto the real line.

    quadrant 1 gives +PV over the real line (sign +1); quadrant 3 gives the
    real line traversed with sign -1.  cut, when given, is the half-length
    sqrt(|alpha|) of the branch cut met during the deformation; the quadrant
    fixes its axis.  In quadrant 1 the cut runs up the imaginary axis and
    adds a cut-difference leg from 0 to i*cut carrying the jump of the
    integrand across it.  In quadrant 3 it lies on the real axis: the path
    stays as it is, integrands take their one-sided values from below at
    real nodes inside the cut, and the principal-value leg splits at the
    cut endpoints so no quadrature node lands on a branch point.
    """
    if quadrant not in (1, 3):
        raise ValueError("only quadrants 1 and 3 deform onto the real line")
    if not pv_half_length > 0.0:
        raise ValueError("pv_half_length must be positive")
    sign = 1 if quadrant == 1 else -1
    splits = ()
    extra = []
    if cut is not None:
        if not cut > 0.0:
            raise ValueError("cut half-length must be positive, got {!r}".format(cut))
        if cut >= pv_half_length:
            raise ValueError("cut extends past the truncation")
        if quadrant == 1:
            extra.append(Leg.line(0.0, 1j * cut, label="cut difference leg",
                                  tag="cut-difference"))
        else:
            splits = (cut / pv_half_length,)
    legs = [Leg.pv(0.0, pv_half_length, splits=splits)] + extra
    return ContourPath(legs=legs, sign=sign)


@dataclass
class NodeTable:
    """Frozen quadrature nodes for a path, reusable across integrands.

    z        flattened node locations (principal-value legs list both fold
             sides, so a pv panel contributes 30 entries)
    w15      Kronrod weights times the complex jacobian and exp(i rate z^2),
             one row per rate of the path, shape (len(rates), len(z))
    w7       embedded Gauss weights on the same entries (zeros elsewhere),
             shaped like w15
    cols     the caller's columns at z, shape (m, len(z)), from the one
             evaluation per node made while refining
    panel    panel index per entry
    spans    (leg index, a, b) per panel, in table order
    sign     overall orientation sign of the path
    error    the summed panel error estimates where refinement stopped
    rates    the path's rates
    """

    z: np.ndarray
    w15: np.ndarray
    w7: np.ndarray
    cols: np.ndarray
    panel: np.ndarray
    spans: list
    sign: int
    n_panels: int
    error: float = 0.0
    rates: tuple = (0.0,)


# Nodes per call of the caller's column function; a larger call only grows
# the temporaries of the transforms inside it.
_CALL_NODES = 480
# When the refinement needs children nobody has evaluated yet, it evaluates
# those of up to this many panels it will split next, in one batch.
_BATCH_PANELS = 64


class _Panel:
    __slots__ = ("leg", "a", "b", "errs", "order", "nodes", "cols", "kids")

    def __init__(self, leg, a, b, nodes, cols, errs):
        self.leg, self.a, self.b = leg, a, b
        self.nodes = nodes      # rows z, then w15 and w7 per rate
        self.cols = cols        # per owner of the store: its columns, until it is done
        self.errs = errs        # per owner of the store: its error estimate
        self.order = None       # creation counter, set when the panel goes live
        self.kids = None        # the two halves, once evaluated


def _rephase(z, drate):
    """exp(i drate z^2): the weights of one rate from those of another."""
    return np.exp(1j * drate * (z * z))


def _unit_nodes(a, b):
    """(mid, half, s) of the panels [a_i, b_i]: one row of 15 Kronrod nodes s each."""
    a = np.asarray(a, dtype=float)[:, None]
    b = np.asarray(b, dtype=float)[:, None]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid, half, mid + half * _XK


def _phased(z, jac, wkg, rates):
    """(w15, w7) per rate, shape (rates, 2) + z.shape: the rows wkg = (wk,
    wg) times jac and exp(i rate z^2).

    The first rate's phase is taken at the nodes, and the other rates'
    weights are the first's times exp(i (rate - rates[0]) z^2), one exp
    for all of them (_rephase).
    """
    if rates[0]:
        jac = jac * np.exp(1j * rates[0] * (z * z))
    out = np.empty((len(rates), 2) + z.shape, dtype=complex)
    np.multiply(wkg[:, None], jac, out=out[0])
    if len(rates) > 1:
        f = _rephase(z, (np.array(rates[1:]) - rates[0])[:, None, None])
        np.multiply(out[0], f[:, None], out=out[1:])
    return out


def _panel_nodes(leg, a, b, rates=(0.0,)):
    """Nodes and weights of the panels [a_i, b_i] of one leg.

    Returns (z, w): z with one row per panel, and w of shape (rates, 2) +
    z.shape, per rate (w15, w7), the weights times the jacobian and
    exp(i rate z^2).  On a chirp leg that phase is the phase at the panel's
    middle times exp(i omega xi) in the panel variable xi, omega = rate e^2
    times the panel's half-width in v, and the weights carry both
    (_chirp_weights), for every (rate, panel) at once.  Other legs take the
    phase at the nodes (_phased).
    """
    mid, half, s = _unit_nodes(a, b)
    if leg.kind == "pv":
        u = leg.half * s
        z = np.concatenate([leg.center + u, leg.center - u], axis=1).astype(complex)
        return z, _phased(z, (half * leg.half).astype(complex), np.tile(_WKG, 2),
                          rates)
    z = leg.point(s)
    jac = leg.deriv(s) * half
    if leg.kind != "chirp":
        return z, _phased(z, jac, _WKG, rates)
    e, v0, v1 = leg._v()
    rate = (np.array(rates) * (e * e).real)[:, None]
    j = jac * np.exp(1j * rate[..., None] * (v0 + mid * (v1 - v0)))
    out = np.empty((len(rates), 2) + z.shape, dtype=complex)
    for i, c in enumerate(_chirp_weights(rate * (v1 - v0) * half[:, 0])):
        np.multiply(c.reshape(j.shape), j, out=out[:, i])
    return z, out


def _line_panels(z0, z1, a, b, rates=(0.0,)):
    """_panel_nodes of many line-leg panels at once, each [a_i, b_i] of z0_i -> z1_i.

    Row i holds the nodes and weights that _panel_nodes gives the panel
    [a_i, b_i] of the line leg z0_i -> z1_i, to the last bit, whichever
    legs the other rows come from.
    """
    _, half, s = _unit_nodes(a, b)
    d = (np.asarray(z1, dtype=complex) - np.asarray(z0, dtype=complex))[:, None]
    z = np.asarray(z0, dtype=complex)[:, None] + s * d
    return z, _phased(z, np.broadcast_to(d, s.shape) * half, _WKG, rates)


def _errors(v, w, n, per):
    """Error estimate of each of n panels from the probe values v at their nodes.

    w holds (w15, w7) per rate, shape (rates, 2, n, per); the estimate is
    the largest over the rates and probes.
    """
    v = np.asarray(v, dtype=complex).reshape(-1, n, per)
    diff = np.sum(v * w[:, :1], axis=-1) - np.sum(v * w[:, 1:], axis=-1)
    u = np.hypot(diff.real, diff.imag)
    return np.max(np.minimum(u, np.float_power(200.0 * u, 1.5)), axis=(0, 1),
                  initial=0.0)


def _evaluate(path, columns, probes, spans, first=0):
    """New panels for spans (leg, a, b), for the owners from `first` on.

    columns(z, tag) returns the columns of each of those owners, a list;
    probes holds the probe function of every owner of the store (None: the
    columns are the probes).  A panel keeps, per owner, its columns and its
    error estimate (None for the owners before `first`).

    Legs that share a tag and a node count share calls of `columns`, each
    of at most _CALL_NODES nodes, their line-leg panels first.  The nodes
    and weights of those line panels are formed in one array pass from each
    panel's own leg ends (_line_panels): on a sector path, whose legs all
    share the empty tag, every straight leg of the round at once (a corner
    path has nine or more).  Each other leg's panels take one _panel_nodes
    call; either way every rate at once.  A panel's error is the largest
    over the owner's probes and the path's rates of min(u, (200 u)^1.5),
    u = |Kronrod - Gauss|, for every panel, probe and rate of a call in one
    pass (_errors); the panel keeps every rate's weights.  u is
    taken with hypot and the power with float_power, which round as the
    scalar abs and ** of a panel-at-a-time loop do (the vectorised complex
    abs and power may differ in the last bit), so the refinement decisions
    are bit-identical to that loop.
    """
    legs = path.legs
    groups = {}
    # in each group the line panels first, then the others by leg
    for i in sorted(range(len(spans)),
                    key=lambda i: (legs[spans[i][0]].kind != "line", spans[i][0])):
        leg = legs[spans[i][0]]
        groups.setdefault((leg.tag, leg.kind == "pv"), []).append(i)
    out = [None] * len(spans)
    none = [None] * first
    for (tag, _), idx in groups.items():
        nl = sum(legs[spans[i][0]].kind == "line" for i in idx)
        lines = [spans[i] for i in idx[:nl]]
        parts = [_line_panels([legs[k].z0 for k, _, _ in lines],
                              [legs[k].z1 for k, _, _ in lines],
                              [a for _, a, _ in lines], [b for _, _, b in lines],
                              path.rates)] if lines else []
        for leg_idx, g in itertools.groupby(idx[nl:], key=lambda i: spans[i][0]):
            g = list(g)
            parts.append(_panel_nodes(legs[leg_idx], [spans[i][1] for i in g],
                                      [spans[i][2] for i in g], path.rates))
        # z with one row per panel, and w (rates, 2, panels, per)
        z = np.concatenate([z for z, _ in parts])
        w = np.concatenate([w for _, w in parts], axis=2)
        per = z.shape[1]
        step = _CALL_NODES // per
        for lo in range(0, len(idx), step):
            zc = z[lo:lo + step]
            wc = w[:, :, lo:lo + step]
            n = zc.shape[0]
            zf = zc.ravel()
            cols = [np.asarray(c, dtype=complex).reshape(-1, zf.size)
                    for c in columns(zf, tag)]
            errs = [_errors(c if f is None else f(zf, c), wc, n, per)
                    for c, f in zip(cols, probes[first:])]
            cols = [c.reshape(-1, n, per) for c in cols]
            # rows z, then w15 and w7 per rate
            block = np.concatenate((zc[None], wc.reshape(-1, n, per)))
            for j in range(n):
                leg_idx, a, b = spans[idx[lo + j]]
                out[idx[lo + j]] = _Panel(leg_idx, a, b, block[:, j].copy(),
                                          none + [c[:, j].copy() for c in cols],
                                          none + [e[j] for e in errs])
    return out


class PanelStore:
    """The evaluated panels of one path, shared by the node tables of its owners.

    Integrands on one path (the terms of a solver call that ended on one
    truncation rung) bisect the same first panels, so their node tables
    would evaluate many spans alike.  A store evaluates each span once, for
    every owner that still has its table to build: the nodes and weights
    once, and per owner its columns and its panel error.  columns(z, tag,
    owners) returns the columns of each owner in the range `owners` at a
    batch of nodes of one leg, a list, and probes holds each owner's probe
    function (None: its columns are its probes).

    Owner i builds its table with build_node_table(path, ..., store=(store,
    i)), the owners one after another in index order.  Each runs its own
    worst-first loop on its own errors, tolerance and budget; only the
    halves of a panel (_Panel.kids), evaluated by whichever owner first
    splits it, are shared, so every table is the one a build of its own
    gives.  An owner drops its columns of a panel when it splits it or
    takes it into its table, and the last owner drops the whole panel when
    it splits it, as a build of its own does.
    """

    def __init__(self, path, columns, probes):
        self.path = path
        self.columns = columns
        self.probes = list(probes)
        self.roots = None

    def evaluate(self, spans, owner):
        """Panels for spans, for owner and every owner after it."""
        owners = range(owner, len(self.probes))
        return _evaluate(self.path, lambda z, tag: self.columns(z, tag, owners),
                         self.probes, spans, owner)


def _next_to_split(heap, worst, total, n_alive, tolerance, max_panels, owner):
    """Panels the refinement will split next whose children are missing.

    Runs owner's worst-first loop ahead on the errors already known,
    counting every child not yet evaluated as error-free, and collects up
    to _BATCH_PANELS panels it splits without known children.  `worst`,
    just popped from the heap, comes first.
    """
    out = [worst]
    total -= worst.errs[owner]
    n_alive += 1
    seq = itertools.count()
    front = [(heap[0][0], next(seq), 0, heap[0][2])] if heap else []
    while (front and len(out) < _BATCH_PANELS and total > tolerance
           and n_alive < max_panels):
        _, _, i, p = heapq.heappop(front)
        if p.errs[owner] <= 1e-18:
            break
        if i is not None:
            for c in (2 * i + 1, 2 * i + 2):
                if c < len(heap):
                    heapq.heappush(front, (heap[c][0], next(seq), c, heap[c][2]))
        total -= p.errs[owner]
        n_alive += 1
        if p.kids is None:
            out.append(p)
            continue
        for kid in p.kids:
            total += kid.errs[owner]
            heapq.heappush(front, (-kid.errs[owner], next(seq), None, kid))
    return out


def _halves(panels):
    spans = []
    for p in panels:
        m = 0.5 * (p.a + p.b)
        spans += [(p.leg, p.a, m), (p.leg, m, p.b)]
    return spans


def build_node_table(path, columns, tolerance, max_panels=2000, probes=None,
                     store=None):
    """Adaptively panel `path` until every probe integrand converges.

    columns(z, tag) evaluates what the caller needs at a batch of nodes of
    one leg: an array of shape (m, len(z)), or (len(z),) for m = 1.  It is
    called once per node and the result is kept as NodeTable.cols.  probes(z,
    cols) builds the probe integrands, shape (n_probe, len(z)), from those
    columns; by default the columns themselves are the probes.  The returned
    NodeTable fixes the panel decomposition; any further integrand sharing
    the probes' resolution needs can be summed against it with
    table_integral.

    store = (PanelStore, i) builds the table of owner i of a store on path,
    whose columns and probes of owner i are then those evaluated (columns
    and probes must agree with them): spans an earlier owner evaluated are
    not evaluated again, and the spans this build evaluates are evaluated
    for every later owner too.  The table is the one the build gives alone.

    Refinement bisects the worst panel first.  Children are evaluated ahead
    of need, a batch at a time (_next_to_split), and kept on their parents
    until the loop below reaches them, so the panels chosen are exactly
    those of a one-panel-at-a-time loop.  A table that stops above 50
    times the tolerance, on max_panels or on the 1e-18 per-panel floor, or
    whose error is NaN, raises QuadratureError.
    """
    if store is None:
        store, me = PanelStore(path, lambda z, tag, owners: [columns(z, tag)],
                               [probes]), 0
    else:
        store, me = store
    last = me == len(store.probes) - 1
    heap = []
    counter = 0

    def push(p):
        nonlocal counter
        p.order = counter
        heapq.heappush(heap, (-p.errs[me], counter, p))
        counter += 1

    if store.roots is None:
        initial = []
        for leg_idx, leg in enumerate(path.legs):
            bps = [0.0] + sorted(set(leg.splits)) + [1.0]
            initial += [(leg_idx, a, b) for a, b in zip(bps, bps[1:])]
        store.roots = store.evaluate(initial, me)
    panels = store.roots
    for p in panels:
        push(p)

    total = sum(p.errs[me] for p in panels)
    n_alive = len(panels)

    while total > tolerance and n_alive < max_panels:
        _, _, worst = heapq.heappop(heap)
        if worst.errs[me] <= 1e-18:
            heapq.heappush(heap, (-worst.errs[me], counter, worst))
            break
        if worst.kids is None:
            batch = _next_to_split(heap, worst, total, n_alive, tolerance,
                                   max_panels, me)
            try:
                kids = store.evaluate(_halves(batch), me)
            except Exception:
                # a panel evaluated only ahead of need failed; let the one
                # the loop needs now decide
                batch = [worst]
                kids = store.evaluate(_halves(batch), me)
            for i, p in enumerate(batch):
                p.kids = kids[2 * i:2 * i + 2]
        total -= worst.errs[me]
        n_alive -= 1
        for kid in worst.kids:
            push(kid)
            total += kid.errs[me]
            n_alive += 1
        # this owner is done with the panel, and after the last one so is
        # everybody
        worst.cols[me] = None
        if last:
            worst.kids = worst.nodes = None

    final = sorted((entry[2] for entry in heap), key=lambda p: p.order)
    err = sum(p.errs[me] for p in final)
    if not err <= 50.0 * max(tolerance, 1e-300):
        worst = max(final, key=lambda p: p.errs[me])
        leg = path.legs[worst.leg]
        raise QuadratureError(
            "quadrature failure on leg {} ({}): error {:.3e} after {} panels".format(
                worst.leg, leg.label, err, len(final)),
            leg_index=worst.leg, leg_label=leg.label)

    final.sort(key=lambda p: (p.leg, p.a))
    nodes = np.concatenate([p.nodes for p in final], axis=1)
    cols = np.concatenate([p.cols[me] for p in final], axis=1)
    sizes = [p.nodes.shape[1] for p in final]
    for p in final:
        # the table holds its own copy
        p.cols[me] = None
    pid = np.repeat(np.arange(len(final)), sizes)
    nw = 1 + 2 * len(path.rates)
    return NodeTable(z=nodes[0], w15=nodes[1:nw:2], w7=nodes[2:nw:2], cols=cols,
                     panel=pid, spans=[(p.leg, p.a, p.b) for p in final],
                     sign=path.sign, n_panels=len(final), error=err,
                     rates=tuple(path.rates))


# The phased sum works in tiles of at most _TILE complex entries: _FINE rows
# of X by whole panels of one size.  Tiles of 2^14 entries sum about a
# fifth faster but hold four times the memory; 2^12 keeps each temporary
# within 64 kB.  Lattice rows are batched instead: several _FINE-row groups
# on the column axis of one product per panel, within the same 2^12-entry
# budget (see table_integral).
_TILE = 2 ** 12
_FINE = 16
# A lattice point keeps only the first-order phase correction, so it joins
# the lattice only where max|C| |rho| stays within this; the dropped term
# (C rho)^2 / 2 is then below 5e-17.
_RHO_MAX = 1e-8


def _chunks(table, rows):
    """(start, stop, nodes per panel) of the node chunks the sum tiles over.

    A chunk holds whole panels of one size, at most _TILE // rows nodes.
    """
    starts = np.flatnonzero(np.diff(table.panel, prepend=-1))
    ends = np.append(starts[1:], table.panel.size)
    sizes = ends - starts
    runs = np.flatnonzero(np.diff(sizes, prepend=0))
    out = []
    for a, b in zip(runs, np.append(runs[1:], sizes.size)):
        per = int(sizes[a])
        step = max(1, _TILE // (rows * per))
        for p in range(a, b, step):
            out.append((int(starts[p]), int(ends[min(p + step, b) - 1]), per))
    return out


def _lattice(X, cmax):
    """Fit a lattice X0 + k h to the points X.

    The middle spacing of the sorted distinct points (whatever the order
    of X, and repeats) gives a first lattice, which is then refitted over
    the span of the points that lie on it: a linspace gets X0 = X_0 and
    h = (X_last - X_0) / (n - 1), and extra points mixed into one
    (x_j - 1e-9 beside a jump) do not spoil it.  With k = _FINE q + r,
    rho = X - Xq - r h is the remainder against the coarse point
    Xq = X0 + _FINE q h and the fine step r h as the exp tables compute
    them, so the phases carry no rounding of X itself.  A point is on the
    lattice when cmax |rho| <= _RHO_MAX.  Returns (h, on, k, rho, Xq) with
    k, rho and Xq of the points on it, or None when fewer than 2 _FINE
    points are, because the fine table would not pay.
    """
    if X.size < 2 * _FINE or not np.isfinite(cmax):
        return None
    U = np.unique(X)
    mid = U.size // 2
    X0, h = U[mid], U[mid] - U[mid - 1]
    for strict in (False, True):
        if not (np.isfinite(h) and h != 0.0):
            return None
        kf = np.rint((X - X0) / h)
        if strict:
            q, r = np.divmod(kf, _FINE)
            Xq = X0 + _FINE * q * h
            rho = (X - Xq) - h * r
            near = cmax * np.abs(rho) <= _RHO_MAX
        else:
            near = np.abs(X - X0 - kf * h) <= 1e-6 * abs(h)
        on = near & (np.abs(kf) < 2.0 ** 52)
        if np.count_nonzero(on) < 2 * _FINE:
            return None
        if not strict:
            idx = np.flatnonzero(on)
            lo, hi = idx[np.argmin(kf[idx])], idx[np.argmax(kf[idx])]
            if kf[hi] == kf[lo]:
                return None
            X0, h = X[lo], (X[hi] - X[lo]) / (kf[hi] - kf[lo])
    return h, on, kf[on].astype(np.int64), rho[on], Xq[on]


def _plain_sum(table, W):
    """(values, errors) of table_integral where every X is 0, (rates, m).

    Every phase is then 1, so each column of W is summed at each rate's
    weights elementwise, chunk by chunk within _TILE entries: no phases,
    no C W half, and no BLAS call (one-row products run threaded once they
    are a few hundred columns wide, which can cost 20 times the sum).
    """
    val = np.zeros((len(table.rates), W.shape[0]), dtype=complex)
    err, floor = np.zeros(val.shape), np.zeros(val.shape)
    for lo, hi, per in _chunks(table, val.size):
        w15 = table.w15[:, None, lo:hi]
        g = w15 * W[:, lo:hi]
        d = (w15 - table.w7[:, None, lo:hi]) * W[:, lo:hi]
        u = np.abs(np.add.reduce(d.reshape(val.shape + (-1, per)), axis=-1))
        err += np.add.reduce(np.minimum(u, (200.0 * u) ** 1.5), axis=-1)
        val += np.add.reduce(g, axis=-1)
        floor += np.add.reduce(np.abs(g), axis=-1)
    return table.sign * val, err + 2.3e-16 * floor


def table_integral(table, W, C, X):
    """Integral of W exp(i C X) over a frozen node table, for each X.

    W and C are given at table.z, usually built from table.cols (which the
    column function computed with each node's leg tag), and X is a vector.
    W may be one column or a stack of m columns, shape (m, N), sharing C
    (a slope is the column i C W).  The result is (values, errors), each
    with one row per rate of the table (table.rates), each summed at that
    rate's weights (table.w15[k], table.w7[k]), then one per column of a
    stack, then one entry per X: shape (len(table.rates), len(X)) or
    (len(table.rates), m, len(X)).  The rates are one more axis of the
    stack: each (column, rate) pair is a column of the sum, in one pass
    over the tiles.  A plain integral of W is C = 0 at X = [0].

    Error model, per X: the Kronrod-minus-Gauss difference u of each panel,
    charged as min(u, (200 u)^1.5) and summed over panels, plus a roundoff
    floor 2.3e-16 (1 + |X| max|C|) sum |W w15 exp(i C X)|, because heavy
    cancellation (oscillatory integrands at large t) is invisible to the
    embedded-rule difference.  The first term charges the rounding of the
    products and sums, the second that of the phase: C X and X itself carry
    a relative rounding of about eps, which moves each phase by up to
    eps |X| max|C| (a 4e-16 shift of X on a 30,000-node table with
    |C| <= 60 moved values by 7.3 times the first term alone).  The values
    carry table.sign.

    The sum runs over chunks of whole panels of one size (_chunks), sized
    so that _FINE rows of X (fewer when there are fewer X) times the
    columns of W times the rates stay within _TILE complex entries.  A
    chunk weights its nodes' f = [W, C W] by the table's weights of every
    rate, as F, and builds its phase tables once for them.  Direct rows go
    _FINE at a time, one batched product per tile giving every panel's
    Kronrod sum and Kronrod-minus-Gauss difference.  Lattice rows go a
    batch of groups at a time, one _FINE-row group per coarse point, as
    many groups as keep the batch's weighted copy of F within _TILE entries
    (4 for a full chunk of one column).  Every group's coarse phases weight
    F side by side on the column axis, (panel, node, group, column), and
    one product per panel with the fine table gives (panel, r, group,
    column).  Each entry is the one a group of its own would make, so the
    values do not depend on the batching.  The values add the panel sums
    in panel order, the panel charges read the same layout, and a batch's
    floor sums are one real product.  Rows map to their slot (r, group),
    which serves holes, duplicate X and grid ends alike.  Where every X is
    0 every phase is 1: each column is then summed at each rate's weights
    elementwise (_plain_sum), with no C W half and no product.

    Points on a lattice X0 + k h (_lattice; any linspace) take their phases
    from two small exp tables.  With k = _FINE q + r,

        exp(i C X) = exp(i C (X0 + _FINE q h)) exp(i C r h) (1 + i C rho),

    rho = X - X0 - k h (taken against the table values, see _lattice): one
    coarse row per q and a fine table of _FINE rows per chunk, about
    n/_FINE + _FINE exps per node instead of n.  Each factor carries the
    relative rounding of a direct exp whose argument is no larger than
    about C X, and the dropped term (C rho)^2 / 2 stays below 5e-17 because
    a point joins the lattice only where max|C| |rho| <= 1e-8.  The
    correction i C rho enters the values and the panel differences through
    sums of C W.  Every other point (off-lattice extras such as x_j - 1e-9,
    irregular grids, grids under 2 _FINE points) takes the direct exp.  The
    columns of a stack share each tile.
    """
    W = np.asarray(W, dtype=complex)
    C = np.asarray(C, dtype=complex)
    X = np.asarray(X, dtype=float).ravel()
    # the stack's m columns: each column of W times each rate of the table
    nw, n = (W.shape[0] if W.ndim == 2 else 1), X.size
    m = len(table.rates) * nw
    shape = (len(table.rates),) + W.shape[:-1] + (n,)
    if not X.any():
        return tuple(np.repeat(a[..., None], n, axis=-1).reshape(shape)
                     for a in _plain_sum(table, W.reshape(nw, -1)))

    # Rows in lattice order (by k), then the direct rows.  Per row and
    # column: sums of f w15 and C f w15 over the nodes (f = W; rho enters
    # through the second), the panel errors, and sum |P f w15| for the
    # roundoff floor.
    cmax = float(np.max(np.abs(C), initial=0.0))
    lat = _lattice(X, cmax)
    # rows per tile: the fine table's, or fewer when every row is direct
    nt = _FINE if lat is not None else max(1, min(n, _FINE))
    chunks = _chunks(table, nt * m)
    on = np.zeros(n, dtype=bool)
    rows, rho, batches = np.arange(0), np.zeros(0), []
    if lat is not None:
        h, on, k, rho, Xq = lat
        rows = np.flatnonzero(on)
        if np.any(np.diff(k) < 0):
            order = np.argsort(k, kind="stable")
            rows, k, rho, Xq = rows[order], k[order], rho[order], Xq[order]
        # Batches of nb groups (one coarse point each), as many as keep a
        # batch's weighted copy of the widest chunk within _TILE: rows
        # s:e, the coarse points, each row's slot (r, group in the batch),
        # and i rho by slot (0 in a slot no row reads).
        q, r = np.divmod(k, _FINE)
        new = np.diff(q, prepend=q[0] - 1) != 0
        group, starts = np.cumsum(new) - 1, np.flatnonzero(new)
        bounds = np.append(starts, q.size)
        nb = max(1, _TILE // (4 * m * max(hi - lo for lo, hi, _ in chunks)))
        for a in range(0, starts.size, nb):
            b = min(a + nb, starts.size)
            s, e = bounds[a], bounds[b]
            slot = (r[s:e], group[s:e] - a)
            rq = np.zeros((_FINE, b - a))
            rq[slot] = rho[s:e]
            batches.append((s, e, Xq[starts[a:b]], slot, 1j * rq[..., None]))
    direct = np.flatnonzero(~on)
    rows = np.concatenate([rows, direct])
    rho = np.append(rho, np.zeros(direct.size))[:, None]

    def panel_err(d, irho):
        # d: per-panel Kronrod-minus-Gauss sums of f and C f, the panels on
        # axis 0 and i rho broadcast on the rest; the panels add in order
        u = np.abs(d[..., :m] + irho * d[..., m:])
        return np.add.reduce(np.minimum(u, (200.0 * u) ** 1.5), axis=0)

    sv = np.zeros((n, 2 * m), dtype=complex)
    se, sa = np.zeros((n, m)), np.zeros((n, m))

    def chunk(lo, hi, per):
        c = C[lo:hi]
        ic = 1j * c
        npan = (hi - lo) // per
        # F: [f w15 | f (w15 - w7)], each [W | C W] by (column, rate).  The
        # rates ride on a last axis, so that one time keeps the memory
        # layout of F, and with it the bits and speed of the products below
        f = W[..., lo:hi].reshape(nw, -1).T
        f = np.concatenate([f, c[:, None] * f], axis=1)[:, :, None]
        w15 = table.w15[:, lo:hi].T[:, None]
        dw = w15 - table.w7[:, lo:hi].T[:, None]
        F = np.concatenate([(f * w).reshape(hi - lo, -1) for w in (w15, dw)], axis=1)
        a15 = np.abs(F[:, :m])
        F = F.reshape(npan, per, 4 * m)
        if batches:
            fine = np.outer(h * np.arange(_FINE), ic)
            np.exp(fine, out=fine)
            afine = np.abs(fine)
            fine = fine.reshape(_FINE, npan, per).transpose(1, 0, 2)
            for s, e, xq, slot, irq in batches:
                # every group's coarse phases weight F on the column axis,
                # so one product per panel serves the batch: S is (panel,
                # r, group, column), and each entry is the one a group of
                # its own would make
                w = ic[:, None] * xq
                np.exp(w, out=w)
                G = (w.reshape(npan, per, -1, 1) * F[:, :, None]).reshape(npan, per, -1)
                S = np.matmul(fine, G).reshape(npan, _FINE, -1, 4 * m)
                # per slot (r, group): the sums (taken over every column,
                # so the reduction runs contiguous), the charged panel
                # differences and the floor sums
                a = afine @ (np.abs(w)[..., None] * a15[:, None]).reshape(hi - lo, -1)
                sv[s:e] += np.add.reduce(S, axis=0)[..., :2 * m][slot]
                se[s:e] += panel_err(S[..., 2 * m:], irq)[slot]
                sa[s:e] += a.reshape(_FINE, -1, m)[slot]
        for s in range(rows.size - direct.size, rows.size, nt):
            # for the phases P: the sums of f w15 and C f w15, the panel
            # sums of the same with w15 - w7, and the sums of |P f w15|
            P = np.outer(X[rows[s:s + nt]], ic)
            np.exp(P, out=P)
            S = np.matmul(P.reshape(-1, npan, per).transpose(1, 0, 2), F)
            sv[s:s + nt] += np.sum(S[..., :2 * m], axis=0)
            se[s:s + nt] += panel_err(S[..., 2 * m:], 0.0)
            sa[s:s + nt] += np.abs(P) @ a15

    for lo, hi, per in chunks:
        chunk(lo, hi, per)
    val = np.empty((m, n), dtype=complex)
    err = np.empty((m, n))
    val[:, rows] = table.sign * (sv[:, :m] + 1j * rho * sv[:, m:]).T
    err[:, rows] = (se + 2.3e-16 * (1.0 + np.abs(X[rows, None]) * cmax) * sa).T
    # rows by (column, rate), returned by rate, then column
    return tuple(a.reshape(nw, -1, n).swapaxes(0, 1).reshape(shape) for a in (val, err))

