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

table_integral is the one summation over a finished table.  It sums
W exp(i C X) for a whole vector of X in one call, in tiles of at most 2^12
complex entries, and builds the phases of points on a uniform
lattice from two small exp tables instead of one exp per (X, node) pair.
Every sum runs in a fixed order, so repeated runs give bit-identical
results.
"""

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Leg",
    "ContourPath",
    "KeyholeSpec",
    "QuadratureError",
    "rotated_boundary",
    "deform_to_real_line",
    "build_node_table",
    "table_integral",
    "NodeTable",
]

# Gauss-Kronrod 7-15 on [-1, 1].  Nodes and weights are the standard
# QUADPACK constants; the Gauss-7 rule lives on the odd-indexed nodes.
_XK_HALF = np.array([
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.000000000000000,
])
_WK_HALF = np.array([
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
])
_WG_HALF = np.array([
    0.0,
    0.129484966168870,
    0.0,
    0.279705391489277,
    0.0,
    0.381830050505119,
    0.0,
    0.417959183673469,
])

_XK = np.concatenate([-_XK_HALF[:-1], [0.0], _XK_HALF[:-1][::-1]])
_WK = np.concatenate([_WK_HALF[:-1], [_WK_HALF[-1]], _WK_HALF[:-1][::-1]])
_WG = np.concatenate([_WG_HALF[:-1], [_WG_HALF[-1]], _WG_HALF[:-1][::-1]])


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

    `splits` lists parameter values in (0, 1) where the initial panelling
    must break (branch points, cut endpoints).  `tag` marks legs that need a
    special integrand ('cut-difference') or a one-sided rule
    ('one-sided-below'); ordinary legs carry an empty tag.
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

    def start(self):
        if self.kind == "line":
            return self.z0
        if self.kind == "arc":
            return self.radius * np.exp(1j * self.th0)
        return complex(self.center - self.half)

    def end(self):
        if self.kind == "line":
            return self.z1
        if self.kind == "arc":
            return self.radius * np.exp(1j * self.th1)
        return complex(self.center + self.half)

    def point(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "line":
            return self.z0 + s * (self.z1 - self.z0)
        if self.kind == "arc":
            th = self.th0 + s * (self.th1 - self.th0)
            return self.radius * np.exp(1j * th)
        raise ValueError("pv legs have no single-valued parametrisation")

    def deriv(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "line":
            return np.full(s.shape, self.z1 - self.z0, dtype=complex)
        if self.kind == "arc":
            th = self.th0 + s * (self.th1 - self.th0)
            return 1j * self.radius * (self.th1 - self.th0) * np.exp(1j * th)
        raise ValueError("pv legs have no single-valued parametrisation")


@dataclass
class ContourPath:
    """A sequence of legs with an overall orientation sign.

    `sign` multiplies the final integral; deformations that reverse the
    effective direction (lower half plane collapsing onto the real line
    traversed left to right) carry sign -1.
    """

    legs: list
    sign: int = 1

    def validate_continuity(self, rtol=1e-9):
        scale = max(abs(leg.start()) + abs(leg.end()) for leg in self.legs) + 1.0
        for a, b in zip(self.legs, self.legs[1:]):
            if abs(a.end() - b.start()) > rtol * scale:
                raise ValueError(
                    "contour legs do not join: {} ends at {} but {} starts at {}".format(
                        a.label, a.end(), b.label, b.start()))
        return self


@dataclass(frozen=True)
class KeyholeSpec:
    """Branch-cut attachment for a deformed path.

    axis         'imag' or 'real'
    half_length  cut half-length sqrt(|alpha|)

    An imaginary-axis cut pairs with the upper-half-plane deformation
    (quadrant 1) and contributes a cut-difference leg from 0 to
    i*half_length.  A real-axis cut pairs with the lower-half-plane
    deformation (quadrant 3), where the real-line integrand itself must be
    evaluated one-sidedly from below; no extra leg appears.
    """

    axis: str
    half_length: float

    def __post_init__(self):
        if self.axis not in ("imag", "real"):
            raise ValueError("cut axis must be 'imag' or 'real', got {!r}".format(self.axis))
        if not self.half_length > 0.0:
            raise ValueError("cut half_length must be positive")


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
    real line traversed with sign -1.  A KeyholeSpec describes the branch
    cut met during the deformation: an imaginary cut (quadrant 1 only) adds
    a cut-difference leg from 0 to i*half_length carrying the jump of the
    integrand across the cut; a real cut (quadrant 3 only) leaves the path
    alone but tags it so integrands evaluate one-sidedly from below.  The
    principal-value leg splits at the cut endpoints so no quadrature node
    lands on a branch point.
    """
    if quadrant not in (1, 3):
        raise ValueError("only quadrants 1 and 3 deform onto the real line")
    if not pv_half_length > 0.0:
        raise ValueError("pv_half_length must be positive")
    sign = 1 if quadrant == 1 else -1
    tag = ""
    splits = ()
    extra = []
    if cut is not None:
        if quadrant == 1:
            if cut.axis != "imag":
                raise ValueError(
                    "a real-axis cut cannot attach to the upper-half-plane deformation")
            if cut.half_length >= pv_half_length:
                raise ValueError("cut extends past the truncation")
            extra.append(Leg.line(0.0, 1j * cut.half_length,
                                  label="cut difference leg", tag="cut-difference"))
        else:
            if cut.axis != "real":
                raise ValueError(
                    "an imaginary-axis cut cannot attach to the lower-half-plane deformation")
            if cut.half_length >= pv_half_length:
                raise ValueError("cut extends past the truncation")
            tag = "one-sided-below"
            splits = (cut.half_length / pv_half_length,)
    legs = [Leg.pv(0.0, pv_half_length, tag=tag, splits=splits)] + extra
    return ContourPath(legs=legs, sign=sign)


@dataclass
class NodeTable:
    """Frozen quadrature nodes for a path, reusable across integrands.

    z        flattened node locations (principal-value legs list both fold
             sides, so a pv panel contributes 30 entries)
    w15      Kronrod weights times the complex jacobian
    w7       embedded Gauss weights on the same entries (zeros elsewhere)
    cols     the caller's columns at z, shape (m, len(z)), from the one
             evaluation per node made while refining
    panel    panel index per entry
    spans    (leg index, a, b) per panel, in table order
    sign     overall orientation sign of the path
    """

    z: np.ndarray
    w15: np.ndarray
    w7: np.ndarray
    cols: np.ndarray
    panel: np.ndarray
    spans: list
    sign: int
    n_panels: int


# Nodes per call of the caller's column function; a larger call only grows
# the temporaries of the transforms inside it.
_CALL_NODES = 480
# When the refinement needs children nobody has evaluated yet, it evaluates
# those of up to this many panels it will split next, in one batch.
_BATCH_PANELS = 64


class _Panel:
    __slots__ = ("leg", "a", "b", "err", "order", "nodes", "kids")

    def __init__(self, leg, a, b, err, nodes):
        self.leg, self.a, self.b, self.err = leg, a, b, err
        self.nodes = nodes      # rows z, w15, w7, then the caller's columns
        self.order = None       # creation counter, set when the panel goes live
        self.kids = None        # the two halves, once evaluated


def _panel_nodes(leg, a, b):
    """Nodes and weighted jacobians of the panels [a_i, b_i] of one leg.

    Returns (z, w15, w7), each with one row per panel.
    """
    a = np.asarray(a, dtype=float)[:, None]
    b = np.asarray(b, dtype=float)[:, None]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    s = mid + half * _XK
    if leg.kind == "pv":
        u = leg.half * s
        z = np.concatenate([leg.center + u, leg.center - u], axis=1).astype(complex)
        w15 = np.concatenate([_WK, _WK]) * (half * leg.half)
        w7 = np.concatenate([_WG, _WG]) * (half * leg.half)
        return z, w15.astype(complex), w7.astype(complex)
    z = leg.point(s)
    jac = leg.deriv(s) * half
    return z, _WK * jac, _WG * jac


def _evaluate(path, columns, probes, spans):
    """New panels for spans (leg, a, b), with their error estimates.

    Legs that share a tag and a node count share calls of `columns`, each
    of at most _CALL_NODES nodes.  A panel's error is the largest over the
    probes of min(u, (200 u)^1.5), u = |Kronrod - Gauss|, computed with the
    same scalar operations as a panel-at-a-time loop, so the refinement
    decisions are bit-identical to it.
    """
    groups = {}
    for i in sorted(range(len(spans)), key=lambda i: spans[i][0]):
        leg = path.legs[spans[i][0]]
        groups.setdefault((leg.tag, leg.kind == "pv"), []).append(i)
    out = [None] * len(spans)
    for (tag, _), idx in groups.items():
        parts = []
        for leg_idx, g in itertools.groupby(idx, key=lambda i: spans[i][0]):
            g = list(g)
            parts.append(_panel_nodes(path.legs[leg_idx], [spans[i][1] for i in g],
                                      [spans[i][2] for i in g]))
        z, w15, w7 = (np.concatenate(arrs) for arrs in zip(*parts))
        per = z.shape[1]
        step = _CALL_NODES // per
        for lo in range(0, len(idx), step):
            zc, c15, c7 = z[lo:lo + step], w15[lo:lo + step], w7[lo:lo + step]
            n = zc.shape[0]
            zf = zc.ravel()
            cols = np.asarray(columns(zf, tag), dtype=complex).reshape(-1, zf.size)
            v = cols if probes is None else np.asarray(probes(zf, cols), dtype=complex)
            v = v.reshape(-1, n, per)
            diff = np.sum(v * c15, axis=-1) - np.sum(v * c7, axis=-1)
            block = np.concatenate([zc[None], c15[None], c7[None],
                                    cols.reshape(-1, n, per)])
            for j in range(n):
                err = 0.0
                for d in diff[:, j]:
                    u = abs(d)
                    err = max(err, min(u, (200.0 * u) ** 1.5))
                leg_idx, a, b = spans[idx[lo + j]]
                out[idx[lo + j]] = _Panel(leg_idx, a, b, err, block[:, j].copy())
    return out


def _next_to_split(heap, worst, total, n_alive, tolerance, max_panels):
    """Panels the refinement will split next whose children are missing.

    Runs the worst-first loop ahead on the errors already known, counting
    every child not yet evaluated as error-free, and collects up to
    _BATCH_PANELS panels it splits without known children.  `worst`, just
    popped from the heap, comes first.
    """
    out = [worst]
    total -= worst.err
    n_alive += 1
    seq = itertools.count()
    front = [(heap[0][0], next(seq), 0, heap[0][2])] if heap else []
    while (front and len(out) < _BATCH_PANELS and total > tolerance
           and n_alive < max_panels):
        _, _, i, p = heapq.heappop(front)
        if p.err <= 1e-18:
            break
        if i is not None:
            for c in (2 * i + 1, 2 * i + 2):
                if c < len(heap):
                    heapq.heappush(front, (heap[c][0], next(seq), c, heap[c][2]))
        total -= p.err
        n_alive += 1
        if p.kids is None:
            out.append(p)
            continue
        for kid in p.kids:
            total += kid.err
            heapq.heappush(front, (-kid.err, next(seq), None, kid))
    return out


def _halves(panels):
    spans = []
    for p in panels:
        m = 0.5 * (p.a + p.b)
        spans += [(p.leg, p.a, m), (p.leg, m, p.b)]
    return spans


def build_node_table(path, columns, tolerance, max_panels=2000, probes=None):
    """Adaptively panel `path` until every probe integrand converges.

    columns(z, tag) evaluates what the caller needs at a batch of nodes of
    one leg: an array of shape (m, len(z)), or (len(z),) for m = 1.  It is
    called once per node and the result is kept as NodeTable.cols.  probes(z,
    cols) builds the probe integrands, shape (n_probe, len(z)), from those
    columns; by default the columns themselves are the probes.  The returned
    NodeTable fixes the panel decomposition; any further integrand sharing
    the probes' resolution needs can be summed against it with
    table_integral.

    Refinement bisects the worst panel first.  Children are evaluated ahead
    of need, a batch at a time (_next_to_split), and kept on their parents
    until the loop below reaches them, so the panels chosen are exactly
    those of a one-panel-at-a-time loop.
    """
    heap = []
    counter = 0

    def evaluate(spans):
        return _evaluate(path, columns, probes, spans)

    def push(p):
        nonlocal counter
        p.order = counter
        heapq.heappush(heap, (-p.err, counter, p))
        counter += 1

    initial = []
    for leg_idx, leg in enumerate(path.legs):
        bps = [0.0] + sorted(set(leg.splits)) + [1.0]
        initial += [(leg_idx, a, b) for a, b in zip(bps, bps[1:])]
    panels = evaluate(initial)
    for p in panels:
        push(p)

    total = sum(p.err for p in panels)
    n_alive = len(panels)

    while total > tolerance and n_alive < max_panels:
        _, _, worst = heapq.heappop(heap)
        if worst.err <= 1e-18:
            heapq.heappush(heap, (-worst.err, counter, worst))
            break
        if worst.kids is None:
            batch = _next_to_split(heap, worst, total, n_alive, tolerance,
                                   max_panels)
            try:
                kids = evaluate(_halves(batch))
            except Exception:
                # a panel evaluated only ahead of need failed; let the one
                # the loop needs now decide
                batch = [worst]
                kids = evaluate(_halves(batch))
            for i, p in enumerate(batch):
                p.kids = kids[2 * i:2 * i + 2]
        total -= worst.err
        n_alive -= 1
        for kid in worst.kids:
            push(kid)
            total += kid.err
            n_alive += 1
        worst.kids = worst.nodes = None

    final = sorted((entry[2] for entry in heap), key=lambda p: p.order)
    err = sum(p.err for p in final)
    if err > 50.0 * max(tolerance, 1e-300) and len(final) >= max_panels:
        worst = max(final, key=lambda p: p.err)
        leg = path.legs[worst.leg]
        raise QuadratureError(
            "quadrature failure on leg {} ({}): error {:.3e} after {} panels".format(
                worst.leg, leg.label, err, len(final)),
            leg_index=worst.leg, leg_label=leg.label)

    final.sort(key=lambda p: (p.leg, p.a))
    nodes = np.concatenate([p.nodes for p in final], axis=1)
    sizes = [p.nodes.shape[1] for p in final]
    pid = np.repeat(np.arange(len(final)), sizes)
    return NodeTable(z=nodes[0], w15=nodes[1], w7=nodes[2], cols=nodes[3:],
                     panel=pid, spans=[(p.leg, p.a, p.b) for p in final],
                     sign=path.sign, n_panels=len(final))


# The phased sum works in tiles of at most _TILE complex entries: _FINE rows
# of X by whole panels of one size.  Tiles of 2^14 entries sum about a
# fifth faster but hold four times the memory; 2^12 keeps each temporary
# within 64 kB.
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

    The spacing at the middle of X gives a first lattice, which is then
    refitted over the span of the points that lie on it: a linspace gets
    X0 = X_0 and h = (X_last - X_0) / (n - 1), and extra points mixed into
    one (x_j - 1e-9 beside a jump) do not spoil it.  With k = _FINE q + r,
    rho = X - Xq - r h is the remainder against the coarse point
    Xq = X0 + _FINE q h and the fine step r h as the exp tables compute
    them, so the phases carry no rounding of X itself.  A point is on the
    lattice when cmax |rho| <= _RHO_MAX.  Returns (h, on, k, rho, Xq) with
    k, rho and Xq of the points on it, or None when fewer than 2 _FINE
    points are, because the fine table would not pay.
    """
    if X.size < 2 * _FINE or not np.isfinite(cmax):
        return None
    mid = X.size // 2
    X0, h = X[mid], X[mid] - X[mid - 1]
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


def table_integral(table, W, C, X, derivative=False):
    """Integral of W exp(i C X) over a frozen node table, for each X.

    W and C are given at table.z, usually built from table.cols (which the
    column function computed with each node's leg tag), and X is a vector.
    The result is (values, errors), one entry per X, or with
    derivative=True (values, errors, dvalues, derrors), the d-integrand
    being i C W exp(i C X).  A plain integral of W is C = 0 at X = [0].

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

    The sum runs in tiles of _FINE rows of X (fewer when there are fewer X)
    by the whole panels of one chunk (_chunks), so no temporary exceeds
    _TILE complex entries.  Each
    tile is one batched product giving every panel's Kronrod sum and
    Kronrod-minus-Gauss difference; the values add the panel sums, so
    tiling changes only the order of the sums over panels.

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
    value and the derivative share each tile.
    """
    W = np.asarray(W, dtype=complex)
    C = np.asarray(C, dtype=complex)
    X = np.asarray(X, dtype=float).ravel()
    ni, n = (2 if derivative else 1), X.size

    # Rows in lattice order (by k), then the direct rows.  Per row: sums of
    # f w15 and C f w15 over the nodes (f = W, then with derivative i C W;
    # rho enters through the second), the panel errors, and sum |P f w15|
    # for the roundoff floor.
    cmax = float(np.max(np.abs(C), initial=0.0))
    lat = _lattice(X, cmax)
    on = np.zeros(n, dtype=bool)
    rows, groups, rho = np.arange(0), [], np.zeros(0)
    if lat is not None:
        h, on, k, rho, Xq = lat
        rows = np.flatnonzero(on)
        if np.any(np.diff(k) < 0):
            order = np.argsort(k, kind="stable")
            rows, k, rho, Xq = rows[order], k[order], rho[order], Xq[order]
        q, r = np.divmod(k, _FINE)
        ends = np.append(np.flatnonzero(np.diff(q)) + 1, q.size)
        groups = [(s, e, Xq[s], r[s:e])
                  for s, e in zip(np.append(0, ends[:-1]), ends)]
    direct = np.flatnonzero(~on)
    rows = np.concatenate([rows, direct])
    # rows per tile: the fine table's, or fewer when every row is direct
    nt = _FINE if groups else max(1, min(n, _FINE))
    rho = np.append(rho, np.zeros(direct.size))[:, None]
    sv = np.zeros((n, 2 * ni), dtype=complex)
    se = np.zeros((n, ni))
    sa = np.zeros((n, ni))

    def panel_err(d, rho):
        # d: per-panel Kronrod-minus-Gauss sums of f and C f, for the rows
        u = np.abs(d[..., :ni] + 1j * rho * d[..., ni:])
        return np.sum(np.minimum(u, (200.0 * u) ** 1.5), axis=0)

    def chunk(lo, hi, per):
        c = C[lo:hi]
        ic = 1j * c
        npan = (hi - lo) // per
        f = W[lo:hi, None]
        if derivative:
            f = np.concatenate([f, ic[:, None] * f], axis=1)
        f = np.concatenate([f, c[:, None] * f], axis=1)
        F = np.concatenate([f * table.w15[lo:hi, None],
                            f * (table.w15[lo:hi] - table.w7[lo:hi])[:, None]], axis=1)
        a15 = np.abs(F[:, :ni])
        F = F.reshape(npan, per, 4 * ni)

        def tile(E, absE, w=None):
            # for the phases E[j] * w, w a factor per node: the sums of f w15
            # and C f w15, the panel sums of the same with w15 - w7, and the
            # sums of |E w f w15|
            Fw, aw = F, a15
            if w is not None:
                Fw, aw = w.reshape(npan, per, 1) * F, np.abs(w) * a15
            S = np.matmul(E.reshape(-1, npan, per).transpose(1, 0, 2), Fw)
            return (np.sum(S[..., :2 * ni], axis=0), S[..., 2 * ni:],
                    np.stack([absE @ b for b in aw.T], axis=1))

        if groups:
            fine = np.outer(h * np.arange(_FINE), ic)
            np.exp(fine, out=fine)
            afine = np.abs(fine)
            for s, e, xq, sel in groups:
                v, d, a = tile(fine, afine, np.exp(ic * xq)[:, None])
                sv[s:e] += v[sel]
                se[s:e] += panel_err(d[:, sel], rho[s:e])
                sa[s:e] += a[sel]
        for s in range(rows.size - direct.size, rows.size, nt):
            P = np.outer(X[rows[s:s + nt]], ic)
            np.exp(P, out=P)
            v, d, a = tile(P, np.abs(P))
            sv[s:s + nt] += v
            se[s:s + nt] += panel_err(d, 0.0)
            sa[s:s + nt] += a

    for lo, hi, per in _chunks(table, nt):
        chunk(lo, hi, per)

    val = np.empty((ni, n), dtype=complex)
    err = np.empty((ni, n))
    val[:, rows] = table.sign * (sv[:, :ni] + 1j * rho * sv[:, ni:]).T
    err[:, rows] = (se + 2.3e-16 * (1.0 + np.abs(X[rows, None]) * cmax) * sa).T
    if derivative:
        return val[0], err[0], val[1], err[1]
    return val[0], err[0]

