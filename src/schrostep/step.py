"""Contour solver for a single potential jump, in three representations.

d4        both regions written as integrals along the fourth-quadrant
          sector boundary in the kappa variable, where exp(i kappa^2 t) is
          shared by every term; the real leg is tilted up by delta so that
          factor decays along it.
quadrant  each region in its own spectral variable: region 1 along the
          third-quadrant sector boundary, region 2 along the first-quadrant
          one, with the imaginary leg tilted into the adjacent decay sector.
realline  the quadrant paths collapsed onto the real axis: a principal
          value integral plus branch-cut pieces (one-sided integrand over
          the real cut for region 1, an explicit jump integral up the
          imaginary cut for region 2).  It shares no contour with the
          other two forms, which makes it their independent reference at
          any t; it requires the jump to step up (alpha_2 >= alpha_1),
          otherwise mirror the problem first (see `mirrored`).

At large t the sector paths of d4 and quadrant leave their radius-R arc
where it would cross the quadrant in which exp(+-i kappa^2 t) grows (up to
exp(R^2 t)) and cross it on corner legs along the hyperbola p q = 1/t
instead, where that factor stays within exp(9/4) (`ContourSettings.sector`).

Every integrand is a time-independent amplitude times
exp(-i (alpha + kappa^2) t), and the quadratic phase goes on the contour: a
path's quadrature weights carry exp(i rate kappa^2) (rate t in quadrant 4,
-t elsewhere), one set per time of a call, and every weight leaves it out,
as it leaves out the scalar exp(-i alpha t) of the quadrant and realline
forms, which their terms take on their sums (IntegralTerm.damp).  The ray
of every sector path is a chirp leg (contours.Leg.chirp), whose weights
integrate that phase exactly, so its panels resolve only the transforms
and the x factor exp(i c (x - x0)), which still oscillates there (c is
real on the ray).

The half-line transforms in the weights decay only like 1/kappa, so the
legs that stay on an axis carry oscillatory tails that no absolute
truncation can afford.  Those legs are cut at a moderate point and the
remainder is summed by repeated integration by parts in the phase
exp(i(-t u^2 + c(u) x)); the magnitude of the last kept correction doubles
as the error estimate, and a sampled-decay bound takes over whenever the
expansion is not safely convergent (_OscTail).

The module also holds the evaluation core of every contour solver.  In each
region the solution is a free term plus integral terms
W(kappa) exp(i c(kappa) (x - x0)) over a contour, with W independent of x
and t; only W, c, x0, the contour builder and the first truncation T0
change from one profile to another.  `ContourSettings` validates the
settings, builds the sector contours and holds the one call plan of every
contour solver: _integrals takes groups (xs, terms, tail probes), searches
every group's truncations (_search), budgets each group's panels and
builds and sums every term (_sums).  `ContourSolver` declares the
fourth-quadrant terms of every region, whose weights come from one hook,
`_interface_data(z)` (the unknowns of the interface system by default;
`WellSolver`, the last closed form, overrides it), and calls the plan with
one group per region from `evaluate_grid`; `StepSolver` overrides
`_declare` for its quadrant and realline forms.  `InterfaceMap` calls it
with one x-free group, its traces being the same integrals at x = x_j
with no free term.

Two stores per call hand every term its columns in one layout, the rows W,
then the row c (_columns): the searches on one truncation ladder read one
_TailStore, which samples each block of rungs once for all of them, and the
terms that end on one path build their node tables over one
contours.PanelStore, which evaluates each span once for all of them.  A
panel store and a node table hold no slope rows i c W: they are formed
where they are read (_slope), in the tail store's columns, the probes and
the sum.  A term's tails are one _TailModel with a time axis, and one node
table per term serves every x and time of the call (_sums).  Columns that
share a path and an x-coefficient, as InterfaceMap's psi and psi_x do, are
one term: one search and one table_integral call serve them all.  The slope
psi_x of a term is such a column; the term records whether it carries it
(IntegralTerm.derivative).
"""

from dataclasses import dataclass, replace

import numpy as np

from .contours import (Leg, PanelStore, QuadratureError, build_node_table,
                       deform_to_real_line, rotated_boundary, table_integral)
from .kernels import SolutionSample, _flag, _is_bool, _number, _reals, nu
from .transforms import free_term, hat_transform

__all__ = ["StepSolver", "sigma", "sigma_below", "step_coefficients", "mirrored"]

_TWO_PI = 2.0 * np.pi


def sigma(delta_alpha, k):
    """sqrt(1 + delta_alpha / k^2) with the principal branch, even in k."""
    k = np.asarray(k, dtype=complex)
    return nu(delta_alpha, k) / (1j * k)


def sigma_below(a, k_real):
    """One-sided value of sqrt(1 - a / k^2) on the cut, approached from below.

    Valid for real k with 0 < |k| < sqrt(a), a > 0: the limit from Im k < 0
    is -i sgn(k) sqrt(a / k^2 - 1).
    """
    k = np.asarray(k_real, dtype=float)
    mag = np.sqrt(a / np.maximum(k * k, 1e-280) - 1.0)
    return -1j * np.sign(k) * np.minimum(mag, 1e12)


def step_coefficients(potential, k, region=1):
    """Spectral reflection-type and transmission-type factors of the jump.

    Returns the pair ((1 - sigma)/(1 + sigma), 2/(1 + sigma)) built from the
    sigma of the requested region (1 by default, matching data launched on
    the left of the jump).
    """
    if potential.njumps != 1:
        raise ValueError("step coefficients are defined for a single jump")
    a1, a2 = potential.levels
    d = a1 - a2 if region == 1 else a2 - a1
    s = sigma(d, k)
    return (1.0 - s) / (1.0 + s), 2.0 / (1.0 + s)


def mirrored(potential, ic):
    """Reflect a single-jump problem through x = 0.

    Returns (potential', ic') with psi'(x, t) = psi(-x, t).  Used to bring a
    downward step into the upward form the realline representation needs.
    """
    if potential.njumps != 1:
        raise ValueError("mirroring is implemented for a single interface at 0")
    from .kernels import PiecewisePotential
    from .transforms import InitialCondition

    pot2 = PiecewisePotential(potential.levels[::-1], (0.0,))
    if ic.kind == "gaussian":
        ic2 = InitialCondition.gaussian(amplitude=ic.amplitude, center=-ic.center,
                                        width=ic.width, momentum=-ic.momentum)
    else:
        ic2 = InitialCondition.tabulated(-ic.x_table[::-1], ic.values_table[::-1])
    return pot2, ic2


# ----------------------------------------------------------------------
# tail handling


def _pair_tail(f_outer, f_inner, dist, span):
    """Decay-length tail estimate from two integrand samples near the end.

    f_outer and f_inner are magnitudes: one pair, or arrays of pairs, each
    estimated on its own.
    """
    f_outer, f_inner = np.asarray(f_outer), np.asarray(f_inner)
    flat = f_inner <= f_outer * (1.0 + 1e-9)
    # the masked entries' ratios may divide by zero; their results are unused
    with np.errstate(divide="ignore", invalid="ignore"):
        ell = dist / np.log(f_inner / f_outer)
    ell = np.where(flat, span, np.minimum(ell, span))
    return np.where(f_outer == 0.0, 0.0, f_outer * ell)


def _leg_nodes(leg, outer_at_start):
    """The two samples of a decaying leg near its outer end."""
    return leg.point(np.array([0.0, 0.1]) if outer_at_start else np.array([1.0, 0.9]))


class _OscTail:
    """Integration-by-parts tail of one on-axis ray, cut at u = K.

    The missing piece is int_K^inf A(u) exp(i phi(u, x)) du with
    phi = -t u^2 + c(u) (x - x0) and A slowly varying: the weight times the
    ray's jacobian, without its quadratic phase.  Three integrations by
    parts give the correction and the magnitude of the last term its
    estimate; outside the safely convergent regime a sampled-decay bound on
    |A| replaces both.  Each column is estimated on its own (the slope is
    the column i c A).

    Many tails are estimated at once along leading axes (owner, rung and
    time in a _TailStore): A has shape lead + (m, 4), the four samples of
    each of m columns, c lead + (4,), and K, t, sign and x_offset lead;
    each is broadcast over the leading axes of all of them.

    The derivatives of A and c are one-sided differences with step
    h = 0.05 over the samples at nodes(direction, K).  Steps of 0.02 K (up
    to 1) left the correction off by far more than its estimate where A
    oscillates on its own: a 21-point tabulated Gaussian (d4, K = 52:
    3.4e-9 off against an estimate of 2.0e-9) and the unknowns at an
    interface x = 2.5 (InterfaceMap, K = 45: 2.0e-9 against 1.2e-10).
    """

    h = 0.05

    @classmethod
    def nodes(cls, direction, K):
        """The ray's samples direction * (K - j h), j = 0..3."""
        return direction * (K - cls.h * np.arange(4.0))

    def __init__(self, A, c, K, t, sign, x_offset):
        A = np.asarray(A, dtype=complex)
        c = np.asarray(c, dtype=complex).real
        lead = np.broadcast_shapes(A.shape[:-2], c.shape[:-1], np.shape(K), np.shape(t),
                                   np.shape(sign), np.shape(x_offset))
        self.lead = len(lead)
        # the samples first, then the leading axes (and A's column axis)
        self.A = np.moveaxis(np.broadcast_to(A, lead + A.shape[-2:]), -1, 0)
        self.c = np.moveaxis(np.broadcast_to(c, lead + c.shape[-1:]), -1, 0)
        self.K, self.t, self.sign, self.x0 = (np.broadcast_to(a, lead)
                                              for a in (K, t, sign, x_offset))
        # the sampled-decay bound on |A|, the same at every x
        self.gen = _pair_tail(abs(self.A[0]), abs(self.A[1]), self.h, self.K[..., None])

    def take(self, idx):
        """The tails at the entry idx of the leading axes."""
        idx = np.index_exp[idx]
        s = (slice(None),) + idx
        return _OscTail(np.moveaxis(self.A[s], 0, -1), np.moveaxis(self.c[s], 0, -1),
                        self.K[idx], self.t[idx], self.sign[idx], self.x0[idx])

    def _fd(self, v):
        h = self.h
        d1 = (11.0 * v[0] - 18.0 * v[1] + 9.0 * v[2] - 2.0 * v[3]) / (6.0 * h)
        d2 = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / (h * h)
        d3 = (v[0] - 3.0 * v[1] + 3.0 * v[2] - v[3]) / (h ** 3)
        return d1, d2, d3

    def estimate(self, x):
        """Tail corrections and error estimates at the evaluation points x.

        A point falls back to the sampled-decay bound when a stationary
        point may hide beyond the cut, when the expansion is not safely
        convergent, or when that bound is no larger than the expansion's
        residual.  x has the leading axes (or axes of length 1), then those
        of the points; so do the results, then the column axis.
        """
        x = np.asarray(x, dtype=float)
        n = x.ndim - self.lead
        # a number, or a column, per leading entry, spread over the points
        each = lambda a: np.reshape(a, np.shape(a) + (1,) * (n + 1))
        col = lambda a: a.reshape(a.shape[:-1] + (1,) * n + a.shape[-1:])
        X = (x - np.reshape(self.x0, np.shape(self.x0) + (1,) * n))[..., None]
        t, K = each(self.t), each(self.K)
        c1, c2, c3 = (each(d) for d in self._fd(self.c))
        p1 = -2.0 * t * K + c1 * X
        # a stationary point must not hide beyond the cut
        hidden = ((np.abs(2.0 * t * K) < 1.3 * np.abs(c1 * X))
                  | (np.abs(p1) < 1e-12))
        A0 = col(self.A[0])
        a1, a2, a3 = (col(d) for d in self._fd(self.A))
        g = 1j * np.where(hidden, 1.0, p1)
        gp = 1j * (-2.0 * t + c2 * X)
        gpp = 1j * (c3 * X)
        B1 = A0 / g
        B2 = a1 / g ** 2 - A0 * gp / g ** 3
        B3 = (a2 / g ** 3 - 3.0 * a1 * gp / g ** 4 - A0 * gpp / g ** 4
              + 3.0 * A0 * gp * gp / g ** 5)
        diverging = ((np.abs(B2) > 0.5 * np.abs(B1))
                     | (np.abs(B3) > 0.7 * np.abs(B2) + 1e-300))
        err = np.abs(B3) + 1e-13 * np.abs(B1)
        gen = col(self.gen)
        keep = ~hidden & ~diverging & ~(gen <= err)
        phi0 = -t * K * K + each(self.c[0]) * X
        corr = each(self.sign) * np.exp(1j * phi0) * (-B1 + B2 - B3)
        return np.where(keep, corr, 0.0j), np.where(keep, err, gen)


def _tail_nodes(path, spec):
    """(tag, z) of every weight sample the tails of one truncation need.

    In spec order: two samples near the outer end of each "generic" leg,
    then four on each ray of each "osc" entry (see choose_truncation).
    """
    out = [(path.legs[i].tag, _leg_nodes(path.legs[i], outer_at_start))
           for i, outer_at_start in spec.get("generic", ())]
    for i, rays, K in spec.get("osc", ()):
        out += [(path.legs[i].tag, _OscTail.nodes(d, K)) for d, _ in rays]
    return out


class _TailModel:
    """Truncation tails of integral terms, along leading axes.

    generic holds the summed tails of the decaying legs and oscs the
    _OscTail of each oscillatory ray; both have the leading axes (owner,
    rung and time in a _TailStore, time alone for a term), then the m
    columns, and t is the time of each leading entry.  A term's slope is
    one more column.  model[idx] is the model at the entry idx of the
    leading axes.
    """

    def __init__(self, generic, oscs, t):
        self.generic = generic
        self.oscs = oscs
        self.t = t

    def __len__(self):
        return len(self.t)

    def __getitem__(self, idx):
        return _TailModel(self.generic[idx], [o.take(idx) for o in self.oscs], self.t[idx])

    def worst(self, xs, derivative=False):
        """Largest error estimate at the points xs, over every leading entry
        and column.

        derivative is ignored, the slope being a column already; it stays
        for callers that ask for the value and the slope tails in turn.
        """
        x = np.asarray(xs, dtype=float)
        return float(self.at(x.reshape((1,) * (self.generic.ndim - 1) + x.shape))[1].max())

    def at(self, x):
        """(corrections, estimates) at the points x, with the columns last.

        x has the leading axes (or axes of length 1), then those of the
        points.
        """
        x = np.asarray(x, dtype=float)
        g = self.generic
        generic = g.reshape(g.shape[:-1] + (1,) * (x.ndim + 1 - g.ndim) + g.shape[-1:])
        shape = np.broadcast_shapes(generic.shape, x.shape + (1,))
        corr = np.zeros(shape, dtype=complex)
        err = np.full(shape, generic)
        for o in self.oscs:
            c, e = o.estimate(x)
            corr += c
            err += e
        return corr, err


class IntegralTerm:
    """One contour integral contributing to the solution in one region.

    tails is the term's _TailModel, with a time axis; at time t the sum is
    multiplied by exp(-i level t).  derivative records whether the term was
    searched with the slope, whose columns i c W (_slope) its tails then
    hold after those of W, and _sums probes and sums.
    """

    def __init__(self, path, weight, xcoef, x_offset, tails, level=0.0,
                 derivative=False):
        self.path = path
        self.weight = weight
        self.xcoef = xcoef
        self.x_offset = x_offset
        self.tails = tails
        self.level = level
        self.derivative = derivative

    def damp(self, v):
        """The term's sums v, (times, columns, x), times exp(-i level t)."""
        return np.exp(-1j * self.level * self.tails.t)[:, None, None] * v if self.level else v


class _InterfaceWeight:
    """Weight sgn B[:, col] / (2 pi) of a term, B the interface data of its solver.

    A call of the weight itself (as _w_d4 makes) computes B at its nodes;
    `of` takes the weight from rows B given, as the batches of a panel or
    tail store compute them for all their owners (_columns).
    """

    def __init__(self, solver, col, sgn):
        self.solver, self.col, self.sgn = solver, col, sgn

    def __call__(self, z, tag):
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        return self.of(self.solver._interface_data(z)[0])

    def of(self, B):
        return self.sgn * B[:, self.col] / _TWO_PI


class _Nu:
    """x-coefficient sgn nu(alpha, z) of a term."""

    def __init__(self, alpha, sgn):
        self.alpha, self.sgn = alpha, sgn

    def __call__(self, z, tag):
        return self.sgn * nu(self.alpha, np.asarray(z, dtype=complex))


def _columns(pairs, derivative=False):
    """columns(z, tag, owners) of a panel or tail store whose owners have the
    (weight, xcoef) pairs: per owner, its rows W, then with derivative (a
    tail store's) the slope's rows i c W (_slope), then its row c.

    Interface terms (an _InterfaceWeight and a _Nu each) slice theirs from
    one _interface_data call per batch of nodes; other owners call their
    own weight and xcoef.  A panel store holds only W and c: its probes and
    sums form the slope where they read it.
    """
    def rows(W, c):
        cols = np.vstack((W, c))
        return np.vstack((_slope(cols, True), c)) if derivative else cols

    if not all(isinstance(W, _InterfaceWeight) and isinstance(c, _Nu) for W, c in pairs):
        return lambda z, tag, owners: [rows(pairs[i][0](z, tag), pairs[i][1](z, tag))
                                       for i in owners]
    solver = pairs[0][0].solver
    levels = solver.potential.levels

    def columns(z, tag, owners):
        B, nus = solver._interface_data(z)
        of_level = dict(zip(levels, nus))
        return [rows(W.of(B), c.sgn * of_level[c.alpha])
                for W, c in (pairs[i] for i in owners)]
    return columns


def _slope(cols, derivative):
    """The columns summed of a term's rows [W, c]: W, then with derivative
    the slope's columns i c W, the one place they are formed."""
    W, c = cols[:-1], cols[-1]
    return np.concatenate((W, 1j * c * W)) if derivative else W


# rungs of the truncation ladder whose tails are sampled and tested at once,
# rungs 0-3, 4-7, ... of a ladder (most dense_x and tabulated searches of the
# benchmark accept the fifth or sixth rung, and a search started at the rung
# an earlier term of its region accepted clears within the block sampled
# already: tools/search_rungs.py)
_RUNGS_PER_CALL = 4
# the largest truncation of the ladder; its first rung is 2R, so a radius
# above _MAX_T / 2 is refused (ContourSettings)
_MAX_T = 4000.0


class _TailStore:
    """The truncation tails of every term that searches one ladder in a call.

    The ladder is builder's rungs T0, 1.6 T0, ..., at most 22, the last
    clipped to max_T.  Its owners are the terms that search it, each given
    as (x_offset, x_probe, tolerance) with as many probes.  When a search
    or a lift first reaches a block of _RUNGS_PER_CALL rungs (rungs 0-3,
    4-7, ...), the store samples every owner's tails there in one call of
    columns(z, tag, owners) (_columns) and tests them in one array pass: a
    rung clears for an owner when its worst estimate over the probes and
    columns is within 0.05 of its tolerance at every time.  The weights
    leave the path's phase out, so one sample serves every time.  The rows
    before the last, the slope's i c W among them, are the columns tested.
    """

    def __init__(self, builder, T0, ts, columns, owners, max_T=_MAX_T):
        self.builder = builder
        self.ts = [float(v) for v in np.atleast_1d(ts)]
        self.columns = columns
        self.x0 = np.array([x0 for x0, _, _ in owners], dtype=float)
        self.probes = np.array([np.atleast_1d(np.asarray(xp, dtype=float))
                                for _, xp, _ in owners])
        self.targets = np.array([0.05 * tol for _, _, tol in owners])
        self.rungs = [T0]
        while len(self.rungs) < 22 and self.rungs[-1] < max_T:
            self.rungs.append(min(1.6 * self.rungs[-1], max_T))
        # block b: the (path, spec) of its rungs, their model and whether
        # each (owner, rung) clears
        self.blocks = {}

    def search(self, owner, start):
        """(path, tails) of owner at the first rung from start whose tails
        clear, or else at the last rung; start is a rung of the ladder."""
        r = self.rungs.index(start)
        last = len(self.rungs) - 1
        while r < last and not self._block(r)[2][owner, r % _RUNGS_PER_CALL]:
            r += 1
        return self.rung(owner, self.rungs[r])[1:]

    def rung(self, owner, T):
        """(cleared, path, tails) of owner at the rung T, tails its
        _TailModel at every time."""
        r = self.rungs.index(T)
        built, model, cleared = self._block(r)
        j = r % _RUNGS_PER_CALL
        return bool(cleared[owner, j]), built[j][0], model[owner, j]

    def _block(self, r):
        """The block of rung index r, sampled and tested on first use."""
        b = r // _RUNGS_PER_CALL
        if b not in self.blocks:
            rungs = self.rungs[b * _RUNGS_PER_CALL:(b + 1) * _RUNGS_PER_CALL]
            built = [self.builder(T) for T in rungs]
            model = self._model(rungs, built)
            err = model.at(self.probes[:, None, None, :])[1]
            worst = np.max(err, axis=tuple(range(3, err.ndim)))
            self.blocks[b] = (built, model,
                              np.all(worst <= self.targets[:, None, None], axis=2))
        return self.blocks[b]

    def _model(self, rungs, built):
        """The _TailModel of every owner at the rungs of a block, axes (owner,
        rung, time), from one columns call on all the block's tail nodes.

        The weights w leave out the path's phase, whose rate for time k is
        path.rates[k].  A decaying leg's tail is taken from
        w exp(i rate z^2), and an oscillatory ray's amplitude at
        z = direction u is A = w jac exp(i (rate z^2 + t u^2)): w jac on
        every sector and real-line ray, where rate z^2 = -t u^2 exactly.
        Every rung's spec lists the same legs and rays, which must share
        one tag.
        """
        spec = built[0][1]
        nodes = [_tail_nodes(path, sp) for path, sp in built]
        tags = {tag for each in nodes for tag, _ in each}
        if len(tags) != 1:
            raise ValueError("the tail legs of a truncation must share one tag, "
                             "got {}".format(sorted(tags)))
        # z (rung, node), the nodes of each leg and ray in spec order
        z = np.array([np.concatenate([zs for _, zs in each]) for each in nodes])
        cols = np.array(self.columns(z.ravel(), tags.pop(), range(len(self.x0))),
                        dtype=complex)
        cols = cols.reshape(cols.shape[:2] + z.shape)
        # W (owner, rung, column, node) and c (owner, rung, node)
        W, C = np.moveaxis(cols[:, :-1], 1, 2), cols[:, -1]
        # per leg or ray s: z[s], W[s] and C[s]
        cuts = np.cumsum([zs.size for _, zs in nodes[0]])[:-1]
        z, W, C = (np.split(a, cuts, axis=-1) for a in (z, W, C))
        ts = np.array(self.ts)
        rates = np.array([path.rates for path, _ in built])
        span = np.array(rungs)[None, :, None, None]
        generic = np.zeros((len(self.x0), len(rungs), len(ts), W[0].shape[2]))
        s = 0
        for _ in spec.get("generic", ()):
            phase = np.exp(1j * rates[:, :, None] * (z[s] * z[s])[:, None])
            w = W[s][:, :, None] * phase[None, :, :, None]
            f = np.abs(w)
            dist = np.abs(z[s][:, 1] - z[s][:, 0])[None, :, None, None]
            generic = generic + _pair_tail(f[..., 0], f[..., 1], dist, span)
            s += 1
        sign = np.array([path.sign for path, _ in built])[None, :, None]
        oscs = []
        for e, (_, rays, _) in enumerate(spec.get("osc", ())):
            K = np.array([sp["osc"][e][2] for _, sp in built])
            u = K[:, None] - _OscTail.h * np.arange(4.0)
            for _, jac in rays:
                arg = rates[:, :, None] * (z[s] * z[s])[:, None] \
                    + ts[:, None] * (u * u)[:, None]
                A = (W[s] * jac)[:, :, None] * np.exp(1j * arg)[None, :, :, None]
                oscs.append(_OscTail(A, C[s][:, :, None], K[None, :, None],
                                     ts[None, None, :], sign, self.x0[:, None, None]))
                s += 1
        return _TailModel(generic, oscs, np.broadcast_to(ts, generic.shape[:3]))


def choose_truncation(builder, weight, xcoef, t, x_offset, x_probe, tolerance,
                      T0, derivative=False, max_T=_MAX_T, store=None):
    """Grow the truncation until every tail estimate clears the tolerance.

    builder(T) returns (path, spec); spec lists the open legs, as
    "generic" entries (leg_index, outer_at_start) for exponentially
    decaying legs and "osc" entries (leg_index, ((direction, jacobian), ...), K)
    for on-axis rays handled by the integration-by-parts tail.  A line leg's
    jacobian is its direction; a principal-value leg's two rays both carry
    jacobian +1 because substituting k = -u flips the limits as well.
    t is one time or a sequence of them, one per rate of the path.

    The ladder is T0, 1.6 T0, ..., at most 22 rungs, the last clipped to
    max_T; the first rung whose tails clear 0.05 tolerance at x_probe at
    every time is returned, or else the last.  Returns (path, tails), tails
    the _TailModel of the rung at every time.  A _TailStore samples and
    tests the rungs four at a time, in one weight and one xcoef call: a
    call on a few nodes costs numpy's dispatch as much as one on a hundred.

    store = (_TailStore, i) searches as owner i of that store, whose
    ladder, weight, xcoef, times, offset, probes, tolerance and derivative
    must agree with the arguments; the search starts at its rung T0, which
    may be one an earlier term of its group accepted
    (ContourSettings._search).  Without a store the search is the one owner
    of a store of its own.

    weight may return a stack of m columns, shape (m, N), that share the
    path and xcoef: one search serves them all, and a rung clears when
    every column clears at every time.  With derivative the slope's
    columns i c W follow them (_columns).
    """
    if store is None:
        store = (_TailStore(builder, T0, t, _columns([(weight, xcoef)], derivative),
                            [(x_offset, x_probe, tolerance)], max_T), 0)
    store, owner = store
    return store.search(owner, T0)


def panel_budget(t, xspan, T):
    """Panel budget of a node table truncated at T.

    About three panels per oscillation of exp(i (kappa^2 t + c x)) over
    |kappa| <= T, with xspan the largest |x - x0| of the points summed
    over the table, kept between 2000 and 40000.  t = 0 budgets a table
    whose ray weights carry exp(i kappa^2 t) (a chirp leg).
    """
    cycles = (T * T * abs(t) + T * xspan) / _TWO_PI
    return int(min(40000, max(2000, 3.0 * cycles + 500)))


def _term_tolerance(tolerance, n):
    """Tolerance of each of n terms' node tables.

    choose_truncation accepts tails up to 0.05 of a term's share of the
    tolerance; its table gets the rest, so that the two stay within it.
    """
    return 0.95 * tolerance / max(1, n)


def _term_probes(term, xs):
    """probes(z, cols) of a term's node table, for its sum over xs.

    The integrands at three probe points of xs, from the rows [W, c]
    (_columns): every column summed (_slope), the slope's i c W included,
    times exp(i c (x - x0)) (the value integrands alone left psi_x_error at
    2.3e-6 on a three-jump profile at tolerance 1e-8).
    """
    off = term.x_offset
    dx = np.array(sorted({float(xs.min()), float(xs.max()), float(xs[len(xs) // 2])}))
    dx = (dx - off)[:, None]

    def probes(z, cols):
        F = _slope(cols, term.derivative)
        return (F[:, None] * np.exp(1j * cols[-1] * dx)).reshape(-1, cols.shape[1])
    return probes


def _term_table(term, probes, tolerance, max_panels, store):
    """The node table of a term, as owner store = (PanelStore, i): its rows
    [W, c] (_columns) at every node.

    A build that fails (QuadratureError) is retried once, alone, from the
    same rows of the term's own weight and xcoef at tolerance * 1e4: the
    one place a build is retried.
    """
    rows = _columns([(term.weight, term.xcoef)])
    columns = lambda z, tag: rows(z, tag, (0,))[0]
    try:
        return build_node_table(term.path, columns, tolerance, max_panels=max_panels,
                                probes=probes, store=store)
    except QuadratureError:
        return build_node_table(term.path, columns, tolerance * 1e4,
                                max_panels=max_panels, probes=probes)


def _term_sum(term, table, xs):
    """(values, errors) of a term at xs and every time, each (times, columns,
    x): the columns of W, then with the slope those of psi_x.

    One table_integral call sums the columns of W, then with the slope
    those of i c W (_slope, from the table's rows [W, c]), and one tails.at
    call gives the tail corrections and estimates; a term with a level
    takes exp(-i level t) on its sums and corrections.
    """
    C = table.cols[-1]
    sums, sum_errs = table_integral(table, _slope(table.cols, term.derivative), C,
                                    xs - term.x_offset)
    corr, tail = term.tails.at(xs[None])
    return term.damp(sums + corr.swapaxes(1, 2)), sum_errs + tail.swapaxes(1, 2)


def _sums(parts, tolerance):
    """(values, errors) of each part, [(xs, terms, budget)], over its terms.

    Each of shape (times, columns, x), the terms' sums (_term_sum) added
    in term order.  Each term's node table is refined from three probe
    points of its part's xs (_term_probes), within the part's budget, to
    0.95 of its share of the tolerance over the part's terms (its tails
    take up to 0.05).  The terms that ended on one path, of any part, are
    the owners of one PanelStore, in part and term order; a table is
    summed as soon as it is built and dropped before the next, and a store
    after its last owner.
    """
    out = [[None] * len(terms) for _, terms, _ in parts]
    paths = {}
    for p, (_, terms, _) in enumerate(parts):
        for i, term in enumerate(terms):
            paths.setdefault(id(term.path), []).append((p, i))
    for owners in paths.values():
        terms = [parts[p][1][i] for p, i in owners]
        probes = [_term_probes(term, parts[p][0]) for (p, _), term in zip(owners, terms)]
        store = PanelStore(terms[0].path, _columns(
            [(term.weight, term.xcoef) for term in terms]), probes)
        for k, (p, i) in enumerate(owners):
            xs, part_terms, budget = parts[p]
            table = _term_table(terms[k], probes[k],
                                _term_tolerance(tolerance, len(part_terms)), budget,
                                (store, k))
            out[p][i] = _term_sum(terms[k], table, xs)
            # otherwise this table lives on while the next term builds its own
            del table
    return [tuple(sum(a) for a in zip(*sums)) for sums in out]


def eval_terms(terms, xs, tolerance, max_panels=2000):
    """Sum the integral terms over a batch of x values, at every time.

    The one part (xs, terms, max_panels) of _sums: (values, errors), each
    of shape (times, columns, x).  The terms' paths share their rates, one
    per time, and the terms share their slope flag (IntegralTerm.derivative).
    """
    return _sums([(np.asarray(xs, dtype=float), terms, max_panels)], tolerance)[0]


class ContourSettings:
    """Potential, initial data and contour settings, validated once.

    tolerance is the absolute quadrature target per evaluated point and must
    be finite and positive.  radius (default max(1, 1.25 sqrt(2 Lambda)))
    must clear the branch scale sqrt(2 Lambda) and be at most _MAX_T / 2 =
    2000, so that the first truncation rung 2R lies on the ladder and the
    chirp ray starts as at most 1000 pieces.  Both must be real numbers: a
    bool or a string is refused, naming the field.  A default radius that
    fails names the potential, whose levels set it.  The open legs tilt by
    the constant delta: by Cauchy's theorem every tilt in (0, pi/4) gives
    the same psi.
    """

    delta = np.pi / 8.0

    def __init__(self, potential, ic, tolerance=1e-8, radius=None):
        tol = _number(tolerance, "tolerance")
        if not (np.isfinite(tol) and tol > 0.0):
            raise ValueError(
                "tolerance must be finite and positive, got {!r}".format(tolerance))
        self.potential = potential
        self.ic = ic
        self.tolerance = tol
        lam = potential.lam
        self.radius = _number(radius, "radius") if radius is not None else \
            max(1.0, 1.25 * np.sqrt(2.0 * lam))
        R = self.radius
        if not np.sqrt(2.0 * lam) < R <= 0.5 * _MAX_T:
            what = "radius {}" if radius is not None else \
                "potential levels give the default radius {}, which"
            raise ValueError(
                (what + " must clear the branch scale sqrt(2*Lambda) = {:.6g} and "
                 "be at most {:g}, half the largest truncation").format(
                    R, np.sqrt(2.0 * lam), 0.5 * _MAX_T))

    def _initial_samples(self, xs, derivative=False):
        """Samples of the initial data at the points xs: t = 0, error 0."""
        xs = np.asarray(xs, dtype=float)
        v = np.asarray(self.ic.evaluate(xs), dtype=complex).tolist()
        dv = np.asarray(self.ic.derivative(xs), dtype=complex).tolist() \
            if derivative else [None] * len(v)
        return [SolutionSample(x, 0.0, value, 0.0, psi_x=slope)
                for x, value, slope in zip(xs.tolist(), v, dv)]

    @staticmethod
    def _times(t):
        """The times t as a list: one time or a nonempty 1-D sequence, finite and >= 0."""
        ts = _reals(t)
        if ts is None or ts.ndim > 1 or ts.size == 0 or \
                not np.all((ts >= 0.0) & (ts < np.inf)):
            raise ValueError("t must be real, finite and nonnegative, one time or a "
                             "nonempty sequence of them, got {!r}".format(t))
        return ts.ravel().tolist()

    def sector(self, quad, t):
        """Truncation builder T -> (path, tail spec) on a sector boundary.

        t is one time or a sequence of them.  quad 4 is the fourth-quadrant
        boundary in kappa, 3 and 1 the third- and first-quadrant ones; the
        last leg, on the imaginary axis (4), the negative (3) or the
        positive (1) real axis, is the oscillatory ray.  With tmax the
        largest time, while R^2 tmax <= 2 the path is the rotated boundary
        with its full radius-R arc, on which |exp(+-i kappa^2 t)| stays
        within e^2 for every t <= tmax.  Beyond, the arc keeps only its part
        in the decay sector and the growth quadrant is crossed on the corner
        legs of rotated_boundary through the hyperbola p q = 1/tmax, where
        that factor stays within exp((1 + rho)^2 / (2 rho)) <= exp(9/4) (rho
        the ratio between the corner points, 1.5 at R^2 t = 25), instead of
        reaching exp(R^2 t).

        The path's weights carry exp(+-i kappa^2 t), one set per time (rates
        t in quadrant 4, -t in 3 and 1), which a weight leaves out.  The ray
        is a chirp leg (Leg.chirp), whose weights integrate that factor
        exactly, started as ceil((T - R) / 2) equal pieces in v = u^2.

        The builder is a value (_Sector), equal for equal (solver, quad,
        rates), so that the terms of all regions on it climb one ladder
        (ContourSettings._search), whose tail store builds each rung's path
        once; a built path is never modified.
        """
        ts = tuple(float(v) for v in np.atleast_1d(t))
        return _Sector(self, quad, ts if quad == 4 else tuple(-v for v in ts))

    def _search(self, groups, ts, derivative):
        """The IntegralTerms of each group (xs, specs, probes) at the times ts.

        specs are the group's terms as _declare lists them, probes the
        points where their tails are tested; each term gets the tolerance
        over the number of its group's terms.  The terms of every group on
        one ladder (the same builder and first rung T0) are the owners of
        one _TailStore, in group and term order, and each searches it with
        choose_truncation.  Within a group, terms on one ladder share one
        truncation where their tails allow it: each term's search starts at
        the highest rung an earlier term of the group on its ladder
        accepted, and a term that accepted a lower rung than a later one is
        then lifted to that top rung when its tails clear there.  The lift
        reads the store, which sampled and tested the top rung with the
        search that accepted it (_TailStore.rung); a term whose tails do not
        clear there keeps its own rung.  The terms then lie on one path, so
        their node tables share the nodes of its rotated leg and chirp ray
        as well as those of its arc and corner legs.
        """
        ladders = {}
        for _, specs, probes in groups:
            tol = self.tolerance / len(specs)
            for W, xc, x0, builder, T0, _ in specs:
                ladders.setdefault((builder, T0), []).append((W, xc, x0, probes, tol))
        stores = {key: _TailStore(*key, ts, _columns([o[:2] for o in owners], derivative),
                                  [o[2:] for o in owners])
                  for key, owners in ladders.items()}
        # the next owner of each store
        owner = dict.fromkeys(stores, 0)
        out = []
        for _, specs, probes in groups:
            tol = self.tolerance / len(specs)
            # the highest rung accepted on each ladder; a rung's path reaches
            # exactly its truncation
            top, found = {}, []
            for W, xc, x0, builder, T0, _ in specs:
                key = builder, T0
                path, tails = choose_truncation(builder, W, xc, ts, x0, probes, tol,
                                                top.get(key, T0), derivative=derivative,
                                                store=(stores[key], owner[key]))
                top[key] = path.reach()
                found.append((key, owner[key], path, tails))
                owner[key] += 1
            terms = []
            for (W, xc, x0, _, _, level), (key, i, path, tails) in zip(specs, found):
                if path.reach() < top[key]:
                    cleared, lifted, lifted_tails = stores[key].rung(i, top[key])
                    if cleared:
                        path, tails = lifted, lifted_tails
                terms.append(IntegralTerm(path, W, xc, x0, tails, level, derivative))
            out.append(terms)
        return out

    def _integrals(self, groups, ts, derivative):
        """(values, errors) of each group (xs, specs, probes), each (times,
        columns, x): the sums over xs of its terms (_search, then _sums).

        A group's panel budget is that of its largest truncation and its
        largest |x - x0|, at time 0 when every term ends on a chirp ray
        (panel_budget), else at the largest time.  The tail stores, with
        every block they sampled, are done before any table is built.
        """
        parts = []
        for (xs, _, _), terms in zip(groups, self._search(groups, ts, derivative)):
            T = max(tm.path.reach() for tm in terms)
            xspan = max(np.max(np.abs(xs - tm.x_offset)) for tm in terms)
            chirped = all(tm.path.legs[-1].kind == "chirp" for tm in terms)
            parts.append((xs, terms, panel_budget(0.0 if chirped else max(ts), xspan, T)))
        return _sums(parts, self.tolerance)


@dataclass(frozen=True)
class _Sector:
    """The truncation builder of ContourSettings.sector: settings, quad and
    the path's rates."""

    settings: ContourSettings
    quad: int
    rates: tuple

    def __call__(self, T):
        R, quad = self.settings.radius, self.quad
        tmax = max(self.rates) if quad == 4 else -min(self.rates)
        corner = 1.0 / tmax if R * R * tmax > 2.0 else None
        path = rotated_boundary(quad, R, T, self.settings.delta,
                                lam=self.settings.potential.lam, corner=corner)
        leg = path.legs[-1]
        n = int(np.ceil((T - R) / 2.0))
        path.legs[-1] = Leg.chirp(leg.z0, leg.z1, label=leg.label,
                                  splits=np.arange(1, n) / n)
        path.rates = self.rates
        ray = {4: -1j, 3: -1.0, 1: 1.0}[quad]
        return path, {"generic": [(0, True)],
                      "osc": [(len(path.legs) - 1, ((ray, ray),), T)]}


class ContourSolver(ContourSettings):
    """Region-by-region evaluation of declared integral terms.

    _declare(region, ts) lists the region's terms at the times ts as
    (weight, xcoef, x0, builder, T0, level): the weight W(z, tag), the
    x-coefficient c(z, tag), the offset x0 of exp(i c (x - x0)), the
    truncation builder (see choose_truncation) and the first rung T0 of its
    ladder, and the level alpha of a term whose integrand carries
    exp(-i alpha t) (0 for none); terms with the same builder and T0 climb
    one ladder (_search).  Region j has one term per neighbouring
    jump on the fourth-quadrant sector boundary, whose weights carry
    exp(i kappa^2 t), with T0 = 2R: at its right jump x_j with c = -nu_j
    and weight -B / (2 pi), at its left jump x_{j-1} with c = +nu_j and
    weight +B / (2 pi).  _interface_data(z), the one hook, gives the
    interface combinations B of all terms as an (N, 2n) array, one row per
    node: column 2l - 2 is the term of region l at its right jump x_l,
    column 2l - 1 the term of region l + 1 at its left jump x_l; with B it
    returns the stack nu_1..nu_{n+1} of the levels at the nodes.  Here B
    comes from the unknowns of the interface system, which a closed form
    (WellSolver) may replace.  No weight depends on t.  The reported error
    estimate adds truncation residuals to the quadrature error, so it stays
    honest when the tolerance is out of reach.

    A call is one group per region for the call plan of ContourSettings
    (_integrals): every region's truncations are searched before any table
    is built, its fourth-quadrant terms climb one ladder and search one
    tail store, and a region's terms share one rung where their tails allow
    it (_search), so that their tables share the nodes of the whole path.
    _sums then builds and sums every term, the terms on one path over one
    panel store.  Both stores solve the interface data once per batch of
    nodes for all their terms (_columns), so a tail sample is solved once
    per ladder and a table node at most once per rung path that evaluates
    it.  Outputs are those of every term computing every node afresh, and
    a call restricted to one region gives the same bits there.  A call
    keeps nothing on the solver.
    """

    def _declare(self, region, ts):
        pot = self.potential
        alpha = pot.level(region)
        sides = []
        if region <= pot.njumps:
            sides.append(("right", -1.0, pot.interfaces[region - 1]))
        if region >= 2:
            sides.append(("left", 1.0, pot.interfaces[region - 2]))
        # one builder: the region's terms climb one ladder (see _search)
        builder = self.sector(4, ts)
        return [(self._weight(region, side), _Nu(alpha, sgn), x0, builder,
                 2.0 * self.radius, 0.0)
                for side, sgn, x0 in sides]

    def _weight(self, region, side):
        """Weight -+B / (2 pi) of the term at one jump.

        The integrand is -+exp(i kappa^2 t) B / (2 pi); the quadrature
        weights of the sector(4, ts) path carry exp(i kappa^2 t).
        """
        if side == "right":
            return _InterfaceWeight(self, 2 * region - 2, -1.0)
        return _InterfaceWeight(self, 2 * region - 3, 1.0)

    def _interface_data(self, z):
        """(B, nus): the interface combination B of every term, shape (N, 2n),
        and the stack nu_1..nu_{n+1} at z (potential.nus).

        From the unknowns X of the interface system (X_l is g0 and X_{n+l}
        is i g1 at x_l): z (X_{n+l}/nu_l + X_l) for region l at its right
        jump x_l and z (X_{n+l}/nu_{l+1} - X_l) for region l + 1 at its
        left jump x_l, with the nus solve_unknowns solved with.
        """
        # imported here: general imports this module
        from .general import solve_unknowns
        n = self.potential.njumps
        X, nus = solve_unknowns(self.potential, self.ic, z)
        B = np.empty((z.size, 2 * n), dtype=complex)
        for ell in range(n):
            B[:, 2 * ell] = z * (X[:, n + ell] / nus[ell] + X[:, ell])
            B[:, 2 * ell + 1] = z * (X[:, n + ell] / nus[ell + 1] - X[:, ell])
        return B, nus

    def _probes(self, region, xmax):
        """Tail probes of a region whose points reach |x| = xmax: its bounds
        clipped to +-max(1, xmax), where every time's tails are tested."""
        xb = max(1.0, xmax)
        lo, hi = self.potential.region_bounds(region)
        return (max(lo, -xb), min(hi, xb))

    def _terms(self, region, t, derivative, xmax):
        """The region's terms at the time or times t, truncated for |x| up to
        xmax: the one group of a _search, with stores of its own."""
        group = (None, self._declare(region, t), self._probes(region, xmax))
        return self._search([group], t, derivative)[0]

    def evaluate(self, x, t, region=None, derivative=False):
        return self.evaluate_grid([x], t, region=region, derivative=derivative)[0]

    def evaluate_grid(self, xs, t, region=None, derivative=False):
        """Solution samples at the finite points xs and the time t >= 0.

        t may also be a nonempty sequence of times; the samples then come
        time-major: every x at the first time given, then every x at the
        next.  One node table per term serves every time, with one set of
        weights per distinct time t > 0 on the path of the largest
        (ContourSettings.sector), and one free_term call gives every free
        term.  t = 0 gives the initial samples.  Each x is evaluated in its
        own region (an interface point in the one on its right) unless
        region, 1..nregions, forces one for all of them.  derivative, True
        or False, adds psi_x and its error to every sample.
        """
        derivative = _flag(derivative)
        pts = _reals(xs)
        if pts is None or pts.ndim != 1 or not np.all(np.isfinite(pts)):
            raise ValueError("x must be a 1-D sequence of finite real points, "
                             "got {!r}".format(xs))
        xs = pts
        ts = self._times(t)
        nreg = self.potential.nregions
        if region is not None and (_is_bool(region) or region not in range(1, nreg + 1)):
            raise ValueError("region must be a number in 1..{}, got {!r}".format(
                nreg, region))
        live = sorted({v for v in ts if v > 0.0})
        rows = self._solve(xs, live, region, derivative) if live else {}
        if 0.0 in ts:
            rows[0.0] = self._initial_samples(xs, derivative)
        return [s for v in ts for s in rows[v]]

    def _solve(self, xs, live, region, derivative):
        """{t: samples at xs} for the increasing positive times live."""
        if region is None:
            regions = np.searchsorted(self.potential.interfaces, xs, side="right") + 1
        else:
            regions = np.full(xs.shape, region)
        nt = len(live)
        free = free_term(self.ic, self.potential, np.tile(regions, nt), np.tile(xs, nt),
                         np.repeat(live, xs.size), derivative=derivative)
        # (times, columns, x), the layout of _sums: psi, then psi_x
        F = np.reshape(free, (1 + derivative, nt, xs.size)).swapaxes(0, 1)
        rows = {t: [None] * xs.size for t in live}
        # one group per region, all searched before any table is built
        idxs, groups = [], []
        for j in map(int, np.unique(regions)):
            idxs.append(np.where(regions == j)[0])
            sub = xs[idxs[-1]]
            groups.append((sub, self._declare(j, live),
                           self._probes(j, float(np.max(np.abs(sub))))))
        for idx, (sub, _, _), (vals, errs) in zip(idxs, groups,
                                                   self._integrals(groups, live, derivative)):
            for k, t in enumerate(live):
                # value, error, then psi_x and its error with the slope
                cols = [c for v, e in zip((F[k][:, idx] + vals[k]).tolist(),
                                          errs[k].tolist()) for c in (v, e)]
                for i, x, *sample in zip(idx.tolist(), sub.tolist(), *cols):
                    rows[t][i] = SolutionSample(x, t, *sample)
        return rows


class StepSolver(ContourSolver):
    """Solution of the jump problem with levels (alpha_1, alpha_2) at x = 0.

    representation picks the contour form: 'd4', 'quadrant' or 'realline';
    each region carries one term with offset 0.  The d4 form takes the
    shared fourth-quadrant terms with the unknowns of the 2x2 interface
    system, the same code as GeneralSolver; quadrant and realline declare
    their own.
    """

    def __init__(self, potential, ic, representation="d4", tolerance=1e-8, radius=None):
        if potential.njumps != 1:
            raise ValueError("StepSolver handles exactly one interface; "
                             "use GeneralSolver for more")
        if representation not in ("d4", "quadrant", "realline"):
            raise ValueError("unknown representation {!r}".format(representation))
        if representation == "realline" and potential.levels[1] < potential.levels[0]:
            raise ValueError(
                "the realline representation needs an upward jump "
                "(alpha_2 >= alpha_1); mirror the problem with mirrored() first")
        super().__init__(potential, ic, tolerance, radius)
        self.representation = representation

    # bound in the class's own namespace, where the benchmark's tracer
    # (perfbench/tracing.py) looks the method up
    evaluate_grid = ContourSolver.evaluate_grid

    # -- weights ---------------------------------------------------------

    def _w_d4(self, region, t):
        # the whole d4 integrand, exp(i kappa^2 t) included, for a path of
        # rate 0, under the name perfbench/tests binds
        W = self._weight(region, "right" if region == 1 else "left")
        return lambda z, tag: np.exp(1j * z * z * t) * W(z, tag)

    def _sigma1(self, k):
        a1, a2 = self.potential.levels
        d1 = a1 - a2
        k = np.asarray(k, dtype=complex)
        if d1 >= 0.0:
            return sigma(d1, k)
        a = -d1
        on_cut = (k.imag == 0.0) & (np.abs(k.real) < np.sqrt(a))
        out = np.empty(k.shape, dtype=complex)
        if np.any(on_cut):
            out[on_cut] = sigma_below(a, k[on_cut].real)
        rest = ~on_cut
        if np.any(rest):
            out[rest] = sigma(d1, k[rest])
        return out

    def _w_quadrant(self, region):
        # exp(-omega t) without the exp(-i kappa^2 t) of the path's weights
        # and the exp(-i alpha t) of the term's level
        a1, a2 = self.potential.levels
        ic, pot = self.ic, self.potential

        if region == 1:
            def W(z, tag):
                z = np.asarray(z, dtype=complex)
                s1 = self._sigma1(z)
                h1, h2 = hat_transform(ic, pot, (1, 2), np.stack((-z, z * s1)))
                return (-(1.0 - s1) * h1 - 2.0 * h2) / (_TWO_PI * (1.0 + s1))
            return W

        def W(z, tag):
            z = np.asarray(z, dtype=complex)
            s2 = sigma(a2 - a1, z)
            h1, h2 = hat_transform(ic, pot, (1, 2), np.stack((z * s2, -z)))
            return (2.0 * h1 + (1.0 - s2) * h2) / (_TWO_PI * (1.0 + s2))
        return W

    def _w_cut_jump(self):
        a1, a2 = self.potential.levels
        a = a2 - a1
        ic, pot = self.ic, self.potential

        def W(z, tag):
            y = np.asarray(z, dtype=complex).imag
            q = np.sqrt(np.maximum(a - y * y, 0.0))
            s = np.minimum(q / np.maximum(y, 1e-280), 1e12)
            A, bm, bp = hat_transform(ic, pot, (2, 1, 1), np.stack((-1j * y, -q, q)))
            jump = (-4j * s * A + 2.0 * (bm - bp) - 2j * s * (bm + bp)) / (1.0 + s * s)
            return jump / _TWO_PI
        return W

    def _realline_weight(self, region):
        base = self._w_quadrant(region)
        if region == 1:
            return base
        cutw = self._w_cut_jump()

        def W(z, tag):
            if tag == "cut-difference":
                return cutw(z, tag)
            return base(z, tag)
        return W

    # -- term declarations -------------------------------------------------

    def _declare(self, region, ts):
        if self.representation == "d4":
            return super()._declare(region, ts)
        level = self.potential.level(region)
        ident = lambda z, tag: np.asarray(z, dtype=complex)
        quad = 3 if region == 1 else 1
        if self.representation == "quadrant":
            return [(self._w_quadrant(region), ident, 0.0, self.sector(quad, ts),
                     2.0 * self.radius, level)]
        a1, a2 = self.potential.levels
        a = a2 - a1
        cut = np.sqrt(a) if a > 0.0 else None
        rates = tuple(-float(v) for v in np.atleast_1d(ts))
        builder = lambda L: (replace(deform_to_real_line(quad, L, cut=cut), rates=rates),
                             {"osc": [(0, ((1.0, 1.0), (-1.0, 1.0)), L)]})
        return [(self._realline_weight(region), ident, 0.0, builder,
                 max(4.0, 2.0 * self.radius), level)]
