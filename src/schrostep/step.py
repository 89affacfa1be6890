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
forms, which their terms take on their sums (IntegralTerm.damp).  The ray of every sector path
is a chirp leg (contours.Leg.chirp), whose weights integrate that phase
exactly, so its panels resolve only the transforms and the x factor
exp(i c (x - x0)), which still oscillates there (c is real on the ray).

The half-line transforms in the weights decay only like 1/kappa, so the
legs that stay on an axis carry oscillatory tails that no absolute
truncation can afford.  Those legs are cut at a moderate point and the
remainder is summed by repeated integration by parts in the phase
exp(i(-t u^2 + c(u) x)); the magnitude of the last kept correction doubles
as the error estimate, and a sampled-decay bound takes over whenever the
expansion is not safely convergent.  The expansion's amplitude is the
weight times the path's phase, without exp(-i t u^2) (_TailModel).

The module also holds the evaluation core of every contour solver.  In each
region the solution is a free term plus integral terms
W(kappa) * exp(i c(kappa) (x - x0)) over a contour, with W independent of
x; only W, c, x0, the contour builder and the first truncation T0 change
from one profile to another.  `ContourSettings` validates the settings
(tolerance, the radius guard; delta is a constant) and builds the sector
contours; `ContourSolver` declares the fourth-quadrant terms of every
region and adds the truncation search at the region bounds, the panel
budget and `evaluate_grid`.  One hook, `_interface_data(z)`, gives the
interface combination B of every term at once, one row per node and two
columns per jump l: column 2l - 2 for region l at its right jump x_l and
column 2l - 1 for region l + 1 at its left jump x_l.  By default B is
built from the unknowns of the interface system (`general.solve_unknowns`),
which serves `GeneralSolver` and the d4 form of `StepSolver` alike, since a
single jump is its n = 1 case; `WellSolver`, the last closed form,
overrides the hook with its four transforms and numerators.  Within one
evaluate_grid call the sector path of each truncation rung is built once,
whichever term tries it first.  The truncation searches of all terms on
one ladder, of any region, read one tail store (_TailStore), which
samples the tails of each block of rungs once for all of them and tests
them in one array pass.  The terms of one region share one truncation
rung where their tails allow it, so that their node tables share the
nodes of the whole path (ContourSolver._terms), and the tables of all
terms on one path, of any region, are refined over one store of
evaluated panels, which computes the rows of each span once for all of
them.  A term's weight called itself (a table alone on its path)
computes the rows at its nodes.  A tail sample is so solved once per
ladder, and a node of a table at most once per rung path that evaluates
it: only the arc and corner legs, which every rung shares, can repeat,
when regions end on different rungs.
`StepSolver` also overrides `_declare` for its quadrant and realline forms,
which share no nodes between regions.
A whole grid of x values, at every time of a call, reuses one node table
per term, whose W and c columns are evaluated once per node while it is
refined: the path carries one set of weights per time (ContourPath.rates),
and a term whose integrand carries exp(-i alpha t) besides (the quadrant
and realline forms) takes that factor on its sum, so no weight depends on
t.  One phased table_integral call sums the term at every x of the grid
and every time, and one free_term call gives every free term of the call.

The truncation search and the sum serve a stack of columns that share one
path and one x-coefficient, as InterfaceMap's psi and psi_x columns do:
one search accepts the first rung at which every column clears at every
time, and one table_integral call sums every column at every time.  The
slope psi_x of a term is such a column, the integral of i c W
exp(i c (x - x0)): the tail store stacks i c W under W in its tail
samples, so the slope tails are a column of the term's tail models, and
the sum stacks it on W.  Whether a term carries the slope is decided
once, when it is searched, and recorded on the term
(IntegralTerm.derivative), from which its node table and its sum read it;
its tails hold it as a column.
"""

from dataclasses import replace

import numpy as np

from .contours import (Leg, PanelStore, QuadratureError, build_node_table,
                       deform_to_real_line, rotated_boundary, table_integral)
from .kernels import SolutionSample, nu
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
    ray's jacobian, without its quadratic phase (see _TailModel).  Three
    integrations by parts give the correction; the magnitude of the last
    term is the residual estimate.  Outside the safely convergent regime the
    correction is dropped and a sampled-decay bound on |A| is returned
    instead.  Each column of a stack is estimated on its own; the slope
    psi_x of a term is one more column, i c A, and needs no case of its own.

    The tails of many terms, rungs and times are estimated at once along
    leading axes (owner, rung and time in a _TailStore; none for one term
    at one time).  A has shape lead + (m, 4), the four samples of each of
    m columns, and c, the samples of the x-coefficient, lead + (4,), with
    axes of length 1 where it does not vary; K, t, sign and x_offset are
    numbers or arrays with as many axes as lead.

    The derivatives of A and c come from one-sided differences with step
    h = 0.05 over the samples A and c of the amplitude and the
    x-coefficient at nodes(direction, K).  Steps of 0.02 K (up to 1) left
    the correction off by far more than its estimate where A oscillates on
    its own: a 21-point tabulated Gaussian (d4, K = 52: 3.4e-9 off against
    an estimate of 2.0e-9) and the unknowns at an interface x = 2.5
    (InterfaceMap, K = 45: 2.0e-9 against 1.2e-10).
    """

    h = 0.05

    @classmethod
    def nodes(cls, direction, K):
        """The ray's samples direction * (K - j h), j = 0..3."""
        return direction * (K - cls.h * np.arange(4.0))

    def __init__(self, A, c, K, t, sign, x_offset):
        # the samples first, then the leading axes (and A's column axis)
        self.A = np.moveaxis(np.asarray(A, dtype=complex), -1, 0)
        self.c = np.moveaxis(np.asarray(c, dtype=complex).real, -1, 0)
        self.lead = self.c.ndim - 1
        self.K = K
        # the sampled-decay bound on |A|, the same at every x
        self.gen = _pair_tail(abs(self.A[0]), abs(self.A[1]), self.h,
                              np.reshape(K, np.shape(K) + (1,)))
        self.t = t
        self.sign = sign
        self.x0 = x_offset

    def take(self, idx):
        """The tail at the entry idx of the leading axes."""
        pick = lambda a: float(a[_entry(idx, a.shape)])
        c = self.c[(slice(None),) + _entry(idx, self.c.shape[1:])]
        return _OscTail(np.moveaxis(self.A[(slice(None),) + idx], 0, -1), c,
                        pick(self.K), pick(self.t), pick(self.sign), pick(self.x0))

    def _fd(self, v):
        h = self.h
        d1 = (11.0 * v[0] - 18.0 * v[1] + 9.0 * v[2] - 2.0 * v[3]) / (6.0 * h)
        d2 = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / (h * h)
        d3 = (v[0] - 3.0 * v[1] + 3.0 * v[2] - v[3]) / (h ** 3)
        return d1, d2, d3

    def estimate(self, x):
        """Tail corrections and error estimates at the evaluation points x.

        The branch rules apply point by point: a point falls back to the
        sampled-decay bound when a stationary point may hide beyond the cut,
        when the expansion is not safely convergent, or when that bound is
        already no larger than the expansion's residual.  x has the leading
        axes (or axes of length 1 against them), then those of the points;
        the results have the same axes, then the column axis.
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


def _entry(idx, shape):
    """The index of entry idx in an array of that shape, whose axes of length 1
    broadcast against idx's."""
    return tuple(i if n > 1 else 0 for i, n in zip(idx, shape))


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
    """Truncation tails of integral terms: of one term at one time, or of many.

    generic holds the summed tails of the decaying legs and oscs the
    _OscTail of each oscillatory ray.  Both have the leading axes of the
    tails modelled (owner, rung and time in a _TailStore, none for one term
    at one time) and a last axis for the m columns of a stack; t is the
    time of each leading entry, and model[idx] the model at one entry.
    stack is (m,), or () for a single column, whose axis `at` drops: `at`
    returns the columns on a last axis, after those of x, and `worst` takes
    the largest over the columns too.  With the slope, the samples stack
    i c W under W (_TailStore), so psi_x is one more column of the model.
    _TailStore._model builds the models from the weights' samples.
    """

    def __init__(self, generic, oscs, stack, t):
        self.generic = generic
        self.oscs = oscs
        self.stack = stack
        self.t = t

    def __getitem__(self, idx):
        return _TailModel(self.generic[idx], [o.take(idx) for o in self.oscs],
                          self.stack, float(self.t[_entry(idx, self.t.shape)]))

    def worst(self, xs):
        """Largest tail error estimate over the columns and the probe points."""
        return float(self.at(xs)[1].max())

    def at(self, x):
        """Tail corrections and error estimates at the points x.

        x has the leading axes (or axes of length 1 against them), then
        those of the points: any array for a model without leading axes.
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
        return (corr, err) if self.stack else (corr[..., 0], err[..., 0])


class _Tails(tuple):
    """The _TailModel of each time of a term, in the order of its path's rates."""

    def worst(self, xs, derivative=False):
        """Largest tail error estimate over the times, columns and probe points.

        derivative is ignored: a search with the slope holds it as a column
        of every model already.  The keyword stays for callers that ask for
        the value tails and the slope tails one after the other and take the
        larger, as the benchmark's tracer does; both calls return this max.
        """
        return float(np.max([m.worst(xs) for m in self]))


class IntegralTerm:
    """One contour integral contributing to the solution in one region.

    tails holds one _TailModel per rate of the path, that is per time; at
    time t the term's sum is multiplied by exp(-i level t).  derivative
    records whether the term was searched with the slope, whose tails are
    then the second column of every model: eval_terms sums psi_x exactly
    when it is set.
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

    def damp(self, t, v):
        """The values v of the term's sum at time t, times exp(-i level t)."""
        return np.exp(-1j * self.level * t) * v if self.level else v


class _InterfaceWeight:
    """Weight sgn B[:, col] / (2 pi) of a term, B the interface data of its solver.

    A call of the weight itself (a table alone on its path, the retry at
    tolerance * 1e4, a search without a tail store) computes B at its
    nodes; `of` takes the weight from rows B given, as the batches of a
    panel store and of a tail store compute them for all their owners
    (ContourSolver._store_columns).
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


def _plain_columns(pairs):
    """columns(z, tag, owners) of a store whose owners have the (weight, xcoef) pairs.

    Each owner's (W, c) from its own weight and xcoef calls.
    """
    return lambda z, tag, owners: [(pairs[i][0](z, tag), pairs[i][1](z, tag))
                                   for i in owners]


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
    clipped to max_T; each rung is the one before times 1.6.  Its owners
    are the terms that search it, each given as (x_offset, x_probe,
    tolerance); every owner probes as many points.  The store samples the
    tail nodes of a block of _RUNGS_PER_CALL rungs (rungs 0-3, 4-7, ...)
    once for all its owners, in one call of columns(z, tag, owners) per leg
    tag: the columns function of a PanelStore, whose entry per owner
    unpacks as (W, c), W one column or a stack of m, shape (m, len(z)).
    The weights leave the path's phase out, so one sample serves every
    time.  With derivative the m columns W get the m columns i c W, the
    integrands of the slope, stacked under them.  It then tests the tails
    of every owner at every rung of the block and every time in one array
    pass: one _TailModel with the leading axes (owner, rung, time),
    evaluated at each owner's probes.  A rung clears for an owner when the
    worst estimate over its probes and columns is within 0.05 of its
    tolerance at every time.  A block is sampled when a search or a lift
    first reaches it; `search` and `rung` read its decisions and models.
    """

    def __init__(self, builder, T0, ts, columns, owners, derivative=False,
                 max_T=_MAX_T):
        self.builder = builder
        self.ts = [float(v) for v in np.atleast_1d(ts)]
        self.columns = columns
        self.x0 = np.array([x0 for x0, _, _ in owners], dtype=float)
        self.probes = np.array([np.atleast_1d(np.asarray(xp, dtype=float))
                                for _, xp, _ in owners])
        self.targets = np.array([0.05 * tol for _, _, tol in owners])
        self.derivative = derivative
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
        """(cleared, path, tails) of owner at the rung T, tails a _Tails."""
        r = self.rungs.index(T)
        built, model, cleared = self._block(r)
        j = r % _RUNGS_PER_CALL
        return (bool(cleared[owner, j]), built[j][0],
                _Tails(model[owner, j, k] for k in range(len(self.ts))))

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

    def _sample(self, nodes):
        """(W, c, stack): every owner's samples at each (tag, z) of nodes, one
        columns call per tag.

        W of shape (owners, columns, len(z)), c (owners, len(z)), and stack
        the models' column axis: () for one column without the slope.
        """
        W, C = [None] * len(nodes), [None] * len(nodes)
        owners = range(len(self.x0))
        for tag in dict.fromkeys(tag for tag, _ in nodes):
            idx = [i for i, (g, _) in enumerate(nodes) if g == tag]
            z = np.concatenate([nodes[i][1] for i in idx])
            cols = self.columns(z, tag, owners)
            w = np.stack([np.asarray(wi, dtype=complex).reshape(-1, z.size)
                          for wi, _ in cols])
            c = np.stack([np.asarray(ci, dtype=complex) for _, ci in cols])
            stack = (2 * w.shape[1],) if self.derivative else \
                (w.shape[1],) if np.ndim(cols[0][0]) > 1 else ()
            if self.derivative:
                w = np.concatenate((w, 1j * c[:, None] * w), axis=1)
            cuts = np.cumsum([nodes[i][1].size for i in idx])[:-1]
            for i, wi, ci in zip(idx, np.split(w, cuts, axis=-1),
                                 np.split(c, cuts, axis=-1)):
                W[i], C[i] = wi, ci
        return W, C, stack

    def _model(self, rungs, built):
        """The _TailModel of every owner at the rungs of a block, at every time.

        The weights w leave out the path's phase, whose rate for time k is
        path.rates[k].  A decaying leg's tail is taken from
        w exp(i rate z^2), and an oscillatory ray's amplitude at
        z = direction u is A = w jac exp(i (rate z^2 + t u^2)), without the
        expansion's exp(-i t u^2): w jac on every sector and real-line ray,
        where rate z^2 = -t u^2 exactly.  Every rung's spec lists the same
        legs and rays.
        """
        spec = built[0][1]
        nodes = [_tail_nodes(path, sp) for path, sp in built]
        W, C, stack = self._sample([nd for each in nodes for nd in each])
        # per sample slot of a rung: its nodes (rung, n), W (owner, rung,
        # column, n) and c (owner, rung, n)
        slots = len(nodes[0])
        z = [np.stack([each[s][1] for each in nodes]) for s in range(slots)]
        W = [np.stack(W[s::slots], axis=1) for s in range(slots)]
        C = [np.stack(C[s::slots], axis=1) for s in range(slots)]
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
        return _TailModel(generic, oscs, stack, ts[None, None, :])


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
    max_T.  The rungs are tested in order and the first whose tails clear
    0.05 tolerance at x_probe at every time is returned, or else the last.
    Returns (path, tails), tails the _Tails of the rung's times.  The tails
    are sampled and tested by a _TailStore, four rungs at a time in one
    weight and one xcoef call per leg tag: a call on a few nodes costs
    numpy's dispatch as much as one on a hundred.

    store = (_TailStore, i) searches as owner i of a store, whose ladder,
    weight, xcoef, times, offset, probes, tolerance and derivative are then
    those given (the arguments must agree with them): the search starts at
    the store's rung T0, a later rung of its ladder when a search continues
    where an earlier term of its region stopped (ContourSolver._terms), and
    reads the blocks the store sampled for all its owners.  Without a store
    the search is the one owner of a store of its own, whose ladder starts
    at T0.

    weight may return a stack of m columns, shape (m, N), that share the
    path and xcoef: one search then serves them all.  A rung clears when
    every column clears at every time, and tails.worst is the largest over
    the columns as well.  With derivative the samples of the m columns W
    get the m columns i c W, the integrands of the slope, stacked under
    them: psi_x is one more column of the same models.
    """
    if store is None:
        store = (_TailStore(builder, T0, t, _plain_columns([(weight, xcoef)]),
                            [(x_offset, x_probe, tolerance)], derivative, max_T), 0)
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


def build_with_retry(build, tolerance):
    """build(tolerance), or build(tolerance * 1e4) once the panel budget runs out.

    The retry takes what the budget buys; the per-point error estimates stay
    honest.
    """
    try:
        return build(tolerance)
    except QuadratureError:
        return build(tolerance * 1e4)


def _term_tolerance(tolerance, n):
    """Tolerance of each of n terms' node tables.

    choose_truncation accepts tails up to 0.05 of a term's share of the
    tolerance; its table gets the rest, so that the two stay within it.
    """
    return 0.95 * tolerance / max(1, n)


def _term_probes(term, xs):
    """probes(z, cols) of a term's node table, for its sum over xs.

    The integrands at three probe points of xs, from the columns (W, c):
    W exp(i c (x - x0)) and, with the slope, i c W exp(i c (x - x0)).
    """
    off = term.x_offset
    probe_xs = sorted({float(xs.min()), float(xs.max()), float(xs[len(xs) // 2])})

    def probes(z, cols):
        W, C = cols
        out = [W * np.exp(1j * C * (xp - off)) for xp in probe_xs]
        if term.derivative:
            out += [1j * C * f for f in out]
        return out
    return probes


def _term_table(term, probes, tolerance, max_panels, store=None):
    """The node table of a term, with the columns (W, c) at every node.

    store, (PanelStore, owner), serves the first build; the retry at
    tolerance * 1e4 (build_with_retry) builds alone.
    """
    def columns(z, tag):
        return np.stack((term.weight(z, tag), term.xcoef(z, tag)))

    return build_with_retry(
        lambda tol: build_node_table(term.path, columns, tol, max_panels=max_panels,
                                     probes=probes,
                                     store=store if tol == tolerance else None),
        tolerance)


def _term_sum(term, table, xs):
    """(values, errors) of a term at xs, every time, from its node table.

    Each of shape (times, columns, x): the column psi, then with the slope
    psi_x.  One table_integral call sums every column at every x and every
    time, the slope as the stacked column i c W; each time's tail
    corrections and estimates come from one _TailModel.at call over all x
    and all columns, and a term with a level takes exp(-i level t) on its
    sums and corrections.
    """
    W, C = table.cols
    W = np.stack((W, 1j * C * W)) if term.derivative else W[None]
    sums, sum_errs = table_integral(table, W, C, xs - term.x_offset)
    vals = np.empty(sums.shape, dtype=complex)
    errs = np.empty(sums.shape)
    for k, tails in enumerate(term.tails):
        # each (x, columns), the layout of a stacked model
        corr, tail = tails.at(xs)
        vals[k] = term.damp(tails.t, sums[k] + corr.T)
        errs[k] = sum_errs[k] + tail.T
    return vals, errs


def eval_terms(terms, xs, tolerance, max_panels=2000):
    """Sum the integral terms over a batch of x values, at every time.

    The terms' paths share their rates, one per time, and the terms share
    their slope flag (IntegralTerm.derivative), set when the truncation
    search stacked the slope into their tails.  Returns (values, errors),
    each of shape (times, columns, x): the column psi, then with the slope
    psi_x.  Every term builds one node table of its own from three probe
    points, evaluating W and c once per node, refined to 0.95 of the
    term's share of the tolerance (its tails take up to 0.05, see
    choose_truncation) until every column converges at each of them and at
    every rate: W exp(i c (x - x0)) and, with the slope, i c W
    exp(i c (x - x0)) (the value integrands alone left psi_x_error at
    2.3e-6 on a three-jump profile at tolerance 1e-8).  It then sums the
    term over the table (_term_sum; see table_integral for its tiles and
    phase tables) and drops the table before the next term builds its own.
    ContourSolver._solve builds the same tables and sums, over a panel
    store per path.

    A table that stops above 50 times its target raises QuadratureError
    (build_node_table); build_with_retry then tries tolerance * 1e4 once.
    """
    xs = np.asarray(xs, dtype=float)
    shape = (len(terms[0].tails), 1 + terms[0].derivative) + xs.shape
    vals = np.zeros(shape, dtype=complex)
    errs = np.zeros(shape, dtype=float)
    tol = _term_tolerance(tolerance, len(terms))
    for term in terms:
        table = _term_table(term, _term_probes(term, xs), tol, max_panels)
        v, e = _term_sum(term, table, xs)
        # otherwise this table lives on while the next term builds its own
        del table
        vals += v
        errs += e
    return vals, errs


def _reals(v):
    """v as a float array, or None when an entry is not a real number."""
    try:
        a = np.asarray(v)
        return None if np.iscomplexobj(a) else np.asarray(a, dtype=float)
    except (TypeError, ValueError):
        return None


def _number(v, name):
    """The setting v as a float; a bool, a string or a non-number is refused by name."""
    if not isinstance(v, (bool, np.bool_, str, bytes)):
        try:
            return float(v)
        except (TypeError, ValueError):
            pass
    raise ValueError("{} must be a real number, got {!r}".format(name, v))


def _flag(derivative):
    """derivative as a bool: True or False, numpy bools included; else refused by name."""
    if derivative is True or derivative is False or isinstance(derivative, np.bool_):
        return bool(derivative)
    raise ValueError("derivative must be True or False, got {!r}".format(derivative))


class ContourSettings:
    """Potential, initial data and contour settings, validated once.

    tolerance is the absolute quadrature target per evaluated point and must
    be finite and positive.  radius (default max(1, 1.25 sqrt(2 Lambda)))
    must clear the branch scale sqrt(2 Lambda) and be at most _MAX_T / 2 =
    2000, so that the first truncation rung 2R lies on the ladder and the
    chirp ray starts as at most 1000 pieces.  Both must be real numbers: a
    bool or a string is refused, naming the field.  The open legs tilt by
    the constant delta: by Cauchy's theorem every tilt in (0, pi/4) gives
    the same psi.
    """

    delta = np.pi / 8.0
    # {(quad, rates): builder, (quad, rates, T): (path, spec)} while a call
    # lasts (see sector)
    _paths = None

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
            raise ValueError(
                "radius {} must clear the branch scale sqrt(2*Lambda) = {:.6g} and "
                "be at most {:g}, half the largest truncation".format(
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

        Within a call that sets up the path memo (ContourSolver._solve), each
        rung's path is built once and shared by every term and search that
        tries it, and every sector(quad, t) with the same rates returns one
        builder, so that the terms of all regions on it climb one ladder
        (ContourSolver._plans); a built path is never modified.
        """
        R, dlt, lam = self.radius, self.delta, self.potential.lam
        ray = {4: -1j, 3: -1.0, 1: 1.0}[quad]
        ts = [float(v) for v in np.atleast_1d(t)]
        tmax = max(ts)
        corner = 1.0 / tmax if R * R * tmax > 2.0 else None
        rates = tuple(ts) if quad == 4 else tuple(-v for v in ts)

        def make(T):
            path = rotated_boundary(quad, R, T, dlt, lam=lam, corner=corner)
            leg = path.legs[-1]
            n = int(np.ceil((T - R) / 2.0))
            path.legs[-1] = Leg.chirp(leg.z0, leg.z1, label=leg.label,
                                      splits=np.arange(1, n) / n)
            path.rates = rates
            return path, {"generic": [(0, True)],
                          "osc": [(len(path.legs) - 1, ((ray, ray),), T)]}

        def build(T):
            if self._paths is None:
                return make(T)
            key = (quad, rates, T)
            if key not in self._paths:
                self._paths[key] = make(T)
            return self._paths[key]
        if self._paths is None:
            return build
        return self._paths.setdefault((quad, rates), build)


class ContourSolver(ContourSettings):
    """Region-by-region evaluation of declared integral terms.

    _declare(region, ts) lists the region's terms at the times ts as
    (weight, xcoef, x0, builder, T0, level): the weight W(z, tag), the
    x-coefficient c(z, tag), the offset x0 of exp(i c (x - x0)), the
    truncation builder (see choose_truncation) and the first rung T0 of its
    ladder, and the level alpha of a term whose integrand carries
    exp(-i alpha t) (0 for none); terms with the same builder and T0 climb
    one ladder (_plans).  Region j has one term per neighbouring
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

    Every term of one evaluate_grid call lies on the same sector(4, ts)
    path family, and their node tables bisect the same first panels, so
    most nodes recur from term to term.  The rotated leg and the chirp ray
    run over [R, T], so only terms at the same rung share their nodes; the
    two terms of a region are therefore put on one rung where their tails
    allow it (_terms).  The call searches the truncations of every region
    before it builds any table.  The terms of every region on one ladder
    (all fourth-quadrant terms of the call) search one tail store
    (_TailStore, _plans), which samples each block of rungs once for all
    of them and tests all their tails in one array pass.  The terms that
    ended on one path, of any region, then refine their tables over one
    panel store (contours.PanelStore, _sums): each span is evaluated once,
    for every term still to build on the path.  Both stores compute the
    rows once per batch of nodes and slice them per term, with the nus
    that came with them (_store_columns).  Each term keeps a node table of
    its own, built and summed before the next.  A call of a term's weight
    itself (its table when it is alone on its path, the retry at
    tolerance * 1e4) computes the rows at its nodes.  So a tail sample is
    solved once per ladder, and a node of a table at most once per rung
    path that evaluates it: the arc and corner legs, common to every rung,
    are solved again on each rung a region ends on.  Node tables,
    truncations and outputs are those of every term computing every node
    afresh.  A region's terms depend on nothing outside the region, so a
    call restricted to one region gives the same bits as the whole call
    there.
    """

    def _declare(self, region, ts):
        pot = self.potential
        alpha = pot.level(region)
        sides = []
        if region <= pot.njumps:
            sides.append(("right", -1.0, pot.interfaces[region - 1]))
        if region >= 2:
            sides.append(("left", 1.0, pot.interfaces[region - 2]))
        # one builder: the region's terms climb one ladder (see _terms)
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

    def _store_columns(self, pairs):
        """columns(z, tag, owners) of a panel or tail store of interface terms.

        pairs holds each owner's (weight, xcoef).  For a batch of nodes: the
        rows B and the nus computed once (_interface_data), and each owner's
        columns (W, c) taken from them as its weight and x-coefficient take
        them, c from the nu of its level.
        """
        levels = self.potential.levels

        def columns(z, tag, owners):
            B, nus = self._interface_data(z)
            of_level = dict(zip(levels, nus))
            return [np.stack((W.of(B), c.sgn * of_level[c.alpha]))
                    for W, c in (pairs[i] for i in owners)]
        return columns

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

    def _plans(self, xmax, ts, derivative):
        """{region: (specs, searches)} of the regions of xmax, {region: largest |x|}.

        specs are the region's terms (_declare), searches one (store,
        owner, probes, tolerance) per term: the _TailStore of its ladder
        and its owner index there, its probe points (the region bounds
        clipped to +-max(1, largest |x|)) and its tolerance, the tolerance
        over the number of the region's terms.  The terms of every region
        on one ladder (the same builder and first rung T0) are the owners of
        one store, in region and term order.
        """
        ladders, plans = {}, {}
        for region, xm in xmax.items():
            specs = self._declare(region, ts)
            xb = max(1.0, xm)
            lo, hi = self.potential.region_bounds(region)
            probes = (max(lo, -xb), min(hi, xb))
            tol = self.tolerance / len(specs)
            searches = []
            for W, xc, x0, builder, T0, _ in specs:
                owners = ladders.setdefault((builder, T0), [])
                searches.append(((builder, T0), len(owners), probes, tol))
                owners.append((W, xc, x0, probes, tol))
            plans[region] = (specs, searches)
        stores = {}
        for (builder, T0), owners in ladders.items():
            pairs = [owner[:2] for owner in owners]
            interface = all(isinstance(W, _InterfaceWeight) for W, _ in pairs)
            columns = (self._store_columns if interface else _plain_columns)(pairs)
            stores[builder, T0] = _TailStore(builder, T0, ts, columns,
                                             [owner[2:] for owner in owners], derivative)
        return {region: (specs, [(stores[key], i, probes, tol)
                                 for key, i, probes, tol in searches])
                for region, (specs, searches) in plans.items()}

    def _terms(self, region, t, derivative, xmax, plan=None):
        """The region's terms at the time or times t, truncated for |x| up to xmax.

        plan is the region's entry of _plans, whose tail stores the call's
        other regions may share; by default the region gets stores of its
        own.  Each term gets tolerance / (number of terms); the tails are
        probed at the region bounds clipped to +-max(1, xmax), at every
        time.  Terms that share a ladder (the same builder and first rung
        T0, as the fourth-quadrant terms of a region do) share one
        truncation where their tails allow it: each term's search starts at
        the highest rung an earlier term of the region on its ladder
        accepted, and a term that accepted a lower rung than a later one is
        then lifted to that top rung when its tails clear there.  The lift
        reads the store, which sampled and tested the top rung with the
        search that accepted it (_TailStore.rung); a term whose tails do
        not clear there keeps its own rung.  The terms then lie on one path,
        so their node tables share the nodes of its rotated leg and chirp
        ray as well as those of its arc and corner legs.  Each term keeps
        its own node table, and nothing is shared with another region.
        """
        specs, searches = plan or self._plans({region: xmax}, t, derivative)[region]
        # the highest rung accepted on each ladder; a rung's path reaches
        # exactly its truncation
        top = {}
        found = []
        for (W, xc, x0, builder, T0, _), (store, owner, probes, tol) in zip(
                specs, searches):
            path, tails = choose_truncation(builder, W, xc, t, x0, probes, tol,
                                            top.get(store, T0), derivative=derivative,
                                            store=(store, owner))
            top[store] = path.reach()
            found.append((path, tails))
        out = []
        for (W, xc, x0, _, _, level), (store, owner, _, _), (path, tails) in zip(
                specs, searches, found):
            if path.reach() < top[store]:
                cleared, lifted, lifted_tails = store.rung(owner, top[store])
                if cleared:
                    path, tails = lifted, lifted_tails
            out.append(IntegralTerm(path, W, xc, x0, tails, level, derivative))
        return out

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
        if region is not None and region not in range(1, nreg + 1):
            raise ValueError("region must lie in 1..{}, got {!r}".format(nreg, region))
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
        # (times, columns, x), the layout of eval_terms: psi, then psi_x
        F = np.reshape(free, (1 + derivative, nt, xs.size)).swapaxes(0, 1)
        rows = {t: [None] * xs.size for t in live}
        self._paths = {}
        try:
            # every region's terms before any table, so that the terms that
            # ended on one path share its panel store (_sums); the regions'
            # searches on one ladder share its tail store (_plans)
            groups = [(int(j), np.where(regions == j)[0]) for j in np.unique(regions)]
            xmax = {j: float(np.max(np.abs(xs[idx]))) for j, idx in groups}
            plans = self._plans(xmax, live, derivative)
            parts = []
            for j, idx in groups:
                sub = xs[idx]
                terms = self._terms(j, live, derivative, xmax[j], plan=plans[j])
                T = max(tm.path.reach() for tm in terms)
                xspan = max(np.max(np.abs(sub - tm.x_offset)) for tm in terms)
                chirped = all(tm.path.legs[-1].kind == "chirp" for tm in terms)
                parts.append((idx, sub, terms, panel_budget(
                    0.0 if chirped else live[-1], xspan, T)))
            # the tail stores, with every block they sampled, are done
            del plans
            for (idx, sub, _, _), sums in zip(parts, self._sums(parts)):
                # the terms' sums added in term order, as eval_terms adds them
                vals, errs = (sum(a) for a in zip(*sums))
                for k, t in enumerate(live):
                    # value, error, then psi_x and its error with the slope
                    cols = [c for v, e in zip((F[k][:, idx] + vals[k]).tolist(),
                                              errs[k].tolist()) for c in (v, e)]
                    for i, x, *sample in zip(idx.tolist(), sub.tolist(), *cols):
                        rows[t][i] = SolutionSample(x, t, *sample)
        finally:
            del self._paths
        return rows

    def _sums(self, parts):
        """(values, errors) of every term of parts, [(idx, xs, terms, budget)].

        One list per part, one pair per term, as _term_sum gives them.  The
        terms that ended on one path (only the interface terms of
        ContourSolver._declare share paths) are the owners of one
        PanelStore, in order of their parts and terms, and the tables are
        built path by path; a term alone on its path builds alone.  Each
        table is summed as soon as it is built and dropped before the next
        is built, and a store is dropped after its last owner, when the next
        path's store takes its name.
        """
        out = [[None] * len(terms) for _, _, terms, _ in parts]
        paths = {}
        for p, (_, _, terms, _) in enumerate(parts):
            for i, term in enumerate(terms):
                paths.setdefault(id(term.path), []).append((p, i))
        for owners in paths.values():
            terms = [parts[p][2][i] for p, i in owners]
            probes = [_term_probes(term, parts[p][1])
                      for (p, _), term in zip(owners, terms)]
            store = PanelStore(terms[0].path, self._store_columns(
                [(term.weight, term.xcoef) for term in terms]), probes) \
                if len(owners) > 1 else None
            for k, (p, i) in enumerate(owners):
                _, xs, region_terms, budget = parts[p]
                table = _term_table(terms[k], probes[k],
                                    _term_tolerance(self.tolerance, len(region_terms)),
                                    budget, store=None if store is None else (store, k))
                out[p][i] = _term_sum(terms[k], table, xs)
                # otherwise this table lives on while the next term builds its own
                del table
        return out


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
