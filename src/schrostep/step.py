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
evaluate_grid call every term reads its column from a memo of those rows,
computed once per distinct node, and the sector path of each truncation
rung is built once, whichever term tries it first.  `StepSolver` also
overrides `_declare` for its quadrant and realline forms, which share no
nodes between regions.
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
exp(i c (x - x0)): the search stacks i c W under W in its tail samples, so
the slope tails are a column of the term's tail models, and the sum
stacks it on W.  Whether a term carries the slope is decided once, when
it is searched, and recorded on the term (IntegralTerm.derivative), from
which its node table and its sum read it; its tails hold it as a column.
"""

from dataclasses import replace

import numpy as np

from .contours import (Leg, QuadratureError, build_node_table, deform_to_real_line,
                       rotated_boundary, table_integral)
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
    if isinstance(f_outer, np.ndarray):
        return np.reshape([_pair_tail(a, b, dist, span)
                           for a, b in zip(np.ravel(f_outer), np.ravel(f_inner))],
                          np.shape(f_outer))
    if f_outer == 0.0:
        return 0.0
    if f_inner <= f_outer * (1.0 + 1e-9):
        return f_outer * span
    ell = dist / np.log(f_inner / f_outer)
    return f_outer * min(ell, span)


def _leg_nodes(leg, outer_at_start):
    """The two samples of a decaying leg near its outer end."""
    return leg.point(np.array([0.0, 0.1]) if outer_at_start else np.array([1.0, 0.9]))


def _leg_tail(z, w, span):
    """Tail of |W| past the outer end of a leg, from its two samples.

    w holds the two samples on its last axis, one row per column of a stack.
    """
    f = np.abs(w).T
    return _pair_tail(f[0], f[1], abs(z[1] - z[0]), span)


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
        # the samples first, then the column axis of a stack
        self.A = np.asarray(A, dtype=complex).T
        self.c = np.asarray(c, dtype=complex).real
        self.K = K
        self.t = t
        self.sign = sign
        self.x0 = x_offset

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
        already no larger than the expansion's residual.  Built from a
        stack of columns (A of shape (m, 4)), the results carry the stack's
        column axis after those of x.
        """
        X = np.asarray(x, dtype=float) - self.x0
        A = self.A
        if A.ndim > 1:
            X = X[..., None]
        gen = _pair_tail(abs(A[0]), abs(A[1]), self.h, self.K)
        c1, c2, c3 = self._fd(self.c)
        p1 = -2.0 * self.t * self.K + c1 * X
        # a stationary point must not hide beyond the cut
        hidden = ((np.abs(2.0 * self.t * self.K) < 1.3 * np.abs(c1 * X))
                  | (np.abs(p1) < 1e-12))
        a1, a2, a3 = self._fd(A)
        g = 1j * np.where(hidden, 1.0, p1)
        gp = 1j * (-2.0 * self.t + c2 * X)
        gpp = 1j * (c3 * X)
        B1 = A[0] / g
        B2 = a1 / g ** 2 - A[0] * gp / g ** 3
        B3 = (a2 / g ** 3 - 3.0 * a1 * gp / g ** 4 - A[0] * gpp / g ** 4
              + 3.0 * A[0] * gp * gp / g ** 5)
        diverging = ((np.abs(B2) > 0.5 * np.abs(B1))
                     | (np.abs(B3) > 0.7 * np.abs(B2) + 1e-300))
        err = np.abs(B3) + 1e-13 * np.abs(B1)
        keep = ~hidden & ~diverging & ~(gen <= err)
        phi0 = -self.t * self.K * self.K + float(self.c[0]) * X
        corr = self.sign * np.exp(1j * phi0) * (-B1 + B2 - B3)
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


def _sample_tails(nodes, weight, xcoef):
    """(z, W, c) at each (tag, z) of nodes, one weight and one xcoef call per tag.

    A weight may return a stack of columns, shape (m, len(z)); its samples
    keep the stack's axis first.
    """
    out = [None] * len(nodes)
    for tag in dict.fromkeys(tag for tag, _ in nodes):
        idx = [i for i, (g, _) in enumerate(nodes) if g == tag]
        zs = [nodes[i][1] for i in idx]
        z = np.concatenate(zs)
        cuts = np.cumsum([zi.size for zi in zs])[:-1]
        w = np.split(np.asarray(weight(z, tag), dtype=complex), cuts, axis=-1)
        c = np.split(np.asarray(xcoef(z, tag), dtype=complex), cuts)
        for i, zi, wi, ci in zip(idx, zs, w, c):
            out[i] = (zi, wi, ci)
    return out


class _TailModel:
    """All truncation tails of one integral term at one time t.

    samples are _sample_tails(_tail_nodes(path, spec), weight, xcoef); the
    weights w leave out the path's phase, whose rate for t is
    path.rates[k].  A decaying leg's tail is taken from w exp(i rate z^2),
    and an oscillatory ray's amplitude at z = direction u is
    A = w jac exp(i (rate z^2 + t u^2)), without the expansion's
    exp(-i t u^2): w jac on every sector and real-line ray, where
    rate z^2 = -t u^2 exactly.  A weight that returns a stack of m columns
    gives a model of every column at once: `at` then returns the columns on
    a last axis, after those of x, and `worst` takes the largest over the
    columns too.  With the slope, the samples stack i c W under W
    (choose_truncation), so psi_x is one more column of the model.
    """

    def __init__(self, path, spec, samples, t, x_offset, span, k=0):
        rate = path.rates[k]
        self.t = t
        self.generic = 0.0
        self.oscs = []
        # the axes of a stack of columns, () for one
        self.stack = np.shape(samples[0][1])[:-1]
        samples = iter(samples)
        for _ in spec.get("generic", ()):
            z, w, c = next(samples)
            self.generic += _leg_tail(z, w * np.exp(1j * rate * (z * z)), span)
        for _, rays, K in spec.get("osc", ()):
            u = K - _OscTail.h * np.arange(4.0)
            for _, jac in rays:
                z, w, c = next(samples)
                A = np.asarray(w, dtype=complex) * jac * np.exp(
                    1j * (rate * (z * z) + t * (u * u)))
                self.oscs.append(_OscTail(A, c, K, t, path.sign, x_offset))

    def worst(self, xs):
        """Largest tail error estimate over the columns and the probe points."""
        return float(self.at(xs)[1].max())

    def at(self, x):
        """Tail corrections and error estimates at the points x."""
        x = np.asarray(x, dtype=float)
        corr = np.zeros(x.shape + self.stack, dtype=complex)
        err = np.full(x.shape + self.stack, self.generic)
        for o in self.oscs:
            c, e = o.estimate(x)
            corr += c
            err += e
        return corr, err


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


# rungs of the truncation ladder whose tails are sampled in one weight call
_RUNGS_PER_CALL = 4


def choose_truncation(builder, weight, xcoef, t, x_offset, x_probe, tolerance,
                      T0, derivative=False, max_T=4000.0):
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
    A rung's samples serve every time, since the weights leave the path's
    phase out; its times are tested smallest first, where the tails decay
    slowest, and the first that fails ends the rung.  The samples are taken
    four rungs at a time, in one weight and one xcoef call per leg tag: a
    call on a few nodes costs numpy's dispatch as much as one on a hundred,
    and a search tries about four rungs.  The tails of rungs past the one
    returned are dropped.  Returns (path, tails), tails the _Tails of the
    rung's times.

    weight may return a stack of m columns, shape (m, N), that share the
    path and xcoef: one search then serves them all.  A rung clears when
    every column clears at every time, and tails.worst is the largest over
    the columns as well.  With derivative the samples of the m columns W
    get the m columns i c W, the integrands of the slope, stacked under
    them: psi_x is one more column of the same models, tested by the same
    single worst call per time.
    """
    target = 0.05 * tolerance
    ts = [float(v) for v in np.atleast_1d(t)]
    order = sorted(range(len(ts)), key=ts.__getitem__)
    rungs = [T0]
    while len(rungs) < 22 and rungs[-1] < max_T:
        rungs.append(min(1.6 * rungs[-1], max_T))
    for start in range(0, len(rungs), _RUNGS_PER_CALL):
        block = [(T, *builder(T)) for T in rungs[start:start + _RUNGS_PER_CALL]]
        nodes = [_tail_nodes(path, spec) for _, path, spec in block]
        samples = _sample_tails([nd for each in nodes for nd in each], weight, xcoef)
        if derivative:
            samples = [(z, np.vstack((w, 1j * c * w)), c) for z, w, c in samples]
        samples = iter(samples)
        for (T, path, spec), each in zip(block, nodes):
            taken = [next(samples) for _ in each]
            models = [None] * len(ts)
            for k in order:
                models[k] = _TailModel(path, spec, taken, ts[k], x_offset, T, k)
                if not models[k].worst(x_probe) <= target:
                    break
            else:
                return path, _Tails(models)
    return path, _Tails(m or _TailModel(path, spec, taken, ts[k], x_offset, T, k)
                        for k, m in enumerate(models))


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


def eval_terms(terms, xs, tolerance, max_panels=2000):
    """Sum the integral terms over a batch of x values, at every time.

    The terms' paths share their rates, one per time, and the terms share
    their slope flag (IntegralTerm.derivative), set when the truncation
    search stacked the slope into their tails.  Returns (values, errors),
    each of shape (times, columns, x): the column psi, then with the slope
    psi_x.  Every term builds one node table from three probe points,
    evaluating W and c once per node, refined to 0.95 of the term's share
    of the tolerance (its tails take up to 0.05, see choose_truncation)
    until every column converges at each of them and at every rate: W
    exp(i c (x - x0)) and, with the slope, i c W exp(i c (x - x0)) (the
    value integrands alone left psi_x_error at 2.3e-6 on a three-jump
    profile at tolerance 1e-8).  It then sums every column at every x and
    every time in one table_integral call, the slope as the stacked column
    i c W (see table_integral for its tiles and phase tables).  Each time's
    tail corrections and estimates come from one _TailModel.at call over
    all x and all columns, and a term with a level takes exp(-i level t) on
    its sums and corrections.

    A table that stops above 50 times its target raises QuadratureError
    (build_node_table); build_with_retry then tries tolerance * 1e4 once.
    """
    xs = np.asarray(xs, dtype=float)
    shape = (len(terms[0].tails), 1 + terms[0].derivative) + xs.shape
    vals = np.zeros(shape, dtype=complex)
    errs = np.zeros(shape, dtype=float)
    # choose_truncation accepts tails up to 0.05 of a term's share of the
    # tolerance; its table gets the rest, so that the two stay within it
    tol_term = 0.95 * tolerance / max(1, len(terms))
    for term in terms:
        off = term.x_offset
        probe_xs = sorted({float(xs.min()), float(xs.max()), float(xs[len(xs) // 2])})

        def columns(z, tag):
            return np.stack((term.weight(z, tag), term.xcoef(z, tag)))

        def probes(z, cols):
            W, C = cols
            out = [W * np.exp(1j * C * (xp - off)) for xp in probe_xs]
            if term.derivative:
                out += [1j * C * f for f in out]
            return out

        table = build_with_retry(
            lambda tol: build_node_table(term.path, columns, tol,
                                         max_panels=max_panels, probes=probes),
            tol_term)
        W, C = table.cols
        W = np.stack((W, 1j * C * W)) if term.derivative else W[None]
        sums, sum_errs = table_integral(table, W, C, xs - off)
        for k, tails in enumerate(term.tails):
            # each (x, columns), the layout of a stacked model
            corr, tail = tails.at(xs)
            vals[k] += term.damp(tails.t, sums[k] + corr.T)
            errs[k] += sum_errs[k] + tail.T
        # otherwise this table lives on while the next term builds its own
        del table, W, C, sums, sum_errs
    return vals, errs


class _NodeMemo:
    """Interface data at the contour nodes of one evaluate_grid call.

    Nodes are looked up by their exact bits.  No node repeats within one
    term, so a lookup searches only the sorted keys of the terms before it;
    the nodes a term computes are merged in once, when the next term asks.
    The data rows stay in the order they were computed, and the index holds
    each sorted key's row.  The memo keeps no reference to the solver,
    which passes it the function that computes the rows it misses.
    """

    def __init__(self):
        self.keys = np.empty(0, dtype=complex)
        self.rows = np.empty(0, dtype=np.intp)
        self.data = None
        self.term = None
        self.new = []

    def lookup(self, z, term, compute):
        """compute(z), computing only the rows of nodes not seen before."""
        if term != self.term:
            self._merge()
            self.term = term
        z = np.ascontiguousarray(z)
        hit = np.zeros(z.shape, dtype=bool)
        if self.keys.size:
            pos = np.minimum(np.searchsorted(self.keys, z), self.keys.size - 1)
            hit = np.all(self.keys[pos].view(np.uint64).reshape(-1, 2)
                         == z.view(np.uint64).reshape(-1, 2), axis=1)
        if not np.any(hit):
            out = compute(z)
            self.new.append((z, out))
            return out
        out = np.empty((z.size,) + self.data.shape[1:], dtype=complex)
        out[hit] = self.data[self.rows[pos[hit]]]
        if not np.all(hit):
            zm = z[~hit]
            out[~hit] = computed = compute(zm)
            self.new.append((zm, computed))
        return out

    def _merge(self):
        if not self.new:
            return
        zs, datas = zip(*self.new)
        if self.data is not None:
            datas = (self.data,) + datas
        z = np.concatenate(zs)
        order = np.argsort(z)
        at = np.searchsorted(self.keys, z[order])
        self.rows = np.insert(self.rows, at, self.keys.size + order)
        self.keys = np.insert(self.keys, at, z[order])
        self.data = np.concatenate(datas)
        self.new = []


def _reals(v):
    """v as a float array, or None when an entry is not a real number."""
    try:
        a = np.asarray(v)
        return None if np.iscomplexobj(a) else np.asarray(a, dtype=float)
    except (TypeError, ValueError):
        return None


class ContourSettings:
    """Potential, initial data and contour settings, validated once.

    tolerance is the absolute quadrature target per evaluated point and must
    be finite and positive.  radius (default max(1, 1.25 sqrt(2 Lambda)))
    must clear the branch scale sqrt(2 Lambda) and have a finite square (the
    sector paths work with R^2).  The open legs tilt by the constant delta:
    by Cauchy's theorem every tilt in (0, pi/4) gives the same psi.
    """

    delta = np.pi / 8.0
    # {(quad, rates, T): (path, spec)} while a call lasts (see sector)
    _paths = None

    def __init__(self, potential, ic, tolerance=1e-8, radius=None):
        tol = float(tolerance)
        if not (np.isfinite(tol) and tol > 0.0):
            raise ValueError(
                "tolerance must be finite and positive, got {!r}".format(tolerance))
        self.potential = potential
        self.ic = ic
        self.tolerance = tol
        lam = potential.lam
        self.radius = float(radius) if radius is not None else \
            max(1.0, 1.25 * np.sqrt(2.0 * lam))
        R = self.radius
        if not (np.sqrt(2.0 * lam) < R and R * R < np.inf):
            raise ValueError(
                "radius {} does not clear the branch scale sqrt(2*Lambda) = {:.6g} "
                "or has no finite square".format(R, np.sqrt(2.0 * lam)))

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
        tries it; a built path is never modified.
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
        return build


class ContourSolver(ContourSettings):
    """Region-by-region evaluation of declared integral terms.

    _declare(region, ts) lists the region's terms at the times ts as
    (weight, xcoef, x0, builder, T0, level): the weight W(z, tag), the
    x-coefficient c(z, tag), the offset x0 of exp(i c (x - x0)), the
    truncation builder (see choose_truncation) and the first truncation
    tried, and the level alpha of a term whose integrand carries
    exp(-i alpha t) (0 for none).  Region j has one term per neighbouring
    jump on the fourth-quadrant sector boundary, whose weights carry
    exp(i kappa^2 t), with T0 = 2R: at its right jump x_j with c = -nu_j
    and weight -B / (2 pi), at its left jump x_{j-1} with c = +nu_j and
    weight +B / (2 pi).  _interface_data(z), the one hook, gives the
    interface combinations B of all terms as an (N, 2n) array, one row per
    node: column 2l - 2 is the term of region l at its right jump x_l,
    column 2l - 1 the term of region l + 1 at its left jump x_l.  Here B
    comes from the unknowns of the interface system, which a closed form
    (WellSolver) may replace.  No weight depends on t.  The reported error
    estimate adds truncation residuals to the quadrature error, so it stays
    honest when the tolerance is out of reach.

    Every term of one evaluate_grid call lies on the same sector(4, ts)
    path, and their node tables bisect the same first panels, so most
    nodes recur from term to term.  A weight therefore reads the rows from
    a memo that lives for one evaluate_grid call, in which each distinct
    node is computed once; outside a call it computes them directly.  Node
    tables, truncations and outputs are those of computing every node
    afresh.
    """

    _memo = None

    def _declare(self, region, ts):
        pot = self.potential
        alpha = pot.level(region)
        sides = []
        if region <= pot.njumps:
            sides.append(("right", -1.0, pot.interfaces[region - 1]))
        if region >= 2:
            sides.append(("left", 1.0, pot.interfaces[region - 2]))
        return [(self._weight(region, side),
                 lambda z, tag, _s=sgn: _s * nu(alpha, np.asarray(z, dtype=complex)),
                 x0, self.sector(4, ts), 2.0 * self.radius, 0.0)
                for side, sgn, x0 in sides]

    def _weight(self, region, side):
        """Weight -+B / (2 pi) of the term at one jump.

        The integrand is -+exp(i kappa^2 t) B / (2 pi); the quadrature
        weights of the sector(4, ts) path carry exp(i kappa^2 t).
        """
        sgn = -1.0 if side == "right" else 1.0
        col = 2 * region - 2 if side == "right" else 2 * region - 3

        def W(z, tag):
            z = np.atleast_1d(np.asarray(z, dtype=complex))
            B = self._interface_data(z) if self._memo is None else \
                self._memo.lookup(z, col, self._interface_data)
            return sgn * B[:, col] / _TWO_PI
        return W

    def _interface_data(self, z):
        """Interface combination B of every term, shape (N, 2n).

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
        return B

    def _terms(self, region, t, derivative, xmax):
        """The region's terms at the time or times t, truncated for |x| up to xmax.

        Each term gets tolerance / (number of terms); the tails are probed at
        the region bounds clipped to +-max(1, xmax), at every time.
        """
        xb = max(1.0, xmax)
        specs = self._declare(region, t)
        lo, hi = self.potential.region_bounds(region)
        probes = (max(lo, -xb), min(hi, xb))
        tol = self.tolerance / len(specs)
        out = []
        for W, xc, x0, builder, T0, level in specs:
            path, tails = choose_truncation(builder, W, xc, t, x0, probes, tol,
                                            T0, derivative=derivative)
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
        region, 1..nregions, forces one for all of them.
        """
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
        self._memo = _NodeMemo()
        self._paths = {}
        try:
            for j in np.unique(regions):
                idx = np.where(regions == j)[0]
                sub = xs[idx]
                terms = self._terms(int(j), live, derivative, float(np.max(np.abs(sub))))
                T = max(tm.path.reach() for tm in terms)
                xspan = max(np.max(np.abs(sub - tm.x_offset)) for tm in terms)
                chirped = all(tm.path.legs[-1].kind == "chirp" for tm in terms)
                vals, errs = eval_terms(terms, sub, self.tolerance,
                                        max_panels=panel_budget(
                                            0.0 if chirped else live[-1], xspan, T))
                for k, t in enumerate(live):
                    # value, error, then psi_x and its error with the slope
                    cols = [c for v, e in zip((F[k][:, idx] + vals[k]).tolist(),
                                              errs[k].tolist()) for c in (v, e)]
                    for i, x, *sample in zip(idx.tolist(), sub.tolist(), *cols):
                        rows[t][i] = SolutionSample(x, t, *sample)
        finally:
            del self._memo, self._paths
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
