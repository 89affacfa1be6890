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

The half-line transforms in the weights decay only like 1/kappa, so the
legs that stay on an axis carry oscillatory tails that no absolute
truncation can afford.  Those legs are cut at a moderate point and the
remainder is summed by repeated integration by parts in the phase
exp(i(-t u^2 + c(u) x)); the magnitude of the last kept correction doubles
as the error estimate, and a sampled-decay bound takes over whenever the
expansion is not safely convergent.

The module also holds the evaluation core of every contour solver.  In each
region the solution is a free term plus integral terms
W(kappa) * exp(i c(kappa) (x - x0)) over a contour, with W independent of
x; only W, c, x0, the contour builder and the first truncation T0 change
from one profile to another.  `ContourSettings` validates the settings
(tolerance, the radius guard, the tilt delta) and builds the sector
contours; `ContourSolver` adds the truncation search at the region bounds,
the panel budget and `evaluate_grid`, and its subclasses (`StepSolver`
here, `GeneralSolver`, `WellSolver`) only declare the terms of a region.
A whole grid of x values reuses one node table per term, whose W and c
columns are evaluated once per node while it is refined; one phased
table_integral call sums the term at every x of the grid, and one
free_term call gives the region's free terms.
"""

from dataclasses import replace

import numpy as np

from .contours import (KeyholeSpec, QuadratureError, build_node_table,
                       deform_to_real_line, rotated_boundary, table_integral)
from .kernels import SolutionSample, nu, omega
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
    """Decay-length tail estimate from two integrand samples near the end."""
    if f_outer == 0.0:
        return 0.0
    if f_inner <= f_outer * (1.0 + 1e-9):
        return f_outer * span
    ell = dist / np.log(f_inner / f_outer)
    return f_outer * min(ell, span)


def _leg_tail(leg, weight, outer_at_start, span):
    s = np.array([0.0, 0.1]) if outer_at_start else np.array([1.0, 0.9])
    z = leg.point(s)
    d = abs(z[1] - z[0])
    f = np.abs(weight(z, leg.tag))
    return _pair_tail(float(f[0]), float(f[1]), d, span)


class _OscTail:
    """Integration-by-parts tail of one on-axis ray, cut at u = K.

    The missing piece is int_K^inf A(u) exp(i phi(u, x)) du with
    phi = -t u^2 + c(u) (x - x0) and A slowly varying (the known quadratic
    phase has been stripped from the weight).  Three integrations by parts
    give the correction; the magnitude of the last term is the residual
    estimate.  Outside the safely convergent regime the correction is
    dropped and a sampled-decay bound on |A| is returned instead.

    The derivatives of A and c come from one-sided differences with step
    0.05.  Steps of 0.02 K (up to 1) left the correction off by far more
    than its estimate where A oscillates on its own: a 21-point tabulated
    Gaussian (d4, K = 52: 3.4e-9 off against an estimate of 2.0e-9) and the
    unknowns at an interface x = 2.5 (InterfaceMap, K = 45: 2.0e-9 against
    1.2e-10).
    """

    def __init__(self, weight, xcoef, direction, jacobian, K, t, sign,
                 x_offset, tag):
        h = 0.05
        u = K - h * np.arange(4.0)
        z = direction * u
        qa = np.exp(1j * t * u * u)
        self.A = np.asarray(weight(z, tag), dtype=complex) * jacobian * qa
        self.c = np.asarray(xcoef(z, tag), dtype=complex).real
        self.h = h
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

    def estimate(self, x, derivative=False):
        """Tail corrections and error estimates at the evaluation points x.

        The branch rules apply point by point: a point falls back to the
        sampled-decay bound when a stationary point may hide beyond the cut,
        when the expansion is not safely convergent, or when that bound is
        already no larger than the expansion's residual.
        """
        A = self.A * (1j * self.c) if derivative else self.A
        gen = _pair_tail(abs(A[0]), abs(A[1]), self.h, self.K)
        X = np.asarray(x, dtype=float) - self.x0
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


class _TailModel:
    """All truncation tails of one integral term."""

    def __init__(self, path, spec, weight, xcoef, t, x_offset, span):
        self.generic = 0.0
        self.generic_deriv = 0.0
        self.oscs = []
        for leg_idx, outer_at_start in spec.get("generic", ()):
            leg = path.legs[leg_idx]
            self.generic += _leg_tail(leg, weight, outer_at_start, span)
            wd = lambda z, tag: weight(z, tag) * np.abs(xcoef(z, tag))
            self.generic_deriv += _leg_tail(leg, wd, outer_at_start, span)
        for leg_idx, rays, K in spec.get("osc", ()):
            for d, jac in rays:
                self.oscs.append(_OscTail(weight, xcoef, d, jac, K, t,
                                          path.sign, x_offset,
                                          path.legs[leg_idx].tag))

    def worst(self, xs, derivative=False):
        """Largest tail error estimate over the probe points (for acceptance)."""
        base = self.generic_deriv if derivative else self.generic
        return float(max([base, *self.at(xs, derivative)[1]]))

    def at(self, x, derivative=False):
        """Tail corrections and error estimates at the points x."""
        x = np.asarray(x, dtype=float)
        corr = np.zeros(x.shape, dtype=complex)
        err = np.full(x.shape, self.generic_deriv if derivative else self.generic)
        for o in self.oscs:
            c, e = o.estimate(x, derivative)
            corr += c
            err += e
        return corr, err


class IntegralTerm:
    """One contour integral contributing to the solution in one region."""

    def __init__(self, path, weight, xcoef, x_offset, tails):
        self.path = path
        self.weight = weight
        self.xcoef = xcoef
        self.x_offset = x_offset
        self.tails = tails


def choose_truncation(builder, weight, xcoef, t, x_offset, x_probe, tolerance,
                      T0, derivative=False, max_T=4000.0):
    """Grow the truncation until every tail estimate clears the tolerance.

    builder(T) returns (path, spec); spec lists the open legs, as
    "generic" entries (leg_index, outer_at_start) for exponentially
    decaying legs and "osc" entries (leg_index, ((direction, jacobian), ...), K)
    for on-axis rays handled by the integration-by-parts tail.  A line leg's
    jacobian is its direction; a principal-value leg's two rays both carry
    jacobian +1 because substituting k = -u flips the limits as well.
    """
    target = 0.05 * tolerance
    T = T0
    best = None
    for _ in range(22):
        path, spec = builder(T)
        tails = _TailModel(path, spec, weight, xcoef, t, x_offset, span=T)
        w = tails.worst(x_probe, derivative=False)
        if derivative:
            w = max(w, tails.worst(x_probe, derivative=True))
        best = (path, tails)
        if w <= target or T >= max_T:
            return best
        T = min(1.6 * T, max_T)
    return best


def panel_budget(t, xspan, T):
    """Panel budget of a node table truncated at T.

    About three panels per oscillation of exp(i (kappa^2 t + c x)) over
    |kappa| <= T, with xspan the largest |x - x0| of the points summed
    over the table, kept between 2000 and 40000.
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


def eval_terms(terms, xs, tolerance, max_panels=2000, derivative=False):
    """Sum the integral terms over a batch of x values.

    Returns (values, errors) or (values, errors, dvalues, derrors) with one
    entry per x.  Every term builds one node table from three probe points,
    evaluating W and c once per node, and then sums W exp(i c (x - x0)) at
    every x in one phased table_integral call: tiles of at most 2^12 complex
    entries, with the phases of a uniform grid (any linspace) built from
    two small exp tables, accurate to the rounding of a direct exp (see
    table_integral).  The tail corrections and estimates are evaluated for
    all x at once as well.
    """
    xs = np.asarray(xs, dtype=float)
    vals = np.zeros(xs.shape, dtype=complex)
    errs = np.zeros(xs.shape, dtype=float)
    dvals = np.zeros(xs.shape, dtype=complex) if derivative else None
    derrs = np.zeros(xs.shape, dtype=float) if derivative else None
    tol_term = tolerance / max(1, len(terms))
    for term in terms:
        off = term.x_offset
        probe_xs = sorted({float(xs.min()), float(xs.max()), float(xs[len(xs) // 2])})

        def columns(z, tag):
            return np.stack((term.weight(z, tag), term.xcoef(z, tag)))

        def probes(z, cols):
            W, C = cols
            return [W * np.exp(1j * C * (xp - off)) for xp in probe_xs]

        table = build_with_retry(
            lambda tol: build_node_table(term.path, columns, tol,
                                         max_panels=max_panels, probes=probes),
            tol_term)
        W, C = table.cols
        sums = table_integral(table, W, C, xs - off, derivative=derivative)
        corr, tail = term.tails.at(xs)
        vals += sums[0] + corr
        errs += sums[1] + tail
        if derivative:
            dcorr, dtail = term.tails.at(xs, derivative=True)
            dvals += sums[2] + dcorr
            derrs += sums[3] + dtail
    if derivative:
        return vals, errs, dvals, derrs
    return vals, errs


class ContourSettings:
    """Potential, initial data and contour settings, validated once.

    tolerance is the absolute quadrature target per evaluated point and must
    be finite and positive.  radius (default max(1, 1.25 sqrt(2 Lambda)))
    must be finite and clear the branch scale sqrt(2 Lambda); delta, in
    (0, pi/4), tilts the open legs of the sector contours.
    """

    def __init__(self, potential, ic, tolerance=1e-8, radius=None,
                 delta=np.pi / 8.0):
        tol = float(tolerance)
        if not (np.isfinite(tol) and tol > 0.0):
            raise ValueError(
                "tolerance must be finite and positive, got {!r}".format(tolerance))
        self.potential = potential
        self.ic = ic
        self.tolerance = tol
        self.delta = float(delta)
        if not 0.0 < self.delta < 0.25 * np.pi:
            raise ValueError(
                "delta must lie in (0, pi/4), got {!r}".format(delta))
        lam = potential.lam
        self.radius = float(radius) if radius is not None else \
            max(1.0, 1.25 * np.sqrt(2.0 * lam))
        if not np.sqrt(2.0 * lam) < self.radius < np.inf:
            raise ValueError(
                "radius {} is not finite or does not clear the branch scale "
                "sqrt(2*Lambda) = {:.6g}".format(self.radius, np.sqrt(2.0 * lam)))

    def sector(self, quad, t):
        """Truncation builder T -> (path, tail spec) on a sector boundary at time t.

        quad 4 is the fourth-quadrant boundary in kappa, 3 and 1 the third-
        and first-quadrant ones; the last leg, on the imaginary axis (4), the
        negative (3) or the positive (1) real axis, is the oscillatory ray.
        While R^2 t <= 2 the path is the rotated boundary with its full
        radius-R arc, on which |exp(+-i kappa^2 t)| stays within e^2.
        Beyond, the arc keeps only its part in the decay sector and the
        growth quadrant is crossed on the corner legs of rotated_boundary
        through the hyperbola p q = 1/t, where that factor stays within
        exp((1 + rho)^2 / (2 rho)) <= exp(9/4) (rho the ratio between the
        corner points, 1.5 at R^2 t = 25), instead of reaching exp(R^2 t).

        The ray's first panels span at most two periods of exp(i t u^2)
        each, in at most 2000 panels (the smallest panel budget; a ray that
        needs more, such as T = 4000 when the tolerance is out of reach,
        would cost more to start than the budget buys).  A 7-15 panel over
        many periods can pass the Kronrod-Gauss
        comparison by accident, and the refinement then never splits it:
        a three-jump InterfaceMap over t = 0.5..4 (T set by t = 0.5, nine
        periods on one panel at t = 4) missed by 5.3e-8 against an estimate
        of 9.8e-9, and a GeneralSolver derivative solve at t = 0.5 by 8e-8.
        """
        R, dlt, lam = self.radius, self.delta, self.potential.lam
        ray = {4: -1j, 3: -1.0, 1: 1.0}[quad]
        corner = 1.0 / t if R * R * t > 2.0 else None

        def build(T):
            path = rotated_boundary(quad, R, T, dlt, lam=lam, corner=corner)
            leg = path.legs[-1]
            n = min(2000, int(np.ceil(t * (T * T - R * R) / (4.0 * np.pi))))
            u = np.sqrt(R * R + (T * T - R * R) * np.arange(1, n) / n)
            path.legs[-1] = replace(leg, splits=tuple((u - R) / (T - R)))
            return path, {"generic": [(0, True)],
                          "osc": [(len(path.legs) - 1, ((ray, ray),), T)]}
        return build


class ContourSolver(ContourSettings):
    """Region-by-region evaluation of declared integral terms.

    A subclass implements _declare(region, t), the list of the region's
    terms as (weight, xcoef, x0, builder, T0): the weight W(z, tag), the
    x-coefficient c(z, tag), the offset x0 of exp(i c (x - x0)), the
    truncation builder (see choose_truncation) and the first truncation
    tried.  The reported error estimate adds truncation residuals to the
    quadrature error, so it stays honest when the tolerance is out of reach.
    """

    def _terms(self, region, t, derivative, xmax):
        """The region's terms, truncated for |x| up to xmax.

        Each term gets tolerance / (number of terms); the tails are probed at
        the region bounds clipped to +-xb, xmax rounded up to a power of 2.
        """
        xb = 2.0 ** np.ceil(np.log2(max(1.0, xmax)))
        specs = self._declare(region, t)
        lo, hi = self.potential.region_bounds(region)
        probes = (max(lo, -xb), min(hi, xb))
        tol = self.tolerance / len(specs)
        out = []
        for W, xc, x0, builder, T0 in specs:
            path, tails = choose_truncation(builder, W, xc, t, x0, probes, tol,
                                            T0, derivative=derivative)
            out.append(IntegralTerm(path, W, xc, x0, tails))
        return out

    def evaluate(self, x, t, region=None, derivative=False):
        return self.evaluate_grid([x], t, region=region, derivative=derivative)[0]

    def evaluate_grid(self, xs, t, region=None, derivative=False):
        """Solution samples at the points xs and a single time t >= 0.

        Each x is evaluated in its own region (an interface point in the one
        on its right) unless region, 1..nregions, forces one for all of them.
        """
        xs = np.asarray(xs, dtype=float)
        t = float(t)
        if not t >= 0.0:
            raise ValueError("t must be nonnegative")
        nreg = self.potential.nregions
        if region is not None and region not in range(1, nreg + 1):
            raise ValueError("region must lie in 1..{}, got {!r}".format(nreg, region))
        if t == 0.0:
            v = self.ic.evaluate(xs)
            dv = self.ic.derivative(xs) if derivative else [None] * xs.size
            return [SolutionSample(float(x), 0.0, complex(v[i]), 0.0,
                                   psi_x=(complex(dv[i]) if derivative else None))
                    for i, x in enumerate(xs)]
        regions = np.full(xs.shape, region if region is not None else 0, dtype=int)
        if region is None:
            for i, x in enumerate(xs):
                regions[i] = self.potential.region_of(x)
        samples = [None] * xs.size
        for j in np.unique(regions):
            idx = np.where(regions == j)[0]
            sub = xs[idx]
            terms = self._terms(int(j), t, derivative, float(np.max(np.abs(sub))))
            T = max(abs(leg.end()) for tm in terms for leg in tm.path.legs)
            xspan = max(np.max(np.abs(sub - tm.x_offset)) for tm in terms)
            out = eval_terms(terms, sub, self.tolerance,
                             max_panels=panel_budget(t, xspan, T),
                             derivative=derivative)
            vals, errs = out[:2]
            F = free_term(self.ic, self.potential, int(j), sub, t,
                          derivative=derivative)
            psi = (F[0] if derivative else F) + vals
            for row, i in enumerate(idx):
                s = SolutionSample(float(sub[row]), t, complex(psi[row]),
                                   float(errs[row]))
                if derivative:
                    s.psi_x = complex(F[1][row] + out[2][row])
                    s.psi_x_error = float(out[3][row])
                samples[i] = s
        return samples


class StepSolver(ContourSolver):
    """Solution of the jump problem with levels (alpha_1, alpha_2) at x = 0.

    representation picks the contour form: 'd4', 'quadrant' or 'realline';
    each region carries one term with offset 0.
    """

    def __init__(self, potential, ic, representation="d4", tolerance=1e-8,
                 radius=None, delta=np.pi / 8.0):
        if potential.njumps != 1:
            raise ValueError("StepSolver handles exactly one interface; "
                             "use GeneralSolver for more")
        if representation not in ("d4", "quadrant", "realline"):
            raise ValueError("unknown representation {!r}".format(representation))
        if representation == "realline" and potential.levels[1] < potential.levels[0]:
            raise ValueError(
                "the realline representation needs an upward jump "
                "(alpha_2 >= alpha_1); mirror the problem with mirrored() first")
        super().__init__(potential, ic, tolerance, radius, delta)
        self.representation = representation

    # bound in the class's own namespace, where the benchmark's tracer
    # (perfbench/tracing.py) looks the method up
    evaluate_grid = ContourSolver.evaluate_grid

    # -- weights ---------------------------------------------------------

    def _w_d4(self, region, t):
        a1, a2 = self.potential.levels
        ic, pot = self.ic, self.potential

        def W(z, tag):
            z = np.asarray(z, dtype=complex)
            n1 = nu(a1, z)
            n2 = nu(a2, z)
            grow = np.exp(1j * z * z * t)
            h1 = hat_transform(ic, pot, 1, n1)
            h2 = hat_transform(ic, pot, 2, -n2)
            if region == 1:
                return grow * (-z / np.pi * h2 - z * (n1 - n2) /
                               (_TWO_PI * n1) * h1) / (n1 + n2)
            return grow * (-z / np.pi * h1 + z * (n1 - n2) /
                           (_TWO_PI * n2) * h2) / (n1 + n2)
        return W

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

    def _w_quadrant(self, region, t):
        a1, a2 = self.potential.levels
        ic, pot = self.ic, self.potential

        if region == 1:
            def W(z, tag):
                z = np.asarray(z, dtype=complex)
                s1 = self._sigma1(z)
                damp = np.exp(-omega(a1, z) * t)
                h1 = hat_transform(ic, pot, 1, -z)
                h2 = hat_transform(ic, pot, 2, z * s1)
                return damp * (-(1.0 - s1) * h1 - 2.0 * h2) / (_TWO_PI * (1.0 + s1))
            return W

        def W(z, tag):
            z = np.asarray(z, dtype=complex)
            s2 = sigma(a2 - a1, z)
            damp = np.exp(-omega(a2, z) * t)
            h1 = hat_transform(ic, pot, 1, z * s2)
            h2 = hat_transform(ic, pot, 2, -z)
            return damp * (2.0 * h1 + (1.0 - s2) * h2) / (_TWO_PI * (1.0 + s2))
        return W

    def _w_cut_jump(self, t):
        a1, a2 = self.potential.levels
        a = a2 - a1
        ic, pot = self.ic, self.potential

        def W(z, tag):
            y = np.asarray(z, dtype=complex).imag
            q = np.sqrt(np.maximum(a - y * y, 0.0))
            s = np.minimum(q / np.maximum(y, 1e-280), 1e12)
            A = hat_transform(ic, pot, 2, -1j * y)
            bm = hat_transform(ic, pot, 1, -q)
            bp = hat_transform(ic, pot, 1, q)
            jump = (-4j * s * A + 2.0 * (bm - bp) - 2j * s * (bm + bp)) / (1.0 + s * s)
            return jump * np.exp(-1j * (a2 - y * y) * t) / _TWO_PI
        return W

    def _realline_weight(self, region, t):
        base = self._w_quadrant(region, t)
        if region == 1:
            return base
        cutw = self._w_cut_jump(t)

        def W(z, tag):
            if tag == "cut-difference":
                return cutw(z, tag)
            return base(z, tag)
        return W

    # -- term declarations -------------------------------------------------

    def _declare(self, region, t):
        a1, a2 = self.potential.levels
        if self.representation == "d4":
            alpha_here = a1 if region == 1 else a2
            sgn = -1.0 if region == 1 else 1.0
            xc = lambda z, tag: sgn * nu(alpha_here, np.asarray(z, dtype=complex))
            return [(self._w_d4(region, t), xc, 0.0, self.sector(4, t),
                     2.0 * self.radius)]
        ident = lambda z, tag: np.asarray(z, dtype=complex)
        quad = 3 if region == 1 else 1
        if self.representation == "quadrant":
            return [(self._w_quadrant(region, t), ident, 0.0, self.sector(quad, t),
                     2.0 * self.radius)]
        a = a2 - a1
        cut = None
        if a > 0.0:
            cut = KeyholeSpec("real" if region == 1 else "imag", np.sqrt(a))
        builder = lambda L: (deform_to_real_line(quad, L, cut=cut),
                             {"osc": [(0, ((1.0, 1.0), (-1.0, 1.0)), L)]})
        return [(self._realline_weight(region, t), ident, 0.0, builder,
                 max(4.0, 2.0 * self.radius))]
