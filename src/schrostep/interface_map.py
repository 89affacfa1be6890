"""Map from initial data to the solution traces at the interface points.

The interface system already delivers the spectral unknowns X(kappa); the
value and slope of the solution at the ell-th jump follow from single
contour integrals over the rotated fourth-quadrant sector boundary,

    psi  (x_ell, t) = -(1/pi) int kappa e^{i kappa^2 t} X_ell      dkappa
    psi_x(x_ell, t) = +(i/pi) int kappa e^{i kappa^2 t} X_{n+ell}  dkappa

without ever reconstructing the solution on an x grid.  The integrand is
x-free, so the stationary point of the quadratic phase sits at the origin.
One node table serves a whole batch of times and every requested
interface.  Its contour is ContourSettings.sector(4, ts): the corner legs
of the largest time bound the growth at every time, and the path carries
one set of weights per time, each with its exp(i kappa^2 t), the chirp
ray's exactly.  The columns summed (psi at each jump, and psi_x with the
slope) share that path, so one truncation search serves them all: its
weight returns the stack W = pref kappa X of every column, and it accepts
the first rung at which every column clears at every time.  The stack is
then one x-free term (x-coefficient 0, offset 0, summed at x = 0), which
step._sums builds and sums as it does every solver's terms: its table
takes 0.95 of the tolerance and its tails 0.05, the unknowns are solved
once per node while the table is refined, and one table_integral call
sums the stack at every time, elementwise.
"""

import numpy as np

# bound here only because the benchmark's tracer wraps it in every namespace
# that imports it, and test_tracer_restores_every_binding asserts this one
from .contours import build_node_table  # noqa: F401
from .general import solve_unknowns
from .kernels import SolutionSample
from .step import (ContourSettings, IntegralTerm, _flag, _is_bool, _sums,
                   choose_truncation, panel_budget)

__all__ = ["InterfaceMap"]


class InterfaceMap(ContourSettings):
    """Traces of psi (and psi_x) at the jumps, from the interface unknowns."""

    def trace(self, t, interface=1, derivative=False):
        return self.trace_grid([t], interface, derivative=derivative)[0]

    def trace_grid(self, ts, interface=1, derivative=False):
        """Samples of psi (and optionally psi_x) at the jumps x_ell.

        ts is one time or a nonempty sequence of them, finite and >= 0, and
        interface is one jump number ell in 1..njumps or a sequence of them.
        The samples come interface-major: every time at the first interface
        given, then every time at the next.  derivative, True or False, adds
        psi_x and its error to every sample.
        """
        derivative = _flag(derivative)
        n = self.potential.njumps
        ells = [interface] if np.ndim(interface) == 0 else list(interface)
        if not ells or any(_is_bool(ell) or ell not in range(1, n + 1) for ell in ells):
            raise ValueError("interface must be a number in 1..{} or a nonempty "
                             "sequence of them, got {!r}".format(n, interface))
        ells = [int(ell) for ell in ells]
        distinct = list(dict.fromkeys(ells))
        ts = self._times(ts)
        live = sorted({t for t in ts if t > 0.0})
        rows = self._traces(distinct, live, derivative) if live else {}
        if 0.0 in ts:
            rows[0.0] = self._initial_samples(
                [self.potential.interfaces[ell - 1] for ell in distinct], derivative)
        return [rows[t][distinct.index(ell)] for ell in ells for t in ts]

    def _traces(self, ells, times, derivative):
        """{t: samples at the distinct interfaces ells} at the times > 0."""
        n = self.potential.njumps
        tol = self.tolerance
        # the columns of the unknowns summed and their prefactors: psi at
        # each jump, then psi_x
        cols = [ell - 1 for ell in ells]
        pref = [-1.0 / np.pi] * len(ells)
        if derivative:
            cols += [n + ell - 1 for ell in ells]
            pref += [1j / np.pi] * len(ells)
        pref = np.array(pref)[:, None]

        def weight(z, tag):
            z = np.atleast_1d(np.asarray(z, dtype=complex))
            return pref * z * solve_unknowns(self.potential, self.ic, z)[0].T[cols]

        zero = lambda z, tag: np.zeros(np.shape(z), dtype=complex)
        path, tails = choose_truncation(self.sector(4, times), weight, zero, times, 0.0,
                                        (0.0,), tol, 2.0 * self.radius)
        term = IntegralTerm(path, weight, zero, 0.0, tails)
        ((v, e),) = _sums([(np.zeros(1), [term], panel_budget(0.0, 0.0, path.reach()))],
                          tol)
        v, e = v[..., 0].tolist(), e[..., 0].tolist()
        m = len(ells)
        out = {}
        for k, t in enumerate(times):
            s = list(zip(v[k], e[k]))
            slopes = s[m:] if derivative else [(None, 0.0)] * m
            out[t] = [SolutionSample(self.potential.interfaces[ell - 1], t, *s[j],
                                     psi_x=dv, psi_x_error=de)
                      for j, (ell, (dv, de)) in enumerate(zip(ells, slopes))]
        return out
