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
weight returns the stack of every column, and it accepts the first rung
at which every column clears at every time.  Its tails, sampled once per
node, are those of the traces.  The unknowns are solved once per node
while the table is refined and kept as the table's columns, which hold all
2n of them, and the table is refined until every column converges at
every time.  One table_integral call sums the whole stack
W = pref kappa X at every time, each at its own weights.
"""

import numpy as np

from .contours import build_node_table, table_integral
from .general import solve_unknowns
from .kernels import SolutionSample
from .step import ContourSettings, build_with_retry, choose_truncation, panel_budget

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
        given, then every time at the next.
        """
        n = self.potential.njumps
        ells = [interface] if np.ndim(interface) == 0 else list(interface)
        if not ells or any(ell not in range(1, n + 1) for ell in ells):
            raise ValueError("interface must be one of 1..{} or a nonempty "
                             "sequence of them, got {!r}".format(n, interface))
        ells = [int(ell) for ell in ells]
        ts = self._times(ts)
        out = {}
        for ell in ells:
            for i, t in enumerate(ts):
                if t == 0.0:
                    out[ell, i] = self._initial_samples(
                        np.array([self.potential.interfaces[ell - 1]]), derivative)[0]
        live = [(i, t) for i, t in enumerate(ts) if t > 0.0]
        if live:
            out.update(self._traces(dict.fromkeys(ells), live, derivative))
        return [out[ell, i] for ell in ells for i in range(len(ts))]

    def _traces(self, ells, live, derivative):
        """{(ell, i): sample} at the distinct interfaces ells and times live."""
        n = self.potential.njumps
        times = sorted({t for _, t in live})
        tol = self.tolerance
        # the columns of the unknowns summed and their prefactors: psi at
        # each jump, then psi_x
        cols = [ell - 1 for ell in ells]
        pref = [-1.0 / np.pi] * len(ells)
        if derivative:
            cols += [n + ell - 1 for ell in ells]
            pref += [1j / np.pi] * len(ells)
        pref = np.array(pref)[:, None]

        def unknowns(z, tag):
            return solve_unknowns(self.potential, self.ic, z)[0].T

        def probes(z, X):
            return pref * z * X[cols]

        def weight(z, tag):
            z = np.atleast_1d(np.asarray(z, dtype=complex))
            return probes(z, unknowns(z, tag))

        zero = lambda z, tag: np.zeros(np.shape(z), dtype=complex)
        path, tails = choose_truncation(self.sector(4, times), weight, zero, times, 0.0,
                                        (0.0,), tol, 2.0 * self.radius)
        table = build_with_retry(
            lambda tol: build_node_table(path, unknowns, tol,
                                         max_panels=panel_budget(0.0, 0.0, path.reach()),
                                         probes=probes),
            tol)
        W = probes(table.z, table.cols)
        C = np.zeros(table.z.size)
        v, e = table_integral(table, W, C, [0.0])
        traces = {}
        for k, t in enumerate(times):
            corr, te = tails[k].at(0.0)
            for j, col in enumerate(cols):
                traces[col, t] = (complex(v[k, j, 0] + corr[j]), float(e[k, j, 0] + te[j]))
        out = {}
        for ell in ells:
            x_ell = self.potential.interfaces[ell - 1]
            for i, t in live:
                dv, de = traces[n + ell - 1, t] if derivative else (None, 0.0)
                out[ell, i] = SolutionSample(x_ell, t, *traces[ell - 1, t], psi_x=dv,
                                             psi_x_error=de)
        return out
