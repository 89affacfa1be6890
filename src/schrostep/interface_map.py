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
ray's exactly.  Its truncation is the largest of the searches of every
column (psi, and psi_x with the slope) at every time, and it is refined
until every column converges at every time.  The unknowns are solved once
per node while the table is refined and kept as the table's columns, which
hold all 2n of them; each column is summed at each time at that time's
weights, W = pref kappa X.  The tail samples lie at points fixed by the
path alone, so within one call the unknowns at each tail node are solved
once and kept by the node's bits, whatever the column or the block of
truncation rungs it was first sampled in.
"""

import numpy as np

from .contours import ContourPath, build_node_table, table_integral
from .general import solve_unknowns
from .kernels import SolutionSample
from .step import (ContourSettings, _sample_tails, _tail_nodes, _TailModel,
                   build_with_retry, choose_truncation, panel_budget)

__all__ = ["InterfaceMap"]


class InterfaceMap(ContourSettings):
    """Traces of psi (and psi_x) at the jumps, from the interface unknowns."""

    def trace(self, t, interface=1, derivative=False):
        return self.trace_grid([t], interface, derivative=derivative)[0]

    def trace_grid(self, ts, interface=1, derivative=False):
        """Samples of psi (and optionally psi_x) at the jumps x_ell.

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
        ts = [float(t) for t in ts]
        if not all(0.0 <= t < np.inf for t in ts):
            raise ValueError("t must be finite and nonnegative")
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
        sector = self.sector(4, times)
        zero = lambda z, tag: np.zeros(np.shape(z), dtype=complex)
        # the unknowns at each tail sample, keyed by the node's bits: the
        # truncation searches sample their rungs in blocks, the final tails
        # one column at a time, and each node is solved once
        solved = {}

        def unknowns_at(z):
            keys = [zi.tobytes() for zi in z]
            new = list(dict.fromkeys(k for k in keys if k not in solved))
            if new:
                zn = np.frombuffer(b"".join(new), dtype=complex)
                solved.update(zip(new, solve_unknowns(self.potential, self.ic, zn)[0]))
            return np.array([solved[k] for k in keys])

        def weight(col, pref):
            def W(z, tag):
                z = np.atleast_1d(np.asarray(z, dtype=complex))
                return pref * z * unknowns_at(z)[:, col]
            return W

        # (column of the unknowns, prefactor): psi at each jump, then psi_x
        cols = [(ell - 1, -1.0 / np.pi) for ell in ells]
        if derivative:
            cols += [(n + ell - 1, 1j / np.pi) for ell in ells]
        # truncation set by the column that needs the longest, at any time
        path = max((choose_truncation(sector, weight(col, pref), zero, times, 0.0,
                                      (0.0,), tol, 2.0 * self.radius)[0]
                    for col, pref in cols), key=ContourPath.reach)
        T = path.reach()

        def unknowns(z, tag):
            return solve_unknowns(self.potential, self.ic, z)[0].T

        def probes(z, X):
            return [pref * z * X[col] for col, pref in cols]

        table = build_with_retry(
            lambda tol: build_node_table(path, unknowns, tol,
                                         max_panels=panel_budget(0.0, 0.0, T),
                                         probes=probes),
            tol)
        X = table.cols
        C = np.zeros(table.z.size)
        _, spec = sector(T)
        nodes = _tail_nodes(path, spec)
        samples = {col: _sample_tails(nodes, weight(col, pref), zero)
                   for col, pref in cols}
        W = {col: pref * table.z * X[col] for col, pref in cols}
        traces = {}
        # time outer: every column is summed at one time's weights in turn
        for k, t in enumerate(times):
            for col, _ in cols:
                (v,), (e,) = table_integral(table, W[col], C, [0.0], rate=k)
                corr, te = _TailModel(path, spec, samples[col], t, 0.0, T, k).at(0.0)
                traces[col, t] = (complex(v + corr), float(e + te))
        out = {}
        for ell in ells:
            x_ell = self.potential.interfaces[ell - 1]
            for i, t in live:
                dv, de = traces[n + ell - 1, t] if derivative else (None, 0.0)
                out[ell, i] = SolutionSample(x_ell, t, *traces[ell - 1, t], psi_x=dv,
                                             psi_x_error=de)
        return out
