"""Map from initial data to the solution traces at the interface points.

The interface system already delivers the spectral unknowns X(kappa); the
value and slope of the solution at the ell-th jump follow from single
contour integrals over the rotated fourth-quadrant sector boundary,

    psi  (x_ell, t) = -(1/pi) int kappa e^{i kappa^2 t} X_ell      dkappa
    psi_x(x_ell, t) = +(i/pi) int kappa e^{i kappa^2 t} X_{n+ell}  dkappa

without ever reconstructing the solution on an x grid.  The integrand is
x-free, so the stationary point of the quadratic phase sits at the origin.
One node table serves a whole batch of times and every requested
interface: its truncation is the largest of the per-interface searches
(each from the psi column at the smallest time), its contour is that of
ContourSettings.sector(4, tmax) at the rate tmin (the corner legs bound the
growth at every time, and the weights carry exp(i kappa^2 tmin)), and it is
refined against the psi (and psi_x) column of every interface at probe
times from the smallest to the largest in ratios of at most 2.  A time t
leaves the residual phase exp(i kappa^2 (t - tmin)), which decays on the
tilted leg, to the integrand; on the chirp ray it is sampled at the nodes,
so the ray starts in pieces of at most two of its periods (at most 2000),
because a 7-15 panel over many periods can pass the Kronrod-Gauss check by
accident and is then never split.  The unknowns are solved once per node
while the table is refined and kept as the table's columns, which hold all
2n of them; each column is summed at every time in one phased
table_integral call, with W = pref kappa X, C = kappa^2 and X = t - tmin.
The tail samples lie at points fixed by the path alone, so within one call
the unknowns at each tail node are solved once and kept by the node's bits,
whatever the column, the time or the block of truncation rungs it was first
sampled in.  The probe integrands take exp(i kappa^2 (tp - tmin)) once per
probe time for every column.
"""

from dataclasses import replace

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
        tmin = min(t for _, t in live)
        tmax = max(t for _, t in live)
        tol = self.tolerance
        sector = self.sector(4, tmax)
        R, span = self.radius, tmax - tmin

        def builder(T):
            # pieces of at most two periods of the residual phase as well
            path, spec = sector(T)
            path.rate = tmin
            ray = path.legs[-1]
            pieces = max(len(ray.splits) + 1, min(2000, int(np.ceil(
                span * (T * T - R * R) / (4.0 * np.pi)))))
            path.legs[-1] = replace(ray, splits=tuple(np.arange(1, pieces) / pieces))
            return path, spec
        zero = lambda z, tag: np.zeros(np.shape(z), dtype=complex)
        # the unknowns at each tail sample, keyed by the node's bits: the
        # truncation searches sample their rungs in blocks, the final tails
        # one truncation at a time, and each node is solved once
        solved = {}

        def unknowns_at(z):
            keys = [zi.tobytes() for zi in z]
            new = list(dict.fromkeys(k for k in keys if k not in solved))
            if new:
                zn = np.frombuffer(b"".join(new), dtype=complex)
                solved.update(zip(new, solve_unknowns(self.potential, self.ic, zn)[0]))
            return np.array([solved[k] for k in keys])

        def weight(col, pref, t):
            def W(z, tag):
                z = np.atleast_1d(np.asarray(z, dtype=complex))
                return (pref * z * np.exp(1j * z * z * (t - tmin))
                        * unknowns_at(z)[:, col])
            return W

        cols = {ell: [(ell - 1, -1.0 / np.pi)] + ([(n + ell - 1, 1j / np.pi)]
                                                  if derivative else [])
                for ell in ells}
        # truncation set by the slowest time and the interface that needs the
        # longest, node density by the fastest
        path = max((choose_truncation(builder, weight(*cols[ell][0], tmin), zero,
                                      tmin, 0.0, (0.0,), tol, 2.0 * self.radius)[0]
                    for ell in ells), key=ContourPath.reach)
        T = path.reach()
        budget = panel_budget(span, 0.0, T)

        def unknowns(z, tag):
            return solve_unknowns(self.potential, self.ic, z)[0].T

        # probe times from tmin to tmax in ratios of at most 2: the ends alone
        # left the tilted leg unresolved in between (three jumps, t = 0.3 to
        # 1.2: error estimate 4.2e-8 at t = 0.9)
        steps = int(np.ceil(np.log2(tmax / tmin)))
        tprobe = tmin * (tmax / tmin) ** (np.arange(steps + 1) / max(steps, 1))

        def probes(z, X):
            es = [np.exp(1j * z * z * (tp - tmin)) for tp in tprobe]
            return [pref * z * e * X[col]
                    for ell in ells for col, pref in cols[ell] for e in es]

        table = build_with_retry(
            lambda tol: build_node_table(path, unknowns, tol, max_panels=budget,
                                        probes=probes),
            tol)
        X = table.cols
        C = table.z * table.z
        times = np.array([t - tmin for _, t in live])
        sums = {col: table_integral(table, pref * table.z * X[col], C, times)
                for ell in ells for col, pref in cols[ell]}
        _, spec = builder(T)
        nodes = _tail_nodes(path, spec)
        out = {}
        for ell in ells:
            x_ell = self.potential.interfaces[ell - 1]
            for row, (i, t) in enumerate(live):
                vals = []
                for col, pref in cols[ell]:
                    v, e = sums[col]
                    samples = _sample_tails(nodes, weight(col, pref, t), zero)
                    tails = _TailModel(path, spec, samples, t, 0.0, span=T)
                    corr, te = tails.at(0.0)
                    vals.append((complex(v[row] + corr), float(e[row] + te)))
                dv, de = vals[1] if derivative else (None, 0.0)
                out[ell, i] = SolutionSample(x_ell, t, *vals[0], psi_x=dv,
                                             psi_x_error=de)
        return out
