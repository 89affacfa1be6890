"""Map from initial data to the solution traces at the interface points.

The interface system already delivers the spectral unknowns X(kappa); the
value and slope of the solution at the ell-th jump follow from single
contour integrals over the rotated fourth-quadrant sector boundary,

    psi  (x_ell, t) = -(1/pi) int kappa e^{i kappa^2 t} X_ell      dkappa
    psi_x(x_ell, t) = +(i/pi) int kappa e^{i kappa^2 t} X_{n+ell}  dkappa

without ever reconstructing the solution on an x grid.  The integrand is
x-free, so the stationary point of the quadratic phase sits at the origin.
One node table serves a whole batch of times: its truncation comes from
the smallest time, its contour (the corner constant and the splits of the
axis ray, see ContourSettings.sector) from the largest, and it is refined
against probe times from the smallest to the largest in ratios of at most
2.  The unknowns are solved once per node while the table is refined, kept
as the table's columns, and every time is summed in one phased
table_integral call, with W = pref kappa X, C = kappa^2 and the times in
the place of x.
"""

import numpy as np

from .contours import build_node_table, table_integral
from .general import solve_unknowns
from .kernels import SolutionSample
from .step import (ContourSettings, _TailModel, build_with_retry,
                   choose_truncation, panel_budget)

__all__ = ["InterfaceMap"]


class InterfaceMap(ContourSettings):
    """Traces of psi (and psi_x) at the jumps, from the interface unknowns."""

    def _col_weight(self, col, pref, t):
        def W(z, tag):
            z = np.atleast_1d(np.asarray(z, dtype=complex))
            X = solve_unknowns(self.potential, self.ic, z)
            return pref * z * np.exp(1j * z * z * t) * X[:, col]
        return W

    def trace(self, t, interface=1, derivative=False):
        return self.trace_grid([t], interface, derivative=derivative)[0]

    def trace_grid(self, ts, interface=1, derivative=False):
        """Samples of psi (and optionally psi_x) at interface number ell >= 1."""
        n = self.potential.njumps
        if interface not in range(1, n + 1):
            raise ValueError("interface must lie in 1..{}, got {!r}".format(n, interface))
        ell = int(interface)
        x_ell = self.potential.interfaces[ell - 1]
        ts = [float(t) for t in ts]
        if not all(0.0 <= t < np.inf for t in ts):
            raise ValueError("t must be finite and nonnegative")
        out = [None] * len(ts)
        for i, t in enumerate(ts):
            if t == 0.0:
                out[i] = self._initial_samples(np.array([x_ell]), derivative)[0]
        live = [(i, t) for i, t in enumerate(ts) if t > 0.0]
        if not live:
            return out
        tmin = min(t for _, t in live)
        tmax = max(t for _, t in live)
        tol = self.tolerance
        builder = self.sector(4, tmax)
        zero = lambda z, tag: np.zeros(np.shape(z), dtype=complex)
        cols = [(ell - 1, -1.0 / np.pi)]
        if derivative:
            cols.append((n + ell - 1, 1j / np.pi))
        # truncation set by the slowest time, node density by the fastest
        path, _ = choose_truncation(builder, self._col_weight(*cols[0], tmin),
                                    zero, tmin, 0.0, (0.0,), tol, 2.0 * self.radius)
        T = max(abs(leg.end()) for leg in path.legs)
        budget = panel_budget(tmax, 0.0, T)

        def unknowns(z, tag):
            return solve_unknowns(self.potential, self.ic, z).T

        # probe times from tmin to tmax in ratios of at most 2: the ends alone
        # left the tilted leg unresolved in between (three jumps, t = 0.3 to
        # 1.2: error estimate 4.2e-8 at t = 0.9)
        steps = int(np.ceil(np.log2(tmax / tmin)))
        tprobe = tmin * (tmax / tmin) ** (np.arange(steps + 1) / max(steps, 1))

        def probes(z, X):
            return [pref * z * np.exp(1j * z * z * tp) * X[col]
                    for col, pref in cols for tp in tprobe]

        table = build_with_retry(
            lambda tol: build_node_table(path, unknowns, tol, max_panels=budget,
                                        probes=probes),
            tol)
        X = table.cols
        C = table.z * table.z
        times = np.array([t for _, t in live])
        sums = [table_integral(table, pref * table.z * X[col], C, times)
                for col, pref in cols]
        _, spec = builder(T)
        for row, (i, t) in enumerate(live):
            vals = []
            for (col, pref), (v, e) in zip(cols, sums):
                tails = _TailModel(path, spec, self._col_weight(col, pref, t),
                                   zero, t, 0.0, span=T)
                corr, te = tails.at(0.0)
                vals.append((complex(v[row] + corr), float(e[row] + te)))
            dv, de = vals[1] if derivative else (None, 0.0)
            out[i] = SolutionSample(x_ell, t, *vals[0], psi_x=dv, psi_x_error=de)
        return out
