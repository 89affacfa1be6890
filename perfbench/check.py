"""Independent references for the benchmark's requests, and the pass rule.

A request fails when it raises, returns a non-finite value or error, or has
a sample with |psi - psi_ref| > error + error_ref against a representation
that shares no contour with the one under test:

step         the realline form of the same step; a downward step is first
             reflected with `mirrored`, which realline needs.
well         GeneralSolver on the same profile, through the interface system
             instead of the closed-form numerators.
general      InterfaceMap traces at every jump.  The grid holds x_j and
             x_j - JUMP_OFFSET, so both one-sided limits are compared with
             the trace, which also checks that psi is continuous across the
             jump; the slack for the offset is |psi_x| * JUMP_OFFSET.
CLI solve    GeneralSolver per grid time (the scenarios use solver = well).
CLI
interface-map  GeneralSolver at the jump points, per grid time.

References are computed once per distinct input and reused for every pass.
Given a directory, the checker also keeps them on disk, keyed by a hash of
the inputs, so a later run with the same seed reads them back instead.
"""

import hashlib
import json
import math

import numpy as np

from schrostep import GeneralSolver, InterfaceMap, StepSolver, mirrored

from workloads import JUMP_OFFSET, TOLERANCE, ic_of, potential_of


class Samples:
    """Sample columns of one request's output."""

    def __init__(self, x, t, value, error, psi_x=None, psi_x_error=None):
        self.x = np.asarray(x, dtype=float)
        self.t = np.asarray(t, dtype=float)
        self.value = np.asarray(value, dtype=complex)
        self.error = np.asarray(error, dtype=float)
        self.psi_x = None if psi_x is None else np.asarray(psi_x, dtype=complex)
        self.psi_x_error = None if psi_x_error is None else \
            np.asarray(psi_x_error, dtype=float)

    @classmethod
    def from_solution(cls, samples):
        deriv = bool(samples) and samples[0].psi_x is not None
        return cls([s.x for s in samples], [s.t for s in samples],
                   [s.value for s in samples], [s.error for s in samples],
                   [s.psi_x for s in samples] if deriv else None,
                   [s.psi_x_error for s in samples] if deriv else None)

    @classmethod
    def from_cli_output(cls, text):
        """Parse the tab separated table that `schrostep solve` and
        `schrostep interface-map` write."""
        lines = [ln for ln in text.splitlines() if ln]
        header = lines[0].split("\t")
        cols = {h: [] for h in header}
        for ln in lines[1:]:
            for h, v in zip(header, ln.split("\t")):
                cols[h].append(float(v))
        deriv = "re_psi_x" in cols
        return cls(cols["x"], cols["t"],
                   np.array(cols["re_psi"]) + 1j * np.array(cols["im_psi"]),
                   cols["err_estimate"],
                   np.array(cols["re_psi_x"]) + 1j * np.array(cols["im_psi_x"])
                   if deriv else None)

    def __len__(self):
        return len(self.x)

    def save(self, path):
        cols = {"x": self.x, "t": self.t, "value": self.value, "error": self.error}
        if self.psi_x is not None:
            cols["psi_x"] = self.psi_x
        np.savez(path, **cols)

    @classmethod
    def load(cls, path):
        with np.load(path) as f:
            return cls(f["x"], f["t"], f["value"], f["error"],
                       f["psi_x"] if "psi_x" in f.files else None)

    def finite(self):
        ok = np.all(np.isfinite(self.value)) and np.all(np.isfinite(self.error))
        if self.psi_x is not None:
            ok = ok and np.all(np.isfinite(self.psi_x))
        if self.psi_x_error is not None:
            ok = ok and np.all(np.isfinite(self.psi_x_error))
        return bool(ok)


def mismatches(got, ref, slack=0.0):
    """Indices where |got - ref| exceeds the sum of both error estimates."""
    dev = np.abs(got.value - ref.value)
    return np.nonzero(~(dev <= got.error + ref.error + slack))[0]


class Checker:
    """Computes references lazily and judges request outputs against them."""

    def __init__(self, cache_dir=None):
        self._refs = {}
        self._dir = cache_dir

    def _cached(self, key, make):
        k = json.dumps(key, sort_keys=True)
        if k in self._refs:
            return self._refs[k]
        path = None
        if self._dir is not None:
            name = hashlib.sha256(k.encode()).hexdigest()[:32] + ".npz"
            path = self._dir / name
        if path is not None and path.is_file():
            ref = Samples.load(path)
        else:
            ref = make()
            if path is not None:
                self._dir.mkdir(parents=True, exist_ok=True)
                tmp = path.with_suffix(".tmp.npz")
                ref.save(tmp)
                tmp.replace(path)
        self._refs[k] = ref
        return ref

    # -- references --------------------------------------------------------

    def _step_ref(self, req):
        def make():
            pot, ic = potential_of(req), ic_of(req)
            xs = np.asarray(req["xs"])
            if pot.levels[1] >= pot.levels[0]:
                s = StepSolver(pot, ic, "realline", tolerance=TOLERANCE)
                return Samples.from_solution(s.evaluate_grid(xs, req["t"]))
            pot2, ic2 = mirrored(pot, ic)
            s = StepSolver(pot2, ic2, "realline", tolerance=TOLERANCE)
            ref = Samples.from_solution(s.evaluate_grid(-xs, req["t"]))
            ref.x = xs
            return ref
        return self._cached(["step", req["potential"], req["ic"], req["xs"],
                             req["t"]], make)

    def _general_ref(self, req, xs, t):
        def make():
            s = GeneralSolver(potential_of(req), ic_of(req), tolerance=TOLERANCE)
            return Samples.from_solution(s.evaluate_grid(np.asarray(xs), t))
        return self._cached(["general", req["potential"], req["ic"], list(xs), t],
                            make)

    def _traces(self, req, t):
        """InterfaceMap psi and psi_x at every jump, one time."""
        def make():
            imap = InterfaceMap(potential_of(req), ic_of(req), tolerance=TOLERANCE)
            n = len(req["potential"]["interfaces"])
            return Samples.from_solution([imap.trace_grid([t], ell, derivative=True)[0]
                                          for ell in range(1, n + 1)])
        return self._cached(["traces", req["potential"], req["ic"], t], make)

    # -- judging -----------------------------------------------------------

    def failures(self, req, got):
        """Reasons the request failed; empty when it passed.

        got is a Samples, or the exception the request raised.
        """
        if isinstance(got, BaseException):
            return ["raised {}: {}".format(type(got).__name__, got)]
        if len(got) == 0:
            return ["returned no samples"]
        if not got.finite():
            return ["non-finite value or error estimate"]
        kind = req["kind"]
        if kind == "general":
            return self._jump_failures(req, got)
        if kind == "cli":
            return self._cli_failures(req, got)
        if kind == "step":
            ref = self._step_ref(req)
        else:
            ref = self._general_ref(req, req["xs"], req["t"])
        return _report(got, ref, mismatches(got, ref))

    def _jump_failures(self, req, got):
        out = []
        traces = self._traces(req, req["t"])
        for j, xj in enumerate(traces.x):
            near = np.nonzero(np.abs(got.x - xj) <= 2.0 * JUMP_OFFSET)[0]
            if near.size < 2:
                out.append("grid lacks both sides of the jump at {}".format(xj))
                continue
            sub = _take(got, near)
            ref = Samples(sub.x, sub.t, np.full(near.size, traces.value[j]),
                          np.full(near.size, traces.error[j]))
            slack = abs(traces.psi_x[j]) * np.abs(sub.x - xj)
            out += _report(sub, ref, mismatches(sub, ref, slack))
        return out

    def _cli_failures(self, req, got):
        out = []
        for t in np.unique(got.t):
            sub = _take(got, np.nonzero(got.t == t)[0])
            ref = self._general_ref(req, sub.x.tolist(), float(t))
            out += _report(sub, ref, mismatches(sub, ref))
        return out


def _take(s, idx):
    return Samples(s.x[idx], s.t[idx], s.value[idx], s.error[idx])


def _report(got, ref, bad):
    return ["x = {:.17g}, t = {:g}: |psi - psi_ref| = {:.3e} > {:.3e} + {:.3e}".format(
        got.x[i], got.t[i], abs(got.value[i] - ref.value[i]), got.error[i],
        ref.error[i]) for i in bad]


def digits(errors):
    """-log10 of the largest error estimate."""
    worst = max(errors)
    return -math.log10(worst) if worst > 0.0 else math.inf
