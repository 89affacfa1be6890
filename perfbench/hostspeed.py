"""Host speed sampling, so that timings read in reference seconds.

The benchmark may share its machine with other tenants, and then the speed
the host gives it drifts: on a 2-vCPU VM the same request took from 0.8 to
1.5 s, in phases of a few seconds, and one pass of a workload from 5.2 to
9.1 s within one run.  A run lasts about as long as those phases, so a raw
wall time mostly measures which phase the run fell into.

`HostSpeed` runs a fixed probe from a SIGALRM timer while timing is on.  The
probe does not touch the program under test, so a change to the program
leaves it unchanged.  Between one probe and the next, the host's speed is
taken to be the probe's reference duration divided by its measured one;
`reference_seconds(a, b)` integrates this speed over [a, b], leaving out the
time the probes took.  The result is the time the interval's work would take
on the reference host.  On a host that is steady, it is the wall time less
the probes, scaled by one constant.

There are two probes, each like the work it is set against:

SOLVER  `probe`: numpy complex arithmetic and scipy's `wofz` on small arrays,
        the primitives the solver's time is spent in, every 25 ms.  On each
        workload it cut the spread (interquartile range over median) of ten
        seeds' pass times from 12-35% to 2-6%.
SETUP   `spin`: a pure-Python loop, every 5 ms from process start, since
        numpy is not loaded yet.  Set-up is imports and input generation;
        over 40 set-ups the loop's speed followed it with correlation 0.93,
        and scaling cut the spread from 18% to 5%.
"""

import signal
import time

# Reference durations (typical figures on a 2-vCPU Xeon VM); they fix the
# unit of reference seconds.
REF_PROBE_S = 0.8e-3
REF_SPIN_S = 0.2e-3


def probe():
    """A fixed amount of work, independent of the program under test.

    Small-array calls like the solver's: its transforms call wofz and exp on
    about 16 nodes at a time, so interpreter and dispatch overhead weigh as
    much as the arithmetic.
    """
    import numpy as np
    from scipy.special import wofz

    z = np.linspace(0.1, 1.0, 16) + 0.3j
    s = 0.0
    for _ in range(60):
        w = wofz(1j * z)
        s += (np.exp(-z * z) * w * z).sum().real
    return s


def spin():
    """A fixed pure-Python loop."""
    s = 0
    for i in range(3000):
        s += i * i
    return s


SOLVER = (probe, REF_PROBE_S, 0.025)
SETUP = (spin, REF_SPIN_S, 0.005)


class HostSpeed:
    """Probe the host's speed on a timer; convert wall intervals.

    Use as a context manager around the timed code.  `kind` is SOLVER or
    SETUP: (probe function, its reference duration, timer period in s).
    """

    def __init__(self, kind=SOLVER):
        self.probe, self.ref, self.period = kind
        self.starts = []
        self.durations = []
        self._busy = False

    def _probe(self, *_):
        if self._busy:  # a timer signal that arrived during a probe
            return
        self._busy = True
        t0 = time.perf_counter()
        self.probe()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def probe_seconds(self, a, b):
        """Time the probes took within [a, b]."""
        return sum(min(s + d, b) - max(s, a) for s, d in
                   zip(self.starts, self.durations) if s < b and s + d > a)

    def reference_seconds(self, a, b):
        """The work done in the wall interval [a, b], in reference seconds.

        Each stretch between probes is scaled by the speed the probe before
        it measured (the first probe's, for a stretch before every probe).
        """
        if not self.starts:
            raise ValueError("no probe has run")
        marks = [(s, s + d, self.ref / d)
                 for s, d in zip(self.starts, self.durations)]
        total = 0.0
        speed = marks[0][2]
        cursor = a
        for s, e, v in marks:
            if e <= a:
                speed = v
                continue
            if s >= b:
                break
            total += max(0.0, min(s, b) - cursor) * speed
            cursor = max(cursor, min(e, b))
            speed = v
        total += max(0.0, b - cursor) * speed
        return total
