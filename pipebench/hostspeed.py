"""Host-speed probe: converts wall time on a shared host into reference seconds.

On a shared host the same work takes different wall time as other tenants'
load comes and goes.  On the 2-core sandbox this benchmark was written on, a
fixed block of 50 survey trials took from 0.50 to 1.04 s over seven minutes,
in slow and fast stretches that each lasted up to minutes.  Runs of 20 to 60
s therefore differ by about 20 % in wall-time throughput, whatever their
length.

A SIGPROF timer runs a fixed pure-Python probe every PROBE_INTERVAL_S of
CPU time.  An interval of wall time converts to reference seconds as its wall
time minus the probe time inside it, times the mean of PROBE_REF_S / (probe
time) over the probes inside it; the nearest probe stands in when none lies
inside.  A reference second is therefore a second of a host on which the
probe takes PROBE_REF_S (about the unloaded sandbox host).  The probe adds
about 2.5 % of CPU time, all of it subtracted.

The correction sees a host that runs slower, not time the process spends
waiting for a CPU: a sub-millisecond probe fits inside one time slice.  It
therefore assumes that no other process competes for the benchmark's CPUs.
"""

from __future__ import annotations

import bisect
import signal
import time

PROBE_INTERVAL_S = 0.02
PROBE_REF_S = 0.0004


def probe_work():
    """Fixed pure-Python work: integer arithmetic, branches and list appends."""
    x = 12345
    acc = []
    for i in range(1000):
        x = (x * 48271 + i) % 2305843009213693951
        if x & 1:
            acc.append((x, i))
    return len(acc)


class SpeedProbe:
    """Samples the host's speed while a run is measured."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        probe_work()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def start(self):
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self.sample()

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def reference_seconds(self, t0, t1):
        """The wall interval [t0, t1] in reference seconds."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.durations[lo:hi]
        if inside:
            return (t1 - t0 - sum(inside)) * sum(PROBE_REF_S / d for d in inside) / len(inside)
        near = min((i for i in (lo - 1, lo) if 0 <= i < len(self.starts)), key=lambda i: abs(self.starts[i] - t0))
        return (t1 - t0) * PROBE_REF_S / self.durations[near]
