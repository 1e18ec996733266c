"""CPU time scaled by the host's speed at the moment it was spent.

On a shared host the speed of the machine's cores drifts: the same numpy
loop took between 0.39 s and 0.75 s of CPU time within 80 seconds, with no
steal time reported. A stretch of the program's CPU time is therefore
divided by the time of a fixed probe (the benchmark's own code, never
fraclap's) run right beside it in the same thread, and multiplied by
``PROBE_REF_S``. The result reads as CPU seconds on a host where the probe
takes ``PROBE_REF_S``; it moves with the program's own cost and hardly with
the host's. Probe time is never counted as the program's.

A measured stretch is cut into slices: a probe runs when measuring starts,
at every ``read`` (such as the end of an operation) and at every ``tick``
that comes at least ``TICK_S`` seconds of CPU time after the last probe. Each slice
is scaled by the mean of the two probes around it. ``tick`` is driven by an
interval timer in the main thread (``start_ticks``), so that a long
operation is cut into short slices without any hook inside fraclap.
"""

from __future__ import annotations

import signal
import threading

import numpy as np

PROBE_REF_S = 0.01  # the probe's CPU time on the reference host
TICK_S = 0.25  # slice length, where an interval timer drives the ticks


class Probe:
    """A fixed piece of the kind of work fraclap does: small cache-resident
    numpy operations on pair arrays and a pure-Python loop, about 10 ms.

    It holds no large arrays, so it adds nothing to a round's peak RSS. A
    variant with one more pass over 8 MB arrays, for memory-bound work,
    was tried. Over seven fresh processes it widened the range of the
    scaled time of a 16-cell certificate from 6% to 20% of its median, and
    it steadied a memory-bound 1024-cell energy evaluation only a little
    (2% against 3% spread over 30-second windows)."""

    def __init__(self):
        self.small = np.random.default_rng(0).random(64)

    def run(self):
        a = self.small
        acc = 0.0
        for _ in range(150):
            acc += float((np.abs(a[:, None] - a[None, :]) ** 1.1).sum())
        k = 0
        for i in range(50000):
            k += i * i % 7
        return acc + k

    def seconds(self, clock):
        start = clock()
        self.run()
        return clock() - start


class Meter:
    """Raw and scaled CPU seconds of the calling thread, by ``clock``
    (``time.thread_time`` where several threads compute at once,
    ``time.process_time`` where BLAS threads work for the caller)."""

    def __init__(self, clock, probe=None):
        self.clock = clock
        self.probe = probe or Probe()
        self._local = threading.local()
        self.probes = []  # every probe time, for the run's report

    def _state(self):
        st = self._local
        if not hasattr(st, "active"):
            st.active = st.busy = False
        return st

    def active(self):
        return self._state().active

    def start(self):
        st = self._state()
        st.raw = st.scaled = 0.0
        st.busy = True
        st.last = self._probe()
        st.t0 = self.clock()
        st.active, st.busy = True, False

    def _probe(self):
        seconds = self.probe.seconds(self.clock)
        self.probes.append(seconds)
        return seconds

    def _close(self, st):
        cpu = self.clock() - st.t0
        now = self._probe()
        st.raw += cpu
        st.scaled += cpu * 2.0 * PROBE_REF_S / (st.last + now)
        st.last = now
        st.t0 = self.clock()

    def read(self):
        """Close the current slice; (raw, scaled) seconds since ``start``."""
        st = self._state()
        st.busy = True
        try:
            self._close(st)
        finally:
            st.busy = False
        return st.raw, st.scaled

    def stop(self):
        raw, scaled = self.read()
        self._state().active = False
        return raw, scaled

    def tick(self, *_):
        st = self._state()
        if st.active and not st.busy and self.clock() - st.t0 >= TICK_S:
            self.read()

    def call(self, fn, *args, **kwargs):
        """(result, raw, scaled) of one call, nested in a measured stretch
        of this thread if there is one."""
        nested = self.active()
        if nested:
            raw0, scaled0 = self.read()
        else:
            raw0 = scaled0 = 0.0
            self.start()
        try:
            result = fn(*args, **kwargs)
        finally:
            raw, scaled = self.read() if nested else self.stop()
        return result, raw - raw0, scaled - scaled0


class RawMeter:
    """The Meter interface without probes: scaled equals raw. Used in the
    traced round, whose spans must not contain probe time."""

    def __init__(self, clock):
        self.clock = clock
        self.probes = []

    def call(self, fn, *args, **kwargs):
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = self.clock() - start
        return result, seconds, seconds


def start_ticks(meter):
    """Tick ``meter`` from the main thread every TICK_S of wall time."""
    signal.signal(signal.SIGALRM, meter.tick)
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)


def stop_ticks():
    signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
