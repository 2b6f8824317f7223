"""A fixed probe of machine speed, run on a timer while passes are timed.

The benchmark's host is a few cores of a shared machine whose speed moves by
tens of percent from one second to the next, and it moves all work in a
pass alike.  The probe is a fixed piece of work of the same kind as
mdvkit's (small dense matrix-vector products, a JSON round trip, a
pure-Python loop) that never touches mdvkit, so a change to mdvkit cannot
change its time.  While a :class:`Probe` is armed, ``SIGALRM`` runs it every
``INTERVAL_S`` seconds, wherever the benchmark is; :func:`clock` leaves the
probe's own time out of every duration.  A pass's times are then rescaled by
``REFERENCE_NS`` over the median probe taken during and right after it: the
time the pass would have taken on a machine that runs the probe in
``REFERENCE_NS``.
"""

from __future__ import annotations

import contextlib
import json
import signal
import statistics
import time

import numpy as np

#: Probe time that defines the reference machine speed (about its median on
#: a 2-vCPU Xeon with Python 3.11 and numpy 2.4).  A fixed constant, so
#: rescaled times of two commits compare directly.
REFERENCE_NS = 1_100_000

#: Seconds between probes while armed (about 2% of the time goes to probes).
INTERVAL_S = 0.05

_rng = np.random.default_rng(20_180_901)
_A = _rng.standard_normal((50, 50))
_A /= 1.01 * np.linalg.norm(_A, 2)
_X0 = _rng.standard_normal(50)
_DOC = {f"k{i}": [float(v) for v in _rng.standard_normal(20)] for i in range(10)}

#: Nanoseconds spent in probes so far, in this process.
_spent_ns = 0


def clock():
    """``time.perf_counter_ns()`` less the time spent in probes."""
    return time.perf_counter_ns() - _spent_ns


def _work():
    x = _X0.copy()
    for _ in range(150):
        x = _A @ x + _X0
    json.loads(json.dumps(_DOC))
    acc = 0
    for i in range(5000):
        acc += i % 7
    return float(np.linalg.norm(x)) + acc


class Probe:
    """Collects probe times; :meth:`scale` turns them into a rescaling factor."""

    def __init__(self):
        self.samples = []
        self._running = False

    def __call__(self, *_signal_args):
        """Take one probe; also the ``SIGALRM`` handler while armed."""
        global _spent_ns
        if self._running:  # a slow probe outlasted the interval
            return
        self._running = True
        start = time.perf_counter_ns()
        _work()
        elapsed = time.perf_counter_ns() - start
        self.samples.append(elapsed)
        _spent_ns += elapsed
        self._running = False

    def take(self, count):
        for _ in range(count):
            self()

    @contextlib.contextmanager
    def armed(self):
        """Probe every ``INTERVAL_S`` seconds inside the ``with`` block."""
        previous = signal.signal(signal.SIGALRM, self)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self):
        """``REFERENCE_NS`` over the median probe since the last call, then clear."""
        factor = REFERENCE_NS / statistics.median(self.samples)
        self.samples.clear()
        return factor
