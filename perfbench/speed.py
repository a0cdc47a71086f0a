"""Scaling measured times to a reference machine speed.

The machine the benchmark was built on is shared: the same solve, repeated
back to back, ran at speeds up to twice apart, in phases that change within
seconds and last up to tens of seconds.  So each operation's wall time is
scaled by how fast a fixed reference loop ran around and during it.

The reference is the benchmark's own code: steps of a 3x3 logit update in
numpy, the kind of small-array work the solvers do.  STEPS steps take
REFERENCE_S seconds at the reference speed.  A sample of STEPS steps runs
between operations; during an operation a timer signal runs a sample of
PROBE_STEPS steps every PROBE_INTERVAL seconds, and the time those samples
take is not counted as the operation's.  An operation's time is scaled by
REFERENCE_S over the mean time per STEPS steps of every sample taken from
the one before it to the one after it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REFERENCE_S = 0.02
STEPS = 4000
PROBE_STEPS = 400
PROBE_INTERVAL = 0.03

_W = np.exp([[3.0, 0.1, 0.5], [0.2, 3.2, 0.4], [0.3, 0.2, 3.5]])
_PI = np.array([0.4, 0.35, 0.25])


def reference_time(steps=STEPS):
    """Wall time of `steps` steps of the reference loop."""
    t0 = time.perf_counter()
    q = np.full(3, 1.0 / 3.0)
    for _ in range(steps):
        w = q[:, None] * _W
        q = (w / w.sum(axis=0, keepdims=True)) @ _PI
    return time.perf_counter() - t0


class SpeedProbe:
    """Times calls and the reference loop around and during them."""

    def __init__(self):
        self._last = reference_time()
        self._ref_time = 0.0
        self._ref_steps = 0
        self._probe_wall = 0.0

    def _sample(self, _signum, _frame):
        h0 = time.perf_counter()
        self._ref_time += reference_time(PROBE_STEPS)
        self._ref_steps += PROBE_STEPS
        self._probe_wall += time.perf_counter() - h0

    def call(self, fn, sample=True):
        """Run fn(); return (result, error, scaled seconds, scale factor).

        An exception from fn is returned as `error`, not raised: a solver
        error is an outcome of the operation.  With `sample` false only the
        samples before and after the call count."""
        self._ref_time, self._ref_steps, self._probe_wall = self._last, STEPS, 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        result = error = None
        if sample:
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # reported as the operation's outcome
            error = exc
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self._last = reference_time()
        ref_per_sample = (self._ref_time + self._last) / (self._ref_steps + STEPS) * STEPS
        factor = REFERENCE_S / ref_per_sample
        return result, error, (wall - self._probe_wall) * factor, factor
