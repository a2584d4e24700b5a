"""Correct timings for the speed of a shared host.

The machines this benchmark runs on are shared.  For minutes at a time the
same code runs up to 1.8x slower there, and raw wall time then measures the
neighbours more than bladekit.  While operations are timed, a ``Sampler``
interrupts the process every ``INTERVAL_S`` (``SIGALRM``) and times a fixed
unit of reference work: a pure-Python loop and, where numpy is loaded, a
numpy loop on a small array, the two kinds of work bladekit does.  The
corrected time of an operation is

    (wall time - time spent in reference units inside it) / slowdown

where *slowdown* is the mean time of the reference units taken during the
operation (or in a ``MIN_WINDOW_S`` window around a shorter one) divided by
their time on a quiet host, ``QUIET_S``.  A change to bladekit moves the
wall time but not the reference, so it moves the corrected time in full; a
slow spell of the host moves both, and cancels.  ``QUIET_S`` only sets the
scale: corrected figures are seconds as a quiet host of the machine it was
measured on would give them.

The module imports numpy only when a ``Sampler`` with the numpy unit is
made, so a fresh process can time ``import bladekit`` with it.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.05
PY_ITERATIONS = 6000
NP_CALLS = 60
NP_SIZE = 256
# Seconds per unit on a quiet host: the 10th percentile of per-operation
# means over 136 deg1_triple operations on a 2-vCPU Intel Xeon VM.
QUIET_S = {"python": 0.36e-3, "numpy": 0.26e-3}
MIN_WINDOW_S = 0.5


def _python_unit():
    s = 0
    for i in range(PY_ITERATIONS):
        s += i * i % 7
    return s


def _numpy_unit():
    import numpy as np
    a = np.arange(NP_SIZE, dtype=float)

    def unit():
        s = 0.0
        for i in range(NP_CALLS):
            s += float(np.sum(a * 1.5 + i))
        return s
    return unit


class Sampler:
    """Reference samples taken on a timer while the ``with`` block runs.

    One sample is also taken on entry and on exit, so every interval inside
    the block has a nearest sample.  The previous ``SIGALRM`` handler and a
    stopped timer are restored on exit.
    """

    def __init__(self, with_numpy: bool = True):
        self.units = [("python", _python_unit)]
        if with_numpy:
            self.units.append(("numpy", _numpy_unit()))
        self.quiet_s = sum(QUIET_S[name] for name, _ in self.units)
        self.starts = []        # perf_counter at the start of each sample
        self.spent = []         # seconds each sample took
        self._previous = None

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        for _, unit in self.units:
            unit()
        self.starts.append(t0)
        self.spent.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        try:
            self._sample()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        except BaseException:
            signal.signal(signal.SIGALRM, self._previous)
            raise
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # a Python-level call: an alarm still pending is handled before the
        # previous handler (for SIGALRM by default, terminate) is back
        self._sample()
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def correct(self, t0: float, t1: float) -> "tuple[float, float]":
        """(corrected seconds, slowdown) of the interval [t0, t1) of perf_counter."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        net = (t1 - t0) - sum(self.spent[lo:hi])
        pad = max(0.0, (MIN_WINDOW_S - (t1 - t0)) / 2)
        lo = bisect.bisect_left(self.starts, t0 - pad)
        hi = bisect.bisect_left(self.starts, t1 + pad)
        if lo == hi:
            # no sample in the window: the nearest one on either side
            lo = min((i for i in (lo - 1, lo) if 0 <= i < len(self.starts)),
                     key=lambda i: abs(self.starts[i] - t0))
            hi = lo + 1
        window = self.spent[lo:hi]
        slowdown = sum(window) / len(window) / self.quiet_s
        return net / slowdown, slowdown
