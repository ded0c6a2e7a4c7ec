"""Host-speed reference: times on a shared host, scaled to a fixed speed.

The benchmark's host runs a single Python thread at one of two speeds, ~1.9x
apart, switching every few seconds to minutes as its neighbours come and go.
No run is long enough to average that out, so every timed piece of work is
bracketed by this reference: a fixed integration that tfdyn does not touch,
scipy's DOP853 on the harmonic oscillator over three time units at the
tolerances of the mode solver.  It runs the same interpreter-bound scipy
stepping that dominates the analytic route, and so slows down with it.

A time ``t`` measured while the reference took ``r`` seconds is reported as
``t * REFERENCE_S / r``: seconds on a host where the reference takes
``REFERENCE_S``, about its median time next to the workloads on a 2-core
VM with a Skylake-X core, so scaled and raw times are alike there.  For a
block of work that spans many samples of ``r``, ``Timer`` uses their
harmonic mean, i.e. the mean host speed over the block.  The raw times are
printed next to the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time

REFERENCE_S = 1.3e-3
SAMPLE_INTERVAL_S = 0.2
_REPEATS = 2


def _integrate() -> None:
    import numpy as np
    from scipy.integrate import solve_ivp

    solve_ivp(
        lambda t, y: np.array([y[1], -y[0]]), (0.0, 3.0), np.array([1.0, 0.0]),
        method="DOP853", rtol=1e-10, atol=1e-12,
    )


def reference_s() -> float:
    """Seconds the reference takes now: the best of a few repeats."""
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _integrate()
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, reference: float) -> float:
    return seconds * REFERENCE_S / reference


class Timer:
    """Times a block of work and samples the reference before it, every
    ``SAMPLE_INTERVAL_S`` during it (from a SIGALRM handler, whose own time is
    taken out of the block's) and after it.  ``wall`` is the block's raw
    time and ``reference`` the harmonic mean of the samples; with ``sample``
    false only ``wall`` is measured and ``reference`` is 0."""

    def __init__(self, sample: bool = True) -> None:
        self.sample = sample
        self.samples: list[float] = []
        self.wall = self.reference = 0.0
        self._in_samples = 0.0

    def _take(self, *_signal) -> None:
        start = time.perf_counter()
        self.samples.append(reference_s())
        self._in_samples += time.perf_counter() - start

    def __enter__(self) -> Timer:
        if self.sample:
            self.samples.append(reference_s())
            self._previous = signal.signal(signal.SIGALRM, self._take)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.wall = time.perf_counter() - self._start - self._in_samples
        if self.sample:
            signal.signal(signal.SIGALRM, self._previous)
            self.samples.append(reference_s())
            self.reference = statistics.harmonic_mean(self.samples)
