"""Machine-speed calibration of a timed repetition.

On a shared VM the CPU can run a fixed pure-Python loop up to about 40%
slower for a few seconds at a time, so raw wall times of the same code
spread by more than any useful bound.  ``Calibrator`` samples the machine's
speed while a repetition runs: an interval timer interrupts the workload
every ``PERIOD_S`` seconds and times one call of ``reference()``, a fixed
pure-Python loop of the same kind of work mackeybox does: frozen dataclasses
of small-integer tuples, built, combined, hashed and cached by value.  The
workload is paused while the reference runs, and that time is taken out of
the repetition's wall time.

``calibrated_wall_s`` is the repetition's wall time scaled to a machine on
which ``reference()`` takes ``REFERENCE_NOMINAL_S``: each sample scales the
stretch of wall time it falls in by ``REFERENCE_NOMINAL_S / sample``.  The
reference does not touch mackeybox, so a change to the library moves the
calibrated time exactly as much as it moves the raw time on a steady machine.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from dataclasses import dataclass

PERIOD_S = 0.05
# Median duration of ``reference()`` on a 2-vCPU x86-64 VM, Python 3.11.
REFERENCE_NOMINAL_S = 0.002


@dataclass(frozen=True)
class _Vec:
    """A vector over Z/m, immutable and hashable like the library's values."""

    coords: tuple
    modulus: int

    def __post_init__(self):
        if any(not isinstance(c, int) for c in self.coords):
            raise TypeError("coordinates must be integers")

    def add(self, other, k):
        m = self.modulus
        return _Vec(tuple((a + k * b) % m for a, b in zip(self.coords, other.coords)), m)


def reference():
    """Fixed row combinations of 8 vectors over Z/13, cached by value; a checksum."""
    total = 0
    vecs = [_Vec(tuple((3 * i + 5 * j) % 13 for j in range(8)), 13) for i in range(8)]
    seen = {}
    for r in range(30):
        for i in range(8):
            v = vecs[i].add(vecs[(i + r) % 8], r % 5 + 1)
            seen[v] = seen.get(v, 0) + 1
            total += hash(v) & 7
        vecs = vecs[1:] + vecs[:1]
    return total + len(seen)


_CHECKSUM = reference()


class Calibrator:
    """Interval-timer sampling of ``reference()`` around one timed block."""

    def __init__(self):
        self.samples = []
        self.paused_s = 0.0
        self._start = None
        self._wall = None
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # the library's garbage is not the reference's work
        try:
            checksum = reference()
        finally:
            if enabled:
                gc.enable()
        t1 = time.perf_counter()
        if checksum != _CHECKSUM:
            raise RuntimeError("reference loop gave a different checksum")
        self.samples.append(t1 - t0)
        self.paused_s += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._wall = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def wall_s(self):
        """Wall time of the block without the time the reference ran."""
        return self._wall - self.paused_s

    @property
    def speed(self):
        """Mean of ``REFERENCE_NOMINAL_S / sample``: above 1 on a fast machine."""
        if not self.samples:  # a block shorter than one period
            return 1.0
        return statistics.fmean(REFERENCE_NOMINAL_S / s for s in self.samples)

    @property
    def calibrated_wall_s(self):
        return self.wall_s * self.speed
