"""Host-speed calibration: scale in-process times to a reference host speed.

The benchmark runs on a few cores of a shared host, whose speed swings
by a third as its neighbours come and go, in spells of seconds to
minutes.  The in-process workloads therefore interleave short slices of
a fixed kernel (the benchmark's own code, never the program's) with
their calls: every ``SLICE_EVERY`` seconds the loop runs the kernel
``SLICE_KERNELS`` times between two calls.  Each measured time is then
multiplied by ``REFERENCE_S`` over the kernel's median time within
``HALF_WINDOW`` of it: the time the call would have taken on a host
running the kernel at ``REFERENCE_S``.  A change to the program moves
the scaled times as it moves the raw ones; a change of host speed moves
the kernel with them.  Over 4 s windows of one run the kernel removed
two thirds of the swing in per-query time on both ``lib-*`` workloads.

The HTTP workload is not scaled: its time is spent in other processes
and in waking them, which a kernel on the client's thread does not see
(its scaled times spread wider than its raw ones).
"""

from __future__ import annotations

import bisect
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: The kernel's median time on the 2-CPU host the bounds were set on.
REFERENCE_S = 2.5e-4
#: Seconds of load between two calibration slices.
SLICE_EVERY = 0.2
SLICE_KERNELS = 12
#: Kernels run before and after each set-up.
SETUP_KERNELS = 24
#: A time is scaled by the kernel samples within this many seconds of it.
HALF_WINDOW = 1.0
#: ... or, where that window holds fewer, by the nearest this many.
MIN_SAMPLES = 16

_rng = np.random.default_rng(20220101)
_POINTS = _rng.standard_normal((4096, 50))
_QUERY = _rng.standard_normal(50)
_IDS = _rng.integers(0, 4096, size=(8, 96))


def kernel() -> int:
    """One unit of fixed work shaped like a query's: interpreter
    bookkeeping, gathers of point rows and small distance sweeps."""
    tally = {}
    for i in range(300):
        tally[i % 89] = tally.get(i % 89, 0) + i
    best = 0
    for ids in _IDS:
        diff = _POINTS[ids] - _QUERY
        d2 = np.einsum("ij,ij->i", diff, diff)
        best += int(np.argpartition(d2, 10)[0])
    return best + len(tally)


class HostClock:
    """Kernel samples taken through a run, and the scale they give."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.times: List[float] = []
        self.pauses: List[Tuple[float, float]] = []
        self.next_slice = 0.0

    def add(self, start: float, seconds: float) -> None:
        """Record one kernel time; samples arrive in time order."""
        self.starts.append(start)
        self.times.append(seconds)

    def slice(self, kernels: int = SLICE_KERNELS) -> None:
        """Run the kernel ``kernels`` times now; the load must be paused.

        One more, untimed, runs first: the load has just evicted the
        kernel's data from the caches.
        """
        began = time.perf_counter()
        kernel()
        for _ in range(kernels):
            t0 = time.perf_counter()
            kernel()
            self.add(t0, time.perf_counter() - t0)
        end = time.perf_counter()
        self.pauses.append((began, end))
        self.next_slice = end + SLICE_EVERY

    def tick(self) -> None:
        """Take a slice if one is due: for a loop that calls between."""
        if time.perf_counter() >= self.next_slice:
            self.slice()

    def factor(self, t: float, until: Optional[float] = None) -> float:
        """``REFERENCE_S`` over the kernel's median time around ``t``
        (or over ``[t, until]``, widened by ``HALF_WINDOW``)."""
        if not self.times:
            raise ValueError("no calibration samples")
        end = t if until is None else until
        lo = bisect.bisect_left(self.starts, t - HALF_WINDOW)
        hi = bisect.bisect_right(self.starts, end + HALF_WINDOW)
        if hi - lo < MIN_SAMPLES:
            near = np.argsort(np.abs(np.asarray(self.starts) - (t + end) / 2.0))
            window = [self.times[i] for i in near[:MIN_SAMPLES]]
        else:
            window = self.times[lo:hi]
        return REFERENCE_S / float(np.median(window))

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the reference speed."""
        return seconds * self.factor(start, start + seconds)

    def scaled_span(self, start: float, end: float, step: float = 0.05) -> float:
        """The time from ``start`` to ``end`` outside the slices, at the
        reference speed: the active wall a throughput is divided by."""
        total = 0.0
        t = start
        while t < end:
            u = min(t + step, end)
            total += (u - t - self.paused(t, u)) * self.factor((t + u) / 2.0)
            t = u
        return total

    def paused(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` spent in calibration slices."""
        return sum(max(0.0, min(end, b) - max(start, a)) for a, b in self.pauses)


def scaled(clock: HostClock, spans: Sequence[Tuple[float, float]]) -> List[float]:
    """Durations of ``(start, end)`` intervals at the reference speed."""
    return [clock.scale(a, b - a) for a, b in spans]
