"""Host-speed reference: a fixed pure-Python kernel timed between segments.

A shared host's speed drifts while the benchmark runs.  On a 2-CPU
container on a shared machine (Python 3.11), the same `longrun` pass
ran at anywhere from 2,400 to 5,800 lookups/s within half an hour, and
its speed changed within seconds.  A slowdown like that hits the simulator
and this kernel alike.  :class:`HostClock` times the kernel between
short segments of timed work and divides each segment's time by the
kernel's speed around it: the result is the time the work would have
taken on a host that runs the kernel in :data:`NOMINAL_S`.

The kernel mixes what the simulator's hot paths do: a binary heap of
events, slotted objects with attribute updates, dict counters, float
arithmetic and small list allocations.  It touches no ``repro`` code,
so a change to the program cannot move it.
"""

from __future__ import annotations

import heapq
import time
from typing import List

#: Kernel time that defines one nominal second (seconds).
NOMINAL_S = 0.0085

#: Kernel runs per reading; the fastest one counts.
REPEATS = 2


class _Flow:
    __slots__ = ("remaining", "rate", "done")

    def __init__(self, size: float):
        self.remaining = size
        self.rate = 0.0
        self.done = 0


def _kernel() -> float:
    flows = [_Flow(1000.0 + 37.0 * i) for i in range(24)]
    counts: dict = {}
    heap: list = []
    now = 0.0
    checksum = 0.0
    for step in range(6000):
        share = 1.0 / (1 + step % 7)
        for flow in flows[step % 3::3]:
            flow.rate = share * 125.0
            flow.remaining -= flow.rate * 0.01
            if flow.remaining <= 0.0:
                flow.remaining += 1000.0
                flow.done += 1
        heapq.heappush(heap, (now + (step % 13) * 0.001, step, step % 5))
        if len(heap) > 16:
            when, seq, kind = heapq.heappop(heap)
            now = max(now, when)
            counts[kind] = counts.get(kind, 0) + 1
            checksum += when * 0.5 + seq % 3
        batch = [step, step + 1, step + 2]
        checksum += sum(batch) * 1e-6
    return checksum + sum(flow.done for flow in flows)


def host_factor() -> float:
    """Kernel seconds now, in units of :data:`NOMINAL_S` (fastest run)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best / NOMINAL_S


class HostClock:
    """Accumulates timed work in wall and in nominal-host seconds.

    Call :meth:`record` with the wall seconds of each timed call and
    :meth:`close` at the end of a segment: the segment's times are
    divided by the mean of the host factors read at its two ends.  Keep
    segments short (a fraction of a second to a second) so the readings
    follow the host.  With ``read_host=False`` the kernel never runs and
    nominal equals wall time (for the profiled pass, whose profile the
    kernel would pollute).
    """

    def __init__(self, read_host: bool = True) -> None:
        self.wall_s = 0.0
        self.nominal_s = 0.0
        #: Nominal seconds of each recorded call, in order.
        self.calls_nominal_s: List[float] = []
        self._open: List[float] = []
        self._read = host_factor if read_host else lambda: 1.0
        self._before = self._read()

    def record(self, seconds: float) -> None:
        self._open.append(seconds)

    def close(self) -> None:
        if not self._open:
            return
        after = self._read()
        factor = (self._before + after) / 2.0
        self._before = after
        for seconds in self._open:
            self.wall_s += seconds
            self.nominal_s += seconds / factor
            self.calls_nominal_s.append(seconds / factor)
        self._open.clear()
