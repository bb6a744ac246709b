"""Reference-speed clock: wall time corrected for the machine's speed.

The benchmark runs on shared hosts whose speed drifts by up to 2x within
seconds (another tenant on the same core), so raw wall time of identical
work varies far more than any change worth detecting.  A background
thread therefore times a fixed pure-Python probe (dict, heap and object
work, like the program's) every few milliseconds while the benchmark
runs.  The probe's duration relative to ``REFERENCE_PROBE_S`` gives the
machine's speed at that moment, and :meth:`Speedometer.seconds` converts a
wall-time interval into the seconds it would have taken at reference
speed: ``(wall - probe time) * mean speed``.  The probe holds the GIL for
under a millisecond per sample; its own time is subtracted.
"""

from __future__ import annotations

import heapq
import threading
import time

perf = time.perf_counter

#: Duration of one :func:`probe` on an idle 2.1 GHz Xeon vCPU (Python 3.11);
#: the unit that makes corrected times read as seconds on that machine.
REFERENCE_PROBE_S = 0.0007

#: Pause between probes.
PERIOD_S = 0.01


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def probe(n: int = 1500) -> int:
    """A fixed slice of interpreter work."""
    table: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    total = 0
    for i in range(n):
        key = i % 211
        table[key] = table.get(key, 0) + 1
        item = _Item(i, key)
        total += item.a - item.b
        if i % 5 == 0:
            heapq.heappush(heap, (key, i))
    while heap:
        heapq.heappop(heap)
    return total


class Speedometer:
    """Background probe of machine speed; use as a context manager."""

    def __init__(self) -> None:
        #: ``(start, duration)`` of every probe taken.
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speedometer", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start = perf()
            probe()
            self.samples.append((start, perf() - start))

    def __enter__(self) -> "Speedometer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def seconds(self, start: float, end: float) -> float:
        """Reference-speed seconds of the wall interval ``[start, end]``.

        Probes inside the interval are weighted by the gap to the next
        probe; an interval holding fewer than three probes borrows the
        three nearest to its midpoint.
        """
        samples = list(self.samples)
        inside = [s for s in samples if start <= s[0] < end]
        busy = sum(duration for _, duration in inside)
        if len(inside) < 3:
            middle = (start + end) / 2
            inside = sorted(samples, key=lambda s: abs(s[0] - middle))[:3]
            inside.sort()
        if not inside:
            raise RuntimeError("speedometer took no samples")
        stamps = [s[0] for s in inside] + [max(end, inside[-1][0] + inside[-1][1])]
        weights = [max(b - a, 1e-9) for a, b in zip(stamps, stamps[1:])]
        speed = sum(
            w * REFERENCE_PROBE_S / duration for w, (_, duration) in zip(weights, inside)
        ) / sum(weights)
        return (end - start - busy) * speed
