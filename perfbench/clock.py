"""Times scaled to a reference CPU speed.

The speed a process gets on a shared machine can swing by a third for
tens of seconds, as neighbours load the sibling hardware thread, and a
run of one workload lasts about as long.  So the benchmark times a fixed
loop of its own next to the work it measures and scales the work's time
by the loop's nominal time over its measured time.  A scaled time is the
time the work would take on a CPU that runs the loop in
``REFERENCE_S`` seconds.

The loop does dict updates and int arithmetic only: it allocates no
object the garbage collector tracks, so the library's heap, however
large, neither triggers a collection inside it nor slows it.  It tracks
how fast the interpreter runs; it does not fully track slowdowns that
come from neighbours sharing the cache, which the workloads feel more.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

from tracing import NullTracer

REFERENCE_S = 0.004
ITERATIONS = 20_000
GAP_S = 0.3


def _loop() -> float:
    table = dict.fromkeys(range(1024), 0)
    start = perf_counter()
    for i in range(ITERATIONS):
        key = i & 1023
        table[key] = table[key] + (i >> 10)
    return perf_counter() - start


def calibrate() -> float:
    """Current seconds per loop, the median of three."""
    return median(_loop() for _ in range(3))


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between loop times ``before`` and ``after``, at reference speed."""
    return seconds * REFERENCE_S * 2 / (before + after)


class ScaledClock(NullTracer):
    """Calls straight through and times a pass in scaled segments.

    Before a library call made at least ``GAP_S`` after the last
    checkpoint, and at ``stop``, the clock times the loop and closes a
    segment, scaled by the mean of the loop times at its two ends.  Loop
    time is left out of both totals; ``raw_s`` is the plain wall time of
    the segments.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.ref_s = 0.0
        self._speed = calibrate()
        self._mark = perf_counter()

    def _checkpoint(self) -> None:
        elapsed = perf_counter() - self._mark
        speed = calibrate()
        self.raw_s += elapsed
        self.ref_s += scaled(elapsed, self._speed, speed)
        self._speed = speed
        self._mark = perf_counter()

    def call(self, name, fn, *args):
        if perf_counter() - self._mark >= GAP_S:
            self._checkpoint()
        return fn(*args)

    def stop(self) -> None:
        self._checkpoint()
