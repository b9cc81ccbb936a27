"""Machine-speed calibration for a shared host.

On a host shared with other tenants the interpreter's speed switches between
a fast and a slow state, about 1.6x apart, for one to several seconds at a
time, and that drift, not the program, sets most of the run-to-run spread of
raw timings. So each timed interval is scaled by how fast a fixed
pure-Python loop (list indexing and float arithmetic, like the sweep's inner
loop) ran around and during it: a point of a few samples just before and
just after the interval, plus the samples a background thread took every
``PERIOD_S`` while it ran. The interval's time is multiplied by
``REFERENCE_S`` over the median of those samples, so it reads as seconds on
a machine where one sample takes ``REFERENCE_S``.

Nothing here depends on hbtm, so a change to hbtm moves scaled times as it
moves raw ones. A sample allocates no container objects, so the garbage
collector and the size of the program's heap do not enter it, and it is
shorter than the interpreter's thread switch interval, so the thread it runs
on is not preempted in the middle. Only ``time`` and ``threading`` are
imported, so a set-up probe can calibrate before it imports anything else.
"""

from __future__ import annotations

import threading
import time

REFERENCE_S = 0.001  # one sample on an unloaded 2-core Xeon, Python 3.11
SAMPLES_PER_POINT = 5
PERIOD_S = 0.05

_TABLE = [[(i * j) % 7 for j in range(20)] for i in range(50)]


def sample() -> float:
    """Seconds for one fixed unit of interpreter work."""
    table = _TABLE
    started = time.perf_counter()
    acc = 0.0
    for r in range(500):
        row = table[r % 50]
        for k in range(20):
            acc += row[k] * (k + 1) / (r + 1.5)
    return time.perf_counter() - started


def point() -> list[float]:
    return [sample() for _ in range(SAMPLES_PER_POINT)]


class Sampler:
    """A daemon thread that takes one (start time, seconds) sample every PERIOD_S.

    Use as a context manager around the timed calls; it costs them about 2%.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            started = time.perf_counter()
            self.samples.append((started, sample()))

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def scaled(intervals: list[tuple[float, float]], points: list[list[float]],
           samples: list[tuple[float, float]]) -> list[float]:
    """Reference-speed seconds of consecutive (start, seconds) intervals.

    Point i was taken just before interval i and point i + 1 just after it;
    ``samples`` are a Sampler's, of which those inside an interval count too.
    """
    if len(points) != len(intervals) + 1:
        raise ValueError("need one calibration point around every interval")
    out = []
    for (start, seconds), before, after in zip(intervals, points, points[1:]):
        pool = before + after + [x for t, x in samples if start <= t <= start + seconds]
        out.append(seconds * REFERENCE_S / _median(pool))
    return out


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
