"""Timing, spans, operation counts and deadlines for the benchmark's own calls.

Every call the benchmark makes into a mixcap layer goes through
``Recorder.span``. A span always yields a wall-time sample (the end-to-end
metrics need those); when tracing is on it is also kept, with its start,
end and parent, so that each layer's self time can be computed at the end.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from checks import CheckFailed, Fault


CALIBRATION_LOOPS = 300_000
CHILD_CODE = f"s = 0\nfor i in range({CALIBRATION_LOOPS}):\n    s += i\n"
# Durations of the two calibrations at the reference machine speed.
REFERENCE_LOOP_S = 0.020
REFERENCE_CHILD_S = 0.100


def _loop(n: int) -> int:
    s = 0
    for i in range(n):
        s += i
    return s


class Speed:
    """Scales wall times to a fixed machine speed.

    The 2-core virtual machine the benchmark was built on runs the same code
    up to 1.9 times slower for stretches of ten seconds and more, because of
    load on the host it shares. So each timed call is bracketed by a calibration of
    fixed work, and the call's time is multiplied by the reference duration
    of that calibration over its measured duration (the mean of the two
    around the call). In-process calls use an integer loop; calls that start
    an interpreter use a child interpreter running the same loop.
    """

    def __init__(self, env: dict):
        self.env = env
        self.loops: list[float] = []
        self.children: list[float] = []

    def loop(self) -> float:
        start = perf_counter()
        _loop(CALIBRATION_LOOPS)
        self.loops.append(perf_counter() - start)
        return self.loops[-1]

    def child(self) -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", CHILD_CODE], env=self.env, check=True, timeout=60)
        self.children.append(perf_counter() - start)
        return self.children[-1]

    def scale(self, seconds: float, before: float) -> float:
        """An in-process call's time at the reference speed; ``before`` from loop()."""
        return seconds * REFERENCE_LOOP_S / (0.5 * (before + self.loop()))

    def scale_child(self, seconds: float, before: float, after: float | None = None) -> float:
        """A child interpreter's time at the reference speed; ``before`` from child()."""
        after = self.child() if after is None else after
        return seconds * REFERENCE_CHILD_S / (0.5 * (before + after))


class Deadline(Exception):
    """A call ran past the deadline the benchmark set on its own process."""


@contextmanager
def deadline(seconds: float):
    """Raise Deadline in the calling (main) thread after ``seconds``."""
    def expire(signum, frame):
        raise Deadline(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class Recorder:
    """Wall-time samples by name; spans (name, start, end, parent) when tracing."""

    def __init__(self):
        self.tracing = False
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = None
        if self.tracing:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
            self._open.append(index)
        start = perf_counter()
        try:
            yield
            self.samples[name].append(perf_counter() - start)
        finally:
            if index is not None:
                self.spans[index][1:3] = start, perf_counter()
                self._open.pop()

    def call(self, name: str, fn, *args):
        """(fn(*args), seconds) with the call inside a span named ``name``."""
        with self.span(name):
            result = fn(*args)
        return result, self.samples[name][-1]

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name]) if self.samples.get(name) else 0.0

    def self_times(self) -> dict[str, float]:
        """Seconds per layer (the span name's first part) outside child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), children in zip(self.spans, child_time):
            totals[name.split(".", 1)[0]] += end - start - children
        return dict(totals)


class Tally:
    """Operations attempted, failed, and wrong outputs among the rest."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self._log = log
        self._logged: set[str] = set()

    def op(self, name: str, fn, *args):
        """Run one operation; a fault, deadline or exception from the program fails it."""
        self.attempted += 1
        try:
            return fn(*args)
        except CheckFailed as exc:
            self.reject(name, exc)
        except (Fault, Deadline) as exc:
            self._fail(name, exc)
        except Exception as exc:  # an error from the program fails the operation
            self._fail(name, exc)
            self._log(traceback.format_exc(limit=3))
        return None

    def reject(self, name: str, exc: CheckFailed) -> None:
        """Record a wrong output; the run's ``correct`` becomes false."""
        self.wrong.append(f"{name}: {exc}")
        self._log(f"WRONG {name}: {exc}")

    def _fail(self, name: str, exc: Exception) -> None:
        self.failed += 1
        key = f"{name}: {type(exc).__name__}: {exc}"
        if key not in self._logged:
            self._logged.add(key)
            self._log(f"FAILED {key}")
