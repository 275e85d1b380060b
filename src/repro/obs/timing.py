"""Lightweight timer/counter primitives for hot-path attribution.

Designed for inner loops: a :class:`Metrics` registry accumulates named
wall-time buckets and integer counters with dictionary lookups plus one
uncontended lock acquisition — no string formatting, no I/O.  The
optimizer snapshots the registry before and after each step and emits
the difference to the step trace, so per-step attribution costs two
dict copies per step.

The lock matters: the evaluation engine's threads call
``opt.metrics.add_time("eval_s", ...)`` concurrently with the main
thread's timed sections, and a plain ``dict[k] += v`` read-modify-write
can drop updates under that interleaving (regression-tested in
``tests/test_obs.py::TestMetrics::test_concurrent_updates_lose_nothing``).
An uncontended ``threading.Lock`` costs ~100ns per operation, invisible
next to the GP fits these buckets time.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator


class Timer:
    """A start/stop wall-clock timer, usable as a context manager."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._started: float | None = None

    def start(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._started is None:
            raise RuntimeError("Timer.stop() called before start()")
        self.elapsed += time.perf_counter() - self._started
        self._started = None
        return self.elapsed

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class Metrics:
    """Named wall-time buckets and counters for one optimization run.

    Thread-safe: accumulation, snapshots and resets serialize on one
    internal lock, so worker threads and the main loop can update the
    same registry without losing increments.
    """

    def __init__(self) -> None:
        self._times: defaultdict[str, float] = defaultdict(float)
        self._counts: defaultdict[str, int] = defaultdict(int)
        self._lock = threading.Lock()

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Accumulate the wall time of the enclosed block under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self._times[name] += elapsed

    def add_time(self, name: str, seconds: float) -> None:
        with self._lock:
            self._times[name] += seconds

    def incr(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counts[name] += by

    def time(self, name: str) -> float:
        with self._lock:
            return self._times.get(name, 0.0)

    def count(self, name: str) -> int:
        with self._lock:
            return self._counts.get(name, 0)

    def snapshot(self) -> dict[str, float]:
        """Flat copy of all buckets: times under their name, counts as-is."""
        with self._lock:
            out: dict[str, float] = dict(self._times)
            out.update(self._counts)
        return out

    @staticmethod
    def delta(
        before: dict[str, float], after: dict[str, float]
    ) -> dict[str, float]:
        """Per-bucket difference of two snapshots (missing keys are 0)."""
        keys = set(before) | set(after)
        return {k: after.get(k, 0.0) - before.get(k, 0.0) for k in keys}

    def reset(self) -> None:
        with self._lock:
            self._times.clear()
            self._counts.clear()
