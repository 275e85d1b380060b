"""Thread-safe time totals and counters for hot-path attribution.

Designed for inner loops: a :class:`Metrics` registry accumulates named
wall-time totals and integer counters with dictionary lookups plus one
uncontended lock acquisition — no string formatting, no I/O.  Time
enters only through :class:`repro.obs.spans.SpanRecorder`, which
credits every span it closes to its registry under the span's name;
counters come from :meth:`Metrics.incr`.  The optimizer snapshots the
registry before and after each proposal and emits the difference to
the trace, so per-proposal attribution costs two dict copies.

The lock matters: the evaluation engine's threads close ``flow_eval``
spans concurrently with the main thread's spans, and a plain
``dict[k] += v`` read-modify-write can drop updates under that
interleaving (regression-tested in
``tests/test_obs.py::TestMetrics::test_concurrent_updates_lose_nothing``).
An uncontended ``threading.Lock`` costs ~100ns per operation, invisible
next to the GP fits these totals time.
"""

from __future__ import annotations

import threading
from collections import defaultdict


class Metrics:
    """Named wall-time totals and counters for one optimization run.

    Thread-safe: accumulation and snapshots serialize on one internal
    lock, so worker threads and the main loop can update the same
    registry without losing increments.
    """

    def __init__(self) -> None:
        self._times: defaultdict[str, float] = defaultdict(float)
        self._counts: defaultdict[str, int] = defaultdict(int)
        self._lock = threading.Lock()

    def add_time(self, name: str, seconds: float) -> None:
        with self._lock:
            self._times[name] += seconds

    def incr(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counts[name] += by

    def count(self, name: str) -> int:
        with self._lock:
            return self._counts.get(name, 0)

    def snapshot(self) -> dict[str, float]:
        """Flat copy of all totals: times and counts under their names."""
        with self._lock:
            out: dict[str, float] = dict(self._times)
            out.update(self._counts)
        return out

    @staticmethod
    def delta(
        before: dict[str, float], after: dict[str, float]
    ) -> dict[str, float]:
        """Per-name difference of two snapshots (missing keys are 0)."""
        keys = set(before) | set(after)
        return {k: after.get(k, 0.0) - before.get(k, 0.0) for k in keys}
