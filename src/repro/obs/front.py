"""Running nondominated-front tracking over journal ``commit`` records.

Every consumer-side view of a run's objective space folds the same
journal ``commit`` records through :class:`FrontTracker`: the live
monitor's per-cell HV column, the fleet worker's best-so-far heartbeat
attachment, and the broker's fleet-wide ``/best`` aggregation.

Objectives are the journal's ``[power_w, delay_us, lut_util]`` triple
(all minimized; ``delay_us = latency_cycles * clock_ns * 1e-3``).  The
hypervolume reference point is the componentwise worst point seen plus
10% — comparable across refreshes of one tracker, not across trackers.

The front and hypervolume are :mod:`repro.core.pareto`'s (paper
Eq. (6)); they are imported on the first front computation, so this
module imports without numpy and the broker and monitor load numpy
only when they first fold a front — never scipy or the optimizer.
"""

from __future__ import annotations

import math

from repro.fleet.wal import iter_records

__all__ = ["FrontTracker", "point_from_commit"]


def _float(value) -> float:
    """Journal floats may be sentinel strings ("NaN"/"Infinity")."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def point_from_commit(record: dict) -> tuple[float, float, float] | None:
    """The objective triple of one journal ``commit`` record.

    ``None`` for non-commit records, commits without reports, and
    invalid final reports — exactly the filtering the monitor applies.
    """
    if record.get("event") != "commit":
        return None
    reports = record.get("reports") or []
    if not reports:
        return None
    final = reports[-1]
    if not final.get("valid"):
        return None
    delay_us = (
        _float(final.get("latency_cycles")) * _float(final.get("clock_ns"))
        * 1e-3
    )
    return (
        _float(final.get("power_w")),
        delay_us,
        _float(final.get("lut_util")),
    )


class FrontTracker:
    """Fold journal lines into a running best-so-far front summary.

    ``feed``/``feed_record`` accumulate valid commit points (a point
    with a NaN or infinite objective is dropped; its commit still
    counts); :meth:`summary` returns a JSON-able
    ``{"n", "commits", "hv", "best": {power_w, delay_us, lut_util},
    "points"}`` snapshot — the payload workers attach to segment
    heartbeats and the broker aggregates per session queue.
    ``points`` is the front itself, capped at ``max_points``
    (closest-to-ideal kept) so a heartbeat stays small no matter how
    long the run.
    """

    def __init__(self) -> None:
        self.points: list[tuple[float, float, float]] = []
        self.commits = 0

    def _add(self, point: tuple[float, ...]) -> bool:
        if not all(math.isfinite(v) for v in point):
            return False
        self.points.append(point)
        return True

    def feed_record(self, record: dict) -> bool:
        """Fold one parsed record; ``True`` if it added a point."""
        if record.get("event") == "commit":
            self.commits += 1
        point = point_from_commit(record)
        return point is not None and self._add(point)

    def feed(self, data: str | bytes) -> int:
        """Fold a chunk of newline-separated journal lines (torn and
        foreign lines are skipped); returns the points added."""
        return sum(self.feed_record(record) for record in iter_records(data))

    def front(self) -> list[tuple[float, float, float]]:
        """The distinct non-dominated points, lexicographically sorted."""
        if not self.points:
            return []
        from repro.core.pareto import pareto_front

        return [tuple(p) for p in pareto_front(self.points).tolist()]

    def summary(self, max_points: int = 64) -> dict:
        """The JSON-able best-so-far snapshot (empty front → n=0)."""
        front = self.front()
        n = len(front)
        hv = 0.0
        if front:
            from repro.core.pareto import hypervolume

            ref = tuple(
                max(p[i] for p in self.points) * 1.1 + 1e-12
                for i in range(3)
            )
            hv = hypervolume(front, ref)
        if n > max_points:
            # Keep the points closest to the componentwise ideal, in
            # ref-normalized coordinates; exact distance ties go to the
            # smaller point, so the cap never depends on arrival order.
            ideal = tuple(min(p[i] for p in front) for i in range(3))
            span = tuple(max(r - i, 1e-12) for r, i in zip(ref, ideal))
            front = sorted(
                front,
                key=lambda p: (
                    sum(((v - i) / s) ** 2 for v, i, s in zip(p, ideal, span)),
                    p,
                ),
            )[:max_points]
        best = None
        if front:
            best = {
                "power_w": min(p[0] for p in front),
                "delay_us": min(p[1] for p in front),
                "lut_util": min(p[2] for p in front),
            }
        return {
            "n": n,
            "commits": self.commits,
            "hv": hv,
            "best": best,
            "points": [list(p) for p in sorted(front)],
        }

    @staticmethod
    def merge_summaries(summaries: list[dict]) -> dict:
        """Fleet-wide fold: union the member fronts, re-front, re-HV.

        The broker aggregates per-task worker summaries into one
        per-queue best-so-far; merging point sets (not HV numbers —
        those use per-tracker reference points) keeps the result
        deterministic regardless of arrival order.
        """
        merged = FrontTracker()
        for summary in summaries:
            merged.commits += int(summary.get("commits", 0))
            for point in summary.get("points") or []:
                try:
                    triple = tuple(float(v) for v in point)[:3]
                except (TypeError, ValueError):
                    continue
                if len(triple) == 3:
                    merged._add(triple)
        return merged.summary()
