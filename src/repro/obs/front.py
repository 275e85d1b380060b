"""Running nondominated-front tracking, stdlib-only.

The shared Pareto/hypervolume math for every consumer-side view of a
run's objective space: the live monitor's per-cell HV column, the
fleet worker's best-so-far heartbeat attachment, and the broker's
fleet-wide ``/best`` aggregation all fold the same journal ``commit``
records through :class:`FrontTracker`.

Objectives are the journal's ``[power_w, delay_us, lut_util]`` triple
(all minimized; ``delay_us = latency_cycles * clock_ns * 1e-3``).  The
hypervolume reference point is the componentwise worst point seen plus
10% (:func:`reference_point`) — comparable across refreshes of one
tracker, not across trackers.

Pure python, O(n^2) fronts: fine for the tens-to-hundreds of committed
points a cell accumulates.  Imports only the standard library (and the
stdlib-only line parser in :mod:`repro.fleet.wal`) so the broker and
monitor stay importable without numpy.
"""

from __future__ import annotations

import math

from repro.fleet.wal import iter_records

__all__ = [
    "FrontTracker",
    "hypervolume",
    "pareto_front",
    "point_from_commit",
    "reference_point",
]


def pareto_front(points: list[tuple[float, ...]]) -> list[tuple[float, ...]]:
    """Non-dominated subset (all objectives minimized); O(n^2), fine
    for the tens-to-hundreds of committed points a cell accumulates."""
    front: list[tuple[float, ...]] = []
    for p in points:
        if any(math.isnan(v) for v in p):
            continue
        dominated = False
        for q in points:
            if q is p:
                continue
            if all(a <= b for a, b in zip(q, p)) and any(
                a < b for a, b in zip(q, p)
            ):
                dominated = True
                break
        if not dominated and p not in front:
            front.append(p)
    return front


def _union_area_2d(
    boxes: list[tuple[float, float]], rx: float, ry: float
) -> float:
    """Area of the union of [x, rx] x [y, ry] boxes (staircase sweep)."""
    pts = sorted({(x, y) for x, y in boxes if x < rx and y < ry})
    area = 0.0
    best_y = ry
    for x, y in pts:  # ascending x
        if y < best_y:
            area += (rx - x) * (best_y - y)
            best_y = y
    return area


def hypervolume(
    front: list[tuple[float, ...]], ref: tuple[float, ...]
) -> float:
    """Dominated hypervolume of a 3-objective front against ``ref``.

    Slices along the third objective: between consecutive z levels the
    dominated cross-section is a 2-D union of boxes, so the volume is
    the sum of (slab height x union area).  Exact, stdlib-only, and
    O(n^2 log n) — plenty for a monitor refresh.
    """
    pts = [p for p in front if all(a < b for a, b in zip(p, ref))]
    if not pts:
        return 0.0
    if len(ref) == 2:
        return _union_area_2d([(p[0], p[1]) for p in pts], ref[0], ref[1])
    levels = sorted({p[2] for p in pts}) + [ref[2]]
    volume = 0.0
    for lo, hi in zip(levels, levels[1:]):
        active = [(p[0], p[1]) for p in pts if p[2] <= lo]
        if active:
            volume += (hi - lo) * _union_area_2d(active, ref[0], ref[1])
    return volume


def reference_point(
    points: list[tuple[float, ...]]
) -> tuple[float, ...] | None:
    """Componentwise worst + 10% (the monitor's per-cell convention)."""
    pts = [p for p in points if not any(math.isnan(v) for v in p)]
    if not pts:
        return None
    return tuple(
        max(p[i] for p in pts) * 1.1 + 1e-12 for i in range(len(pts[0]))
    )


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

    ``feed``/``feed_record`` accumulate valid commit points;
    :meth:`summary` returns a JSON-able
    ``{"n", "hv", "best": {power_w, delay_us, lut_util}, "points"}``
    snapshot — the payload workers attach to segment heartbeats and
    the broker aggregates per session queue.  ``points`` is the front
    itself, capped at ``max_points`` (closest-to-ideal kept) so a
    heartbeat stays small no matter how long the run.
    """

    def __init__(self) -> None:
        self.points: list[tuple[float, float, float]] = []
        self.commits = 0

    def feed_record(self, record: dict) -> bool:
        """Fold one parsed record; ``True`` if it added a point."""
        if record.get("event") == "commit":
            self.commits += 1
        point = point_from_commit(record)
        if point is None or any(math.isnan(v) for v in point):
            return False
        self.points.append(point)
        return True

    def feed(self, data: str | bytes) -> int:
        """Fold a chunk of newline-separated journal lines (torn and
        foreign lines are skipped); returns the points added."""
        return sum(self.feed_record(record) for record in iter_records(data))

    def front(self) -> list[tuple[float, float, float]]:
        return pareto_front(self.points)

    def summary(self, max_points: int = 64) -> dict:
        """The JSON-able best-so-far snapshot (empty front → n=0)."""
        front = self.front()
        ref = reference_point(self.points)
        hv = hypervolume(front, ref) if ref is not None else 0.0
        if len(front) > max_points:
            # Keep the points closest to the componentwise ideal, in
            # ref-normalized coordinates — a stable, deterministic cap.
            ideal = tuple(
                min(p[i] for p in front) for i in range(3)
            )
            span = tuple(
                max(r - i, 1e-12) for r, i in zip(ref, ideal)
            )
            front = sorted(
                front,
                key=lambda p: sum(
                    ((v - i) / s) ** 2
                    for v, i, s in zip(p, ideal, span)
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
            "n": len(self.front()),
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
                if len(triple) == 3 and not any(
                    math.isnan(v) for v in triple
                ):
                    merged.points.append(triple)
        return merged.summary()
