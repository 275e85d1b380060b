"""Prometheus text exposition, stdlib-only: render, parse, histograms.

The fleet broker serves a ``/metrics`` endpoint in the Prometheus
`text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ —
``# HELP``/``# TYPE`` comments followed by ``name{labels} value``
samples.  This module is the single registry of metric *names* and
*bucket boundaries* (DESIGN.md Sec. 15): the broker builds families
with :func:`counter`/:func:`gauge`/:func:`histogram_family` and renders
them with :func:`render_metrics`; consumers (the wall-clock benchmark's
fleet workload, tests) read them back with :func:`parse_metrics` and
:func:`metric_value`.

It imports only the standard library, so the broker imports without
numpy.

**Histograms** are fixed-bucket and cumulative (each ``le`` bucket
counts observations ``<= le``; ``+Inf`` equals ``_count``), matching
Prometheus semantics so standard tooling can rate() and quantile
them.  Buckets are fixed at construction — observation
is a lock + bisect, safe on the broker's request path.
"""

from __future__ import annotations

import bisect
import math
import threading

__all__ = [
    "FSYNC_BUCKETS_S",
    "LATENCY_BUCKETS_S",
    "LEASE_BUCKETS_S",
    "Histogram",
    "counter",
    "gauge",
    "histogram_family",
    "metric_value",
    "parse_metrics",
    "render_metrics",
]

#: Per-endpoint HTTP request latency (loopback to rack-local: sub-ms
#: to tens of ms; the long tail is a WAL fsync or a payload transfer).
LATENCY_BUCKETS_S = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5,
)

#: Lease grant → accepted completion, per task (a full cell: seconds
#: to minutes depending on scale and fidelity).
LEASE_BUCKETS_S = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: One WAL append's fsync (the broker's durability tax per request).
FSYNC_BUCKETS_S = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1,
)


class Histogram:
    """Thread-safe fixed-bucket cumulative histogram.

    ``snapshot()`` returns ``{"buckets": [(le, n<=le), ...], "sum",
    "count"}`` with buckets cumulative (Prometheus ``le`` semantics);
    the implicit ``+Inf`` bucket is ``count``.
    """

    def __init__(self, buckets: tuple[float, ...]):
        self.buckets = tuple(sorted(float(b) for b in buckets))
        self._counts = [0] * len(self.buckets)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            return
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            for i in range(index, len(self._counts)):
                self._counts[i] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "buckets": list(zip(self.buckets, self._counts)),
                "sum": self._sum,
                "count": self._count,
            }


def counter(name: str, help_text: str, samples) -> dict:
    """One counter family; ``samples`` is a number or
    ``[(labels_dict, value), ...]``."""
    return {"name": name, "type": "counter", "help": help_text,
            "samples": _as_samples(samples)}


def gauge(name: str, help_text: str, samples) -> dict:
    """One gauge family (same sample forms as :func:`counter`)."""
    return {"name": name, "type": "gauge", "help": help_text,
            "samples": _as_samples(samples)}


def histogram_family(name: str, help_text: str, items) -> dict:
    """One histogram family; ``items`` is a :class:`Histogram` or
    ``[(labels_dict, Histogram), ...]``."""
    if isinstance(items, Histogram):
        items = [({}, items)]
    return {
        "name": name, "type": "histogram", "help": help_text,
        "samples": [
            (dict(labels or {}), hist.snapshot()) for labels, hist in items
        ],
    }


def _as_samples(samples) -> list[tuple[dict, float]]:
    if isinstance(samples, (int, float)):
        return [({}, float(samples))]
    return [(dict(labels or {}), float(value)) for labels, value in samples]


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labels_text(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape(labels[key])}"' for key in sorted(labels)
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_metrics(families: list[dict]) -> str:
    """The full exposition text for a list of metric families."""
    lines: list[str] = []
    for family in families:
        name = family["name"]
        lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {family['type']}")
        if family["type"] == "histogram":
            for labels, snap in family["samples"]:
                for le, count in snap["buckets"]:
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = _format_value(le)
                    lines.append(
                        f"{name}_bucket{_labels_text(bucket_labels)} "
                        f"{count}"
                    )
                inf_labels = dict(labels)
                inf_labels["le"] = "+Inf"
                lines.append(
                    f"{name}_bucket{_labels_text(inf_labels)} "
                    f"{snap['count']}"
                )
                lines.append(
                    f"{name}_sum{_labels_text(labels)} "
                    f"{_format_value(snap['sum'])}"
                )
                lines.append(
                    f"{name}_count{_labels_text(labels)} {snap['count']}"
                )
        else:
            for labels, value in family["samples"]:
                lines.append(
                    f"{name}{_labels_text(labels)} {_format_value(value)}"
                )
    return "\n".join(lines) + "\n"


def parse_metrics(text: str) -> dict[str, float]:
    """``{"name{labels}": value}`` for every sample line in ``text``.

    Comments and malformed lines are skipped (reading a live endpoint
    must never crash the reader); keys keep their label
    block verbatim, so ``fleet_queue_depth{queue="session.a"}`` and
    the bare ``fleet_uptime_seconds`` are both valid keys.
    """
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        # The value is the last whitespace-separated token; the key is
        # everything before it (label values may contain spaces).
        key, _, value_text = line.rpartition(" ")
        if not key:
            continue
        try:
            samples[key.strip()] = float(
                value_text.replace("+Inf", "inf")
            )
        except ValueError:
            continue
    return samples


def metric_value(
    samples: dict[str, float], name: str
) -> float | None:
    """Look one metric up by exact key, else sum its labeled series.

    ``name`` with a label block (``depth{queue="a"}``) must match
    exactly; a bare name sums every series of that family (total
    expiries regardless of queue).  Returns ``None``
    when the family is absent entirely.
    """
    if name in samples:
        return samples[name]
    if "{" in name:
        return None
    total = None
    prefix = name + "{"
    for key, value in samples.items():
        if key == name or key.startswith(prefix):
            total = (total or 0.0) + value
    return total
