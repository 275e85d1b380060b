"""Unified telemetry for the optimization stack.

Recording layers (dependency-free, safe on the hot path):

- :mod:`repro.obs.timing` — thread-safe time totals and counters
  (:class:`~repro.obs.timing.Metrics`) that the optimizer uses to
  attribute per-proposal time to fitting, prediction and acquisition;
  the time totals are credited by spans.
- :mod:`repro.obs.trace` — a structured per-step JSONL trace
  (:class:`~repro.obs.trace.JsonlTraceWriter`) with a versioned schema,
  so long optimization runs can be inspected, diffed and regression-
  tested offline.
- :mod:`repro.obs.spans` — nested wall-time spans with parent ids and
  (pid, tid) attribution (:class:`~repro.obs.spans.SpanRecorder`), the
  only timer: each closed span credits the run's ``Metrics`` time
  totals and, with a sink, is recorded through the trace and
  exportable to Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``) via ``python -m repro.obs.spans``.

Consumer CLIs (import without numpy or scipy; the monitor's first
front hypervolume loads numpy and :mod:`repro.core.pareto`, never
scipy or the optimizer):

- ``python -m repro.obs.monitor DIR`` — live sweep monitor, tails
  journals/traces in place.
- ``python -m repro.obs.report DIR`` — run summary, ``--compare``
  regression gate, table1-log rollup.
"""

from repro.obs.timing import Metrics
from repro.obs.trace import (
    JOB_TRACE_FIELDS,
    SPAN_TRACE_FIELDS,
    TRACE_SCHEMA_VERSION,
    JsonlTraceWriter,
    TraceSchemaError,
    iter_trace,
    read_trace,
    upgrade_record,
)

# Lazy re-exports (PEP 562): ``python -m repro.obs.spans`` executes the
# spans module as __main__ after importing this package — an eager
# ``from repro.obs.spans import ...`` here would leave the module in
# sys.modules first and trigger runpy's double-import RuntimeWarning.
_LAZY_EXPORTS = {
    "SpanRecorder": "repro.obs.spans",
    "export_chrome_trace": "repro.obs.spans",
    "TRACE_CONTEXT_ENV": "repro.obs.spans",
    "format_trace_context": "repro.obs.spans",
    "parse_trace_context": "repro.obs.spans",
}


def __getattr__(name):
    if name in _LAZY_EXPORTS:
        import importlib

        value = getattr(
            importlib.import_module(_LAZY_EXPORTS[name]), name
        )
        globals()[name] = value
        return value
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )

__all__ = [
    "Metrics",
    "JsonlTraceWriter",
    "TraceSchemaError",
    "read_trace",
    "iter_trace",
    "upgrade_record",
    "SpanRecorder",
    "export_chrome_trace",
    "TRACE_CONTEXT_ENV",
    "format_trace_context",
    "parse_trace_context",
    "JOB_TRACE_FIELDS",
    "SPAN_TRACE_FIELDS",
    "TRACE_SCHEMA_VERSION",
]
