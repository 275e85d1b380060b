"""Unified telemetry for the optimization stack.

Recording layers (dependency-free, safe on the hot path):

- :mod:`repro.obs.timing` — wall-clock timers and counters
  (:class:`~repro.obs.timing.Metrics`, thread-safe) that the optimizer
  uses to attribute per-step time to fitting, prediction and
  acquisition.
- :mod:`repro.obs.trace` — a structured per-step JSONL trace
  (:class:`~repro.obs.trace.JsonlTraceWriter`) with a versioned schema,
  so long optimization runs can be inspected, diffed and regression-
  tested offline.
- :mod:`repro.obs.spans` — nested wall-time spans with parent ids and
  (pid, tid) attribution (:class:`~repro.obs.spans.SpanRecorder`),
  recorded through the trace and exportable to Chrome trace-event JSON
  (Perfetto / ``chrome://tracing``) via
  ``python -m repro.obs.spans``.
- :mod:`repro.obs.profiling` — an opt-in cProfile hook
  (:func:`~repro.obs.profiling.maybe_profile`) for drilling into a
  single run without touching the code under test.

Consumer CLIs (stdlib-only — no optimizer imports):

- ``python -m repro.obs.monitor DIR`` — live sweep monitor, tails
  journals/traces in place.
- ``python -m repro.obs.report DIR`` — run summary, ``--compare``
  regression gate, table1-log rollup.
"""

from repro.obs.profiling import maybe_profile
from repro.obs.timing import Metrics, Timer
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
    "NULL_SPANS": "repro.obs.spans",
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
    "Timer",
    "JsonlTraceWriter",
    "TraceSchemaError",
    "read_trace",
    "iter_trace",
    "upgrade_record",
    "maybe_profile",
    "SpanRecorder",
    "NULL_SPANS",
    "export_chrome_trace",
    "TRACE_CONTEXT_ENV",
    "format_trace_context",
    "parse_trace_context",
    "JOB_TRACE_FIELDS",
    "SPAN_TRACE_FIELDS",
    "TRACE_SCHEMA_VERSION",
]
