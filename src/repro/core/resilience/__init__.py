"""Fault tolerance for the BO runtime.

Three pillars (DESIGN.md Sec. 10):

- :mod:`repro.core.resilience.retry` — configurable retry/backoff with
  graceful fidelity degradation and punished total failures.
- :mod:`repro.core.resilience.journal` — crash-safe JSONL run journal
  with bitwise-identical resume (RNG state captured per commit).
- :mod:`repro.core.resilience.faults` — deterministic fault injection
  (:class:`FaultyFlow` for the flow tier, :class:`FaultyTransport` for
  the fleet network tier) for chaos tests, ``bench_resilience`` and
  ``bench_fleet_chaos``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AttemptFailure",
    "FaultSpec",
    "FaultyFlow",
    "FaultyTransport",
    "InjectedFlowCrash",
    "JOURNAL_SCHEMA_VERSION",
    "JournalError",
    "ResilientOutcome",
    "RetryPolicy",
    "RunJournal",
    "build_async_replay_plan",
    "evaluate_with_policy",
    "failed_flow_result",
    "read_journal",
    "terminate_on_signals",
]

# Lazy exports (PEP 562): importing ``signals`` or ``retry`` alone loads
# no other pillar.
__getattr__ = lazy_exports(globals(), {
    "repro.core.resilience.faults": (
        "FaultSpec", "FaultyFlow", "FaultyTransport", "InjectedFlowCrash",
    ),
    "repro.core.resilience.journal": (
        "JOURNAL_SCHEMA_VERSION", "JournalError", "RunJournal",
        "build_async_replay_plan", "read_journal",
    ),
    "repro.core.resilience.retry": (
        "AttemptFailure", "ResilientOutcome", "RetryPolicy",
        "evaluate_with_policy", "failed_flow_result",
    ),
    "repro.core.resilience.signals": ("terminate_on_signals",),
})
