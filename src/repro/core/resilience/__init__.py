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

from repro.core.resilience.faults import (
    FaultSpec,
    FaultyFlow,
    FaultyTransport,
    InjectedFlowCrash,
)
from repro.core.resilience.journal import (
    JOURNAL_SCHEMA_VERSION,
    JournalError,
    RunJournal,
    build_async_replay_plan,
    read_journal,
)
from repro.core.resilience.retry import (
    AttemptFailure,
    ResilientOutcome,
    RetryPolicy,
    evaluate_with_policy,
    failed_flow_result,
)
from repro.core.resilience.signals import terminate_on_signals

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
