"""The BO loop's evaluation side: proposal pipeline + async evaluation.

:mod:`repro.core.batch.async_engine` runs Algorithm 2 as one
propose/commit pipeline (:func:`run_async_loop`): by default one
evaluation in flight (the paper's sequential loop), a round barrier of
``q`` greedy Kriging-believer proposals with ``batch_size=q``
(:mod:`repro.core.batch.qeipv`), or commit-as-completed with an
adaptive in-flight target.  Evaluations run on a pool of flow workers
(:mod:`repro.core.batch.engine`) and are committed in a modeled order,
so fixed-seed runs are reproducible regardless of worker timing.
"""

from repro.core.batch.async_engine import (
    AsyncState,
    PendingEval,
    replay_async,
    run_async_loop,
)
from repro.core.batch.engine import (
    EvalEngine,
    EvalJob,
    EvalOutcome,
    FlowEvalError,
    parallel_fidelity_sweep,
)
from repro.core.batch.qeipv import believer_fantasies
from repro.core.batch.workers import resolve_worker_count

__all__ = [
    "AsyncState",
    "EvalEngine",
    "EvalJob",
    "EvalOutcome",
    "FlowEvalError",
    "PendingEval",
    "believer_fantasies",
    "parallel_fidelity_sweep",
    "replay_async",
    "resolve_worker_count",
    "run_async_loop",
]
