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

from repro._lazy import lazy_exports

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

# Lazy exports (PEP 562): the sweep pool and the fleet worker import
# ``workers`` and ``engine`` without the GP stack ``async_engine`` needs.
__getattr__ = lazy_exports(globals(), {
    "repro.core.batch.async_engine": (
        "AsyncState", "PendingEval", "replay_async", "run_async_loop",
    ),
    "repro.core.batch.engine": (
        "EvalEngine", "EvalJob", "EvalOutcome", "FlowEvalError",
        "parallel_fidelity_sweep",
    ),
    "repro.core.batch.qeipv": ("believer_fantasies",),
    "repro.core.batch.workers": ("resolve_worker_count",),
})
