"""Worker-count resolution shared by the evaluation pools.

Both the batch evaluation engine (:mod:`repro.core.batch.engine`) and
the cross-run experiment engine (:mod:`repro.experiments.parallel`)
accept a user-supplied worker count from a CLI flag.  A bad value
(``--workers 0``, a negative number, or more workers than the machine
has CPUs) should degrade with a warning, not crash a sweep that may
have hours of cached ground truth behind it.

A process that is itself one worker of a process pool marks itself
with :func:`mark_pool_worker` (the pool's initializer); its in-process
splits (the acquisition's helper thread) then stay inline, so
cell-level parallelism does not oversubscribe the cores.
"""

from __future__ import annotations

import os
import warnings

__all__ = ["compute_threads", "mark_pool_worker", "resolve_worker_count"]

_pool_worker = False


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def mark_pool_worker() -> None:
    """Process-pool initializer: this process is one worker of a pool."""
    global _pool_worker
    _pool_worker = True


def compute_threads() -> int:
    """Threads one in-process computation may split over: the visible
    CPUs, or one in a pool worker (the pool already fills the cores)."""
    return 1 if _pool_worker else _cpu_count()


def resolve_worker_count(workers: int, label: str = "workers") -> int:
    """Clamp ``workers`` to ``[1, visible CPUs]``, warning on adjustment.

    ``label`` names the offending flag in the warning message (e.g.
    ``"--eval-workers"``).
    """
    workers = int(workers)
    if workers < 1:
        warnings.warn(
            f"{label}={workers} is not positive; running with 1 worker",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1
    cpus = _cpu_count()
    if workers > cpus:
        warnings.warn(
            f"{label}={workers} exceeds the {cpus} visible CPU(s); "
            f"clamping to {cpus}",
            RuntimeWarning,
            stacklevel=2,
        )
        return cpus
    return workers
