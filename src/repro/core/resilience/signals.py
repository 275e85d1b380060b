"""Graceful termination on SIGTERM/SIGINT.

``SIGTERM``'s default disposition kills the process without unwinding
the stack — ``finally`` blocks, ``atexit`` hooks and context managers
never run, so worker pools linger and atomic-write temp files leak.
:func:`terminate_on_signals` converts the signal into a raised
``SystemExit`` so normal cleanup (journal close, pool shutdown, temp
unlink) happens on the way out; the sweep's journal makes the
interrupted run resumable afterwards.

The raise lands in whatever bytecode the main thread was running, and
a library may turn it into an error of its own: numpy re-raises an
exception from inside a structured-array ``==`` (what
``np.unique(axis=0)`` runs) as ``TypeError: Cannot compare structured
arrays unless they have a common dtype``.  So the block remembers the
delivery, and any exception other than ``SystemExit`` that leaves it
afterwards is re-raised as ``SystemExit(128 + signum)`` from that
exception: a terminated process exits 143, not 1.
"""

from __future__ import annotations

import contextlib
import signal

__all__ = ["terminate_on_signals"]


@contextlib.contextmanager
def terminate_on_signals(signals=(signal.SIGTERM,)):
    """Raise ``SystemExit(128 + signum)`` inside the block on delivery,
    and again if another exception leaves the block after one.

    Only the main thread may install handlers; anywhere else (worker
    threads, nested pools) this is a no-op passthrough.  Previous
    handlers are restored on exit.
    """
    delivered: list[int] = []

    def _handler(signum, frame):
        delivered.append(signum)
        raise SystemExit(128 + signum)

    previous = {}
    try:
        for sig in signals:
            previous[sig] = signal.signal(sig, _handler)
    except ValueError:  # not the main thread
        for sig, old in previous.items():
            signal.signal(sig, old)
        previous = {}
    try:
        yield
    except SystemExit:
        raise
    except BaseException as exc:
        if delivered:
            raise SystemExit(128 + delivered[0]) from exc
        raise
    finally:
        for sig, old in previous.items():
            try:
                signal.signal(sig, old)
            except ValueError:
                pass
