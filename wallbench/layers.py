"""Per-layer wall-clock attribution by wrapping ``repro.*`` entry points.

The tracer patches public functions and methods of each layer from the
outside and restores them on :meth:`LayerTracer.remove`; nothing under
``src/`` knows it is being measured.  Each wrapper reads only clocks,
argument shapes and return sizes, so a traced run makes the same calls
in the same order as an untraced one.

A wrapper opens a span on a per-thread stack.  A layer's *self* time
is its span's duration minus the time covered by child spans on the
same thread, so nested layers (``eipv_mc`` calling ``hvi_batch``) are
never counted twice.  Some wrappers are transparent under a parent:
predictions made while fitting (the multi-fidelity stack feeds lower
levels' means into upper levels) stay part of the fit.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

#: Modules whose names the tracer rebinds; imported before patching so
#: every ``from X import f`` copy of an entry point is found.
TRACED_MODULES = (
    "repro.benchsuite.registry",
    "repro.hlsim.gtcache",
    "repro.hlsim.flow",
    "repro.experiments.harness",
    "repro.core.restarts",
    "repro.core.gp",
    "repro.core.multitask",
    "repro.core.multifidelity",
    "repro.core.acquisition",
    "repro.core.pareto",
    "repro.core.optimizer",
    "repro.core.batch.engine",
    "repro.core.batch.qeipv",
    "repro.core.batch.async_engine",
    "repro.core.resilience.journal",
    "repro.fleet.client",
)

#: Predictions made inside these spans stay part of them.
PREDICT_PARENTS = frozenset(
    {"core.fit", "core.fit_condition", "core.predict"}
    | {f"core.fit_optimize.l{i}" for i in range(3)}
)


class LayerTracer:
    """Self-time and count accumulators fed by wrapped entry points."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.main_self_s = 0.0
        self.fleet_results: list[bytes] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._levels: dict[int, int] = {}

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def top(self) -> str | None:
        stack = self._stack()
        return stack[-1][0] if stack else None

    def count(self, name: str, by: int = 1) -> None:
        with self._lock:
            self.counts[name] += by

    def span(self, layer, fn, after=None):
        """``fn`` wrapped in a self-timed span named ``layer``.

        ``layer`` may be a callable of the call's ``(args, kwargs)``;
        ``after`` sees ``(args, kwargs, result)`` once the span closed.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            name = layer(args, kwargs) if callable(layer) else layer
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = time.perf_counter() - frame[1]
                own = elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed
                with tracer._lock:
                    tracer.self_s[name] += own
                    tracer.total_s[name] += elapsed
                    if threading.current_thread() is threading.main_thread():
                        tracer.main_self_s += own
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "counts": dict(self.counts),
                "main_self_s": self.main_self_s,
            }

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every loaded ``repro`` module name bound to ``original``
        at ``replacement``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _method(self, cls, name: str, make) -> None:
        original = cls.__dict__[name]
        self._patches.append((cls, name, original))
        setattr(cls, name, make(original))

    def install(self) -> "LayerTracer":
        import importlib

        for name in TRACED_MODULES:
            importlib.import_module(name)
        from repro.benchsuite import registry
        from repro.core import acquisition, pareto, restarts
        from repro.core.batch.engine import EvalEngine
        from repro.core.multifidelity import NonlinearMultiFidelityStack
        from repro.core.multitask import MultiTaskGP
        from repro.core.resilience.journal import RunJournal
        from repro.fleet.client import BrokerClient
        from repro.hlsim import gtcache
        from repro.hlsim.flow import HlsFlow

        count = self.count

        def configs(_a, _k, space):
            count("dse.configs", len(space))
            count("dse.builds")

        self._rebind(
            registry.get_space,
            self.span("dse.build", registry.get_space, after=configs),
        )
        self._rebind(
            gtcache.load_or_compute_ground_truth,
            self.span("hlsim.gt_load", gtcache.load_or_compute_ground_truth),
        )

        def flow_call(args, kwargs, _result):
            upto = kwargs.get("upto", args[2] if len(args) > 2 else None)
            level = "impl" if upto is None else upto.short_name
            count(f"hlsim.flow_calls.{level}")

        self._method(
            HlsFlow, "run",
            lambda fn: self.span("hlsim.flow", fn, after=flow_call),
        )

        # GP fitting: the stack is the fit layer; each level's model fit
        # is a child span named by fidelity (optimizing) or as a
        # fixed-hyperparameter conditioning (fantasies included).
        levels = self._levels

        def stack_fit(fn):
            timed = self.span("core.fit", fn)

            def wrapper(stack, *args, **kwargs):
                for i, model in enumerate(stack.models):
                    levels[id(model)] = i
                return timed(stack, *args, **kwargs)

            return functools.wraps(fn)(wrapper)

        def model_layer(args, kwargs):
            optimize = kwargs.get("optimize", args[3] if len(args) > 3 else True)
            if not optimize:
                return "core.fit_condition"
            return f"core.fit_optimize.l{levels.get(id(args[0]), 0)}"

        self._method(NonlinearMultiFidelityStack, "fit", stack_fit)
        self._method(
            MultiTaskGP, "fit", lambda fn: self.span(model_layer, fn)
        )

        def multistart(fn):
            @functools.wraps(fn)
            def wrapper(fun, starts, *args, **kwargs):
                count("core.fit_restarts", len(starts))

                def nll(*a, **k):
                    count("core.fit_nll_evals")
                    return fun(*a, **k)

                return fn(nll, starts, *args, **kwargs)

            return wrapper

        self._rebind(
            restarts.minimize_multistart,
            multistart(restarts.minimize_multistart),
        )

        def predicted(fn):
            timed = self.span("core.predict", fn)

            def wrapper(stack, level, Xs):
                if self.top() in PREDICT_PARENTS:
                    return fn(stack, level, Xs)
                hits, misses = stack.cache_hits, stack.cache_misses
                out = timed(stack, level, Xs)
                count("core.predict_rows", np.atleast_2d(Xs).shape[0])
                count("core.predict_cache_hits", stack.cache_hits - hits)
                count("core.predict_cache_misses", stack.cache_misses - misses)
                return out

            return functools.wraps(fn)(wrapper)

        self._method(NonlinearMultiFidelityStack, "predict", predicted)
        self._method(NonlinearMultiFidelityStack, "predict_levels", predicted)

        def candidates(args, kwargs, _result):
            count("core.acq_candidates", np.atleast_2d(args[0]).shape[0])

        self._rebind(
            acquisition.eipv_mc,
            self.span("core.acq", acquisition.eipv_mc, after=candidates),
        )
        self._rebind(
            pareto.dominated_boxes,
            self.span("core.pareto_boxes", pareto.dominated_boxes),
        )
        self._rebind(pareto.hvi_batch, self.span("core.hvi", pareto.hvi_batch))
        self._rebind(
            pareto.hypervolume,
            self.span("core.hypervolume", pareto.hypervolume),
        )

        self._method(
            EvalEngine, "wait", lambda fn: self.span("core.engine_wait", fn)
        )
        self._method(
            EvalEngine, "submit",
            lambda fn: self.span(
                "core.engine_submit", fn,
                after=lambda *_: count("core.engine_submits"),
            ),
        )

        def journal_write(fn):
            timed = self.span("core.journal_write", fn)

            def wrapper(journal, record):
                before = _size(journal.path)
                timed(journal, record)
                count("core.journal_writes")
                count("core.journal_bytes", _size(journal.path) - before)

            return functools.wraps(fn)(wrapper)

        self._method(RunJournal, "write", journal_write)

        def submitted(args, kwargs, _result):
            count("fleet.submits")
            count("fleet.wire_bytes", len(args[2]))

        def polled(_args, _kwargs, result):
            count("fleet.result_polls")
            payload = result[1]
            if payload is not None:
                count("fleet.result_hits")
                count("fleet.wire_bytes", len(payload))
                self.fleet_results.append(payload)

        self._method(
            BrokerClient, "submit",
            lambda fn: self.span("fleet.submit", fn, after=submitted),
        )
        self._method(
            BrokerClient, "result",
            lambda fn: self.span("fleet.result", fn, after=polled),
        )
        return self

    def remove(self) -> list[str]:
        """Restore every patched name; returns the ones that failed."""
        failed = []
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        for owner, attr, original in self._patches:
            if vars(owner).get(attr) is not original:
                failed.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        self._patches.clear()
        return failed

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        failed = self.remove()
        if failed:
            raise RuntimeError(f"tracer left wrappers behind: {failed}")


def _size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def delta(after: dict, before: dict) -> dict:
    """Difference of two :meth:`LayerTracer.snapshot` results."""
    return {
        key: (
            after[key] - before[key]
            if not isinstance(after[key], dict)
            else {
                k: v - before[key].get(k, 0) for k, v in after[key].items()
            }
        )
        for key in after
    }
