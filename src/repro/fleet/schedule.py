"""Multi-session fleet scheduler: many tuning sessions, one fleet.

::

    python -m repro.fleet.schedule --broker http://HOST:PORT
        --session a=gemm:ours+random:2 --session b=stencil3d:ours:1
        [--scale smoke|small|paper] [--cache-dir DIR] [--out FILE]
        [--snapshot FILE] [--trace-dir DIR] [--journal-dir DIR]

Each ``--session`` is one independent tuning session — a Table-1-style
sweep of ``(benchmark, methods, repeats)`` cells with its own base
seed.  The scheduler expands every session into the same
:class:`repro.experiments.parallel.Job` list the process-pool engine
would build (same :func:`method_seed` streams), submits each cell to a
per-session broker queue, and aggregates outcomes **in submission
order** — so per-session ADRS/runtime numbers and Pareto fronts are
bitwise identical to a local ``run_benchmark`` at any fleet size,
worker count, or completion order.

Fair-share across sessions is the broker's job (fewest-leases-first
dispatch): N sessions on W workers each hold ~W/N leases, so a small
smoke session is not starved behind a large sweep submitted first.

Ground truth is shared through the **sharded gtcache**
(:mod:`repro.hlsim.gtcache`): pass ``--cache-dir`` and every worker
leasing any session's cell hits the same fingerprint-keyed store —
the first worker to need a benchmark's exhaustive sweep pays for it,
every later cell (any tenant) loads it.

**Trace propagation** (DESIGN.md Sec. 15).  With ``--trace-dir`` the
scheduler mints one trace id per session, records a ``submit`` span
per cell into ``schedule.trace.jsonl``, and stamps every submit
request with ``X-Repro-Trace: <trace>:<submit-span>`` — the broker
records its marker spans under the same id and hands the context to
whichever worker leases the cell, so ``python -m repro.obs.spans``
merges scheduler, broker and all workers into one Perfetto timeline
with ``submit → lease → execute → complete`` flow arrows.  Trace ids
are telemetry only (random, outside every seed stream): results stay
bitwise identical with tracing on or off.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from repro.experiments.harness import TABLE1_METHODS
from repro.fleet.client import BrokerClient
from repro.fleet.wire import dump, load, load_auth_key

__all__ = ["SessionSpec", "run_schedule", "main"]


@dataclass(frozen=True)
class SessionSpec:
    """One tuning session: a (benchmark, methods, repeats) sweep."""

    name: str
    benchmark: str
    methods: tuple[str, ...]
    repeats: int
    base_seed: int = 2021

    @classmethod
    def parse(cls, text: str) -> "SessionSpec":
        """``[NAME=]BENCHMARK:METHOD[+METHOD...]:REPEATS[:SEED]``.

        ``--session a=gemm:ours+random:2`` → session *a*, two repeats
        of *ours* and *random* on *gemm* with the default base seed.
        """
        name, sep, rest = text.partition("=")
        if not sep:
            name, rest = "", text
        parts = rest.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(
                f"bad session spec {text!r}: want "
                "[NAME=]BENCH:METHOD+METHOD:REPEATS[:SEED]"
            )
        benchmark, methods_text, repeats = parts[0], parts[1], int(parts[2])
        methods = tuple(m for m in methods_text.split("+") if m)
        if not methods:
            methods = TABLE1_METHODS
        base_seed = int(parts[3]) if len(parts) == 4 else 2021
        return cls(
            name=name or f"{benchmark}.{'+'.join(methods)}",
            benchmark=benchmark,
            methods=methods,
            repeats=repeats,
            base_seed=base_seed,
        )

    @property
    def queue(self) -> str:
        return f"session.{self.name}"


def _session_jobs(spec: SessionSpec, scale, **job_kwargs):
    """The session's cell list, in the sequential aggregation order."""
    from dataclasses import replace

    from repro.experiments.parallel import method_jobs

    return method_jobs(
        (spec.benchmark,),
        spec.methods,
        replace(scale, n_repeats=spec.repeats),
        spec.base_seed,
        **job_kwargs,
    )


def run_schedule(
    broker_url: str,
    specs: list[SessionSpec],
    scale=None,
    cache_dir: str | Path | None = None,
    trace_dir: str | Path | None = None,
    journal_dir: str | Path | None = None,
    poll_s: float = 0.2,
    timeout_s: float | None = None,
    verbose: bool = False,
    auth_key: bytes | None = None,
    retry_policy=None,
    transport=None,
):
    """Run every session over the fleet; ``{session: benchmark_runs}``.

    ``benchmark_runs`` is the same ``{method: [MethodRun, ...]}``
    mapping :func:`repro.experiments.harness.run_benchmark` returns,
    aggregated in the identical order — bitwise-equal numbers.

    Outcomes are collected task by task in submission order, one
    ``/result`` request at a time; ``poll_s`` is the longest one request
    waits at the broker before it is re-sent (an outcome is returned
    the moment it lands, so latency does not depend on it).
    ``timeout_s`` is checked after each wait that came back empty.

    ``auth_key`` signs every request on an authenticated fleet;
    ``retry_policy``/``transport`` feed the scheduler's
    :class:`BrokerClient` (reconnect bounds, chaos injection).  Because
    submits carry client-generated task ids and result requests are
    read-only, the scheduler survives broker restarts mid-sweep.
    """
    from repro.experiments.parallel import (
        JobOutcome,
        _group_method_runs,
        print_method_run,
        raise_failures,
    )

    if scale is None:
        from repro.experiments.harness import SMALL_SCALE

        scale = SMALL_SCALE
    client = BrokerClient(
        broker_url,
        auth_key=auth_key,
        retry_policy=retry_policy,
        transport=transport,
        identity="schedule",
    )
    spans = None
    trace_writer = None
    if trace_dir:
        from repro.obs.spans import SpanRecorder
        from repro.obs.trace import JsonlTraceWriter

        Path(trace_dir).mkdir(parents=True, exist_ok=True)
        trace_writer = JsonlTraceWriter(
            Path(trace_dir) / "schedule.trace.jsonl"
        )
        spans = SpanRecorder(trace_writer)

    def _submit(spec: SessionSpec, trace_id: str | None, job):
        payload = dump(
            {"kind": "cell", "job": job, "submitted_at": time.time()}
        )
        task_id = uuid.uuid4().hex
        if spans is None:
            return client.submit(spec.queue, payload, task_id=task_id)
        from repro.obs.spans import format_trace_context

        # The submit span is the cell's remote parent: its id travels
        # in X-Repro-Trace, the broker echoes it to the leasing worker,
        # and every engine span the cell records parents back here.
        with spans.span(
            "submit", cat="fleet", trace=trace_id,
            task=task_id, queue=spec.queue, session=spec.name,
        ):
            client.trace_context = format_trace_context(
                trace_id, spans.current_span_id()
            )
            try:
                return client.submit(spec.queue, payload, task_id=task_id)
            finally:
                client.trace_context = None

    sessions: list[tuple[SessionSpec, list, list[str]]] = []
    try:
        for spec in specs:
            client.create_queue(spec.queue)
            jobs = _session_jobs(
                spec, scale,
                trace_dir=trace_dir, cache_dir=cache_dir,
                journal_dir=journal_dir,
            )
            # One trace id per session: every span the session's cells
            # emit (any worker, any attempt) lands on the same merged
            # timeline.
            session_trace = uuid.uuid4().hex if spans is not None else None
            task_ids = [_submit(spec, session_trace, job) for job in jobs]
            sessions.append((spec, jobs, task_ids))
            if verbose:
                print(
                    f"session {spec.name}: submitted {len(jobs)} cells "
                    f"to {spec.queue}"
                )
        if trace_writer is not None:
            trace_writer.close()
        outcomes = _collect(
            client,
            [tid for _, _, task_ids in sessions for tid in task_ids],
            poll_s, timeout_s,
        )
    finally:
        client.close()

    results = {}
    for spec, jobs, task_ids in sessions:
        session_outcomes = []
        for job, task_id in zip(jobs, task_ids):
            outcome = outcomes[task_id]
            if isinstance(outcome, dict):  # agent-level crash wrapper
                outcome = JobOutcome(
                    job=job, error=outcome.get("error", "fleet worker failed")
                )
            session_outcomes.append(outcome)
            if verbose:
                print_method_run(outcome)
        raise_failures(session_outcomes)
        results[spec.name] = _group_method_runs(
            (spec.benchmark,), spec.methods, session_outcomes
        )[spec.benchmark]
    return results


def _collect(
    client: BrokerClient,
    task_ids: list[str],
    poll_s: float,
    timeout_s: float | None,
) -> dict[str, object]:
    """Every task's decoded outcome, waited for in submission order.

    One ``/result`` request per task when its outcome lands within
    ``poll_s`` of being asked for; a wait that runs out is re-sent
    after the deadline check.
    """
    outcomes: dict[str, object] = {}
    deadline = (
        time.monotonic() + timeout_s if timeout_s is not None else None
    )
    for done, task_id in enumerate(task_ids):
        while True:
            _state, payload = client.result(task_id, wait_s=poll_s)
            if payload is not None:
                outcomes[task_id] = load(payload)
                break
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"{len(task_ids) - done} fleet task(s) still "
                    f"outstanding after {timeout_s}s"
                )
    return outcomes


def _summary(specs, results) -> dict:
    """JSON-able per-session rollup (ADRS/runtime per method)."""
    from repro.experiments.harness import summarize_benchmark

    out = {}
    for spec in specs:
        row = summarize_benchmark(spec.benchmark, results[spec.name])
        out[spec.name] = {
            "benchmark": spec.benchmark,
            "base_seed": spec.base_seed,
            "repeats": spec.repeats,
            "adrs_mean": row.adrs_mean,
            "adrs_std": row.adrs_std,
            "runtime_mean": row.runtime_mean,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet.schedule",
        description="Multiplex tuning sessions over a worker fleet.",
    )
    parser.add_argument(
        "--broker", required=True, help="broker URL, e.g. http://host:8947"
    )
    parser.add_argument(
        "--session", action="append", required=True, metavar="SPEC",
        help="[NAME=]BENCH:METHOD+METHOD:REPEATS[:SEED] (repeatable)",
    )
    parser.add_argument(
        "--scale", choices=("smoke", "small", "paper"), default="small",
    )
    parser.add_argument("--cache-dir", default="")
    parser.add_argument("--trace-dir", default="")
    parser.add_argument("--journal-dir", default="")
    parser.add_argument(
        "--out", default="", help="write the per-session summary JSON here"
    )
    parser.add_argument(
        "--snapshot", default="",
        help="dump the broker's /stats JSON here after the run",
    )
    parser.add_argument(
        "--timeout", type=float, default=0.0,
        help="overall deadline in seconds (0 = wait forever)",
    )
    parser.add_argument(
        "--auth-key-file", default="",
        help="shared HMAC key file for the authenticated wire "
             "(falls back to $REPRO_FLEET_AUTH_KEY[_FILE])",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    from repro.experiments.harness import (
        PAPER_SCALE,
        SMALL_SCALE,
        SMOKE_SCALE,
    )

    scale = {
        "smoke": SMOKE_SCALE, "small": SMALL_SCALE, "paper": PAPER_SCALE
    }[args.scale]
    specs = [SessionSpec.parse(text) for text in args.session]
    auth_key = load_auth_key(args.auth_key_file or None)
    results = run_schedule(
        args.broker,
        specs,
        scale=scale,
        cache_dir=args.cache_dir or None,
        trace_dir=args.trace_dir or None,
        journal_dir=args.journal_dir or None,
        timeout_s=args.timeout or None,
        verbose=args.verbose,
        auth_key=auth_key,
    )
    summary = _summary(specs, results)
    text = json.dumps(summary, indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    if args.snapshot:
        stats = BrokerClient(args.broker, auth_key=auth_key).stats()
        Path(args.snapshot).write_text(
            json.dumps(stats, indent=2, sort_keys=True) + "\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
