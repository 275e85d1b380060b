"""Tests for the observability layer (repro.obs) and its optimizer wiring."""

import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import pareto
from repro.core.optimizer import CorrelatedMFBO, MFBOSettings
from repro.dse.space import DesignSpace
from repro.hlsim.flow import HlsFlow
from repro.hlsim.ir import (
    Array,
    ArrayAccess,
    FidelityProfile,
    Kernel,
    Loop,
    OpCounts,
)
from repro.obs import (
    SPAN_TRACE_FIELDS,
    TRACE_SCHEMA_VERSION,
    JsonlTraceWriter,
    Metrics,
    SpanRecorder,
    TraceSchemaError,
    export_chrome_trace,
    iter_trace,
    read_trace,
    upgrade_record,
)
from repro.obs import monitor as obs_monitor
from repro.obs import report as obs_report
from repro.obs import spans as obs_spans
from repro.obs.trace import COMMIT_TRACE_FIELDS, PROPOSAL_TRACE_FIELDS

REPO_ROOT = Path(__file__).resolve().parents[1]


def tiny_kernel():
    loop = Loop(
        name="L",
        trip_count=128,
        body=OpCounts(add=2, mul=1, load=2, store=1),
        accesses=(ArrayAccess("A", index_loop="L", reads=2.0, writes=1.0),),
        unroll_factors=(1, 2, 4),
        pipeline_site=True,
        ii_candidates=(1, 2),
    )
    return Kernel(
        name="obs-kernel",
        arrays=(Array("A", depth=512, partition_factors=(1, 2, 4)),),
        loops=(loop,),
        fidelity=FidelityProfile(
            irregularity=0.3, noise=0.01, t_hls=10.0, t_syn=50.0, t_impl=120.0
        ),
    )


@pytest.fixture(scope="module")
def space():
    return DesignSpace.from_kernel(tiny_kernel())


def quick_settings(**overrides):
    defaults = dict(
        n_init=(5, 3, 2), n_iter=4, n_mc_samples=16, candidate_pool=24,
        refit_every=2, seed=3,
    )
    defaults.update(overrides)
    return MFBOSettings(**defaults)


def spanned_run(space, path, **overrides):
    """One traced optimizer run with span recording enabled."""
    overrides.setdefault("trace_spans", True)
    flow = HlsFlow.for_space(space)
    with JsonlTraceWriter(path) as tracer:
        return CorrelatedMFBO(
            space, flow, settings=quick_settings(**overrides), tracer=tracer
        ).run()


class TestMetrics:
    def test_timed_and_counts(self):
        recorder = SpanRecorder()
        metrics = recorder.metrics
        with recorder.span("fit"):
            time.sleep(0.005)
        metrics.incr("hits", 3)
        metrics.incr("hits")
        assert metrics.snapshot()["fit"] >= 0.003
        assert metrics.count("hits") == 4
        assert "missing" not in metrics.snapshot()
        assert metrics.count("missing") == 0

    def test_snapshot_delta(self):
        metrics = Metrics()
        metrics.add_time("fit", 1.0)
        before = metrics.snapshot()
        metrics.add_time("fit", 0.5)
        metrics.incr("hits", 2)
        delta = Metrics.delta(before, metrics.snapshot())
        assert delta["fit"] == pytest.approx(0.5)
        assert delta["hits"] == 2

    def test_concurrent_updates_lose_nothing(self, monkeypatch):
        """The batch engine's eval threads close spans on one sinkless
        recorder concurrently with the main loop's counters; no update
        to the shared totals may be lost."""
        # Each thread's clock alternates 0.0 / 0.001, so every span
        # lasts exactly 0.001 s and the expected total is known bitwise.
        local = threading.local()

        def perf_counter():
            local.tick = not getattr(local, "tick", False)
            return 0.0 if local.tick else 0.001

        recorder = SpanRecorder(None)
        metrics = recorder.metrics
        monkeypatch.setattr(
            obs_spans, "time",
            type("Clock", (), {"perf_counter": staticmethod(perf_counter)}),
        )
        n_threads, n_ops = 8, 400
        barrier = threading.Barrier(n_threads)

        def hammer():
            barrier.wait()
            for _ in range(n_ops):
                with recorder.span("flow_eval", cat="eval"):
                    pass
                metrics.incr("hits")

        threads = [
            threading.Thread(target=hammer) for _ in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.count("hits") == n_threads * n_ops
        # Serialized += of a constant is order-independent bitwise: any
        # lost update would show up as a shortfall here.
        expected = 0.0
        for _ in range(n_threads * n_ops):
            expected += 0.001
        assert metrics.snapshot()["flow_eval"] == expected


class TestJsonlTrace:
    def test_roundtrip_and_filter(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceWriter(path) as writer:
            writer.write({"v": 1, "event": "run_start", "seed": 7})
            writer.write({"v": 1, "event": "step", "step": 0})
            writer.write({"v": 1, "event": "step", "step": 1})
        assert writer.lines_written == 3
        assert [r["step"] for r in read_trace(path, event="step")] == [0, 1]
        assert len(read_trace(path)) == 3

    def test_non_finite_and_numpy_become_strict_json(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceWriter(path) as writer:
            writer.write(
                {
                    "nan": float("nan"),
                    "inf": float("inf"),
                    "npint": np.int64(3),
                    "npfloat": np.float64(1.5),
                }
            )
        line = path.read_text().strip()
        record = json.loads(line)  # must parse as strict JSON
        assert record["nan"] is None
        assert record["inf"] is None
        assert record["npint"] == 3
        assert record["npfloat"] == 1.5

    def test_write_after_close_raises(self, tmp_path):
        writer = JsonlTraceWriter(tmp_path / "trace.jsonl")
        writer.close()
        with pytest.raises(RuntimeError):
            writer.write({"event": "step"})


class TestOptimizerTrace:
    """ISSUE 1: every run can emit a schema-versioned per-step trace."""

    def _traced_run(self, space, path, **overrides):
        flow = HlsFlow.for_space(space)
        with JsonlTraceWriter(path) as tracer:
            optimizer = CorrelatedMFBO(
                space, flow, settings=quick_settings(**overrides),
                tracer=tracer,
            )
            result = optimizer.run()
        return result

    def test_step_schema(self, space, tmp_path):
        path = tmp_path / "run.jsonl"
        result = self._traced_run(space, path)
        header = read_trace(path, event="run_start")
        assert len(header) == 1
        assert header[0]["v"] == TRACE_SCHEMA_VERSION
        assert header[0]["seed"] == 3
        steps = read_trace(path, event="proposal")
        assert len(steps) == 4  # one line per BO iteration
        for record in steps:
            assert set(record) == set(PROPOSAL_TRACE_FIELDS)
            assert record["v"] == TRACE_SCHEMA_VERSION
            assert record["fidelity"] in ("hls", "syn", "impl")
            assert record["pool_size"] > 0
            assert record["select_s"] >= record["fit_s"] >= 0.0
            assert isinstance(record["cache_hits"], int)
        commits = read_trace(path, event="commit")
        assert [r["step"] for r in commits] == [0, 1, 2, 3]
        for record in commits:
            assert set(record) == set(COMMIT_TRACE_FIELDS)
            assert record["step_s"] >= record["exec_s"] >= 0.0
        # Trace agrees with the in-memory history for the BO steps.
        bo_records = [r for r in result.history if r.step >= 0
                      and not math.isnan(r.acquisition)]
        assert [r["config_index"] for r in steps] == [
            r.config_index for r in bo_records
        ]

    def test_trace_deterministic_under_fixed_seed(self, space, tmp_path):
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        self._traced_run(space, path_a)
        self._traced_run(space, path_b)
        keys = ("step", "config_index", "fidelity", "acquisition")
        trace_a = [
            [r[k] for k in keys] for r in read_trace(path_a, "proposal")
        ]
        trace_b = [
            [r[k] for k in keys] for r in read_trace(path_b, "proposal")
        ]
        assert trace_a == trace_b

    def test_untraced_run_unaffected(self, space):
        flow = HlsFlow.for_space(space)
        result = CorrelatedMFBO(
            space, flow, settings=quick_settings()
        ).run()
        assert len(result.history) >= 4


class TestHarnessTraceDir:
    def test_run_method_writes_trace(self, tmp_path):
        from repro.experiments.harness import (
            SMOKE_SCALE,
            BenchmarkContext,
            run_method,
        )

        ctx = BenchmarkContext.get("spmv_ellpack")
        run = run_method(ctx, "ours", SMOKE_SCALE, seed=5,
                         trace_dir=tmp_path)
        path = tmp_path / "spmv_ellpack.ours.seed5.jsonl"
        assert path.exists()
        steps = read_trace(path, event="proposal")
        assert len(steps) == SMOKE_SCALE.n_iter
        assert run.adrs >= 0.0

    def test_run_method_removes_empty_trace(self, tmp_path):
        from repro.experiments.harness import (
            SMOKE_SCALE,
            BenchmarkContext,
            run_method,
        )

        ctx = BenchmarkContext.get("spmv_ellpack")
        run_method(ctx, "random", SMOKE_SCALE, seed=5, trace_dir=tmp_path)
        assert not (tmp_path / "spmv_ellpack.random.seed5.jsonl").exists()


class TestSpanRecorder:
    """ISSUE 5 tentpole: nested spans with parent/thread attribution."""

    def test_nested_record_fields(self):
        records = []
        rec = SpanRecorder(records.append)
        before = time.time()
        with rec.span("outer", cat="phase"):
            with rec.span(
                "inner", cat="fit", step=2, config_index=7,
                fidelity="hls", optimize=True,
            ):
                pass
        inner, outer = records  # spans emit on close: inner first
        for record in records:
            assert set(record) == set(SPAN_TRACE_FIELDS)
            assert record["v"] == TRACE_SCHEMA_VERSION
            assert record["pid"] == os.getpid()
            assert record["tid"] == threading.get_ident()
            assert record["dur_s"] >= 0.0
            assert before - 1.0 <= record["t0"] <= time.time() + 1.0
        assert outer["parent"] is None
        assert inner["parent"] == outer["id"]
        assert inner["step"] == 2 and inner["config_index"] == 7
        assert inner["fidelity"] == "hls"
        assert inner["args"] == {"optimize": True}

    def test_exception_still_emits_span(self):
        records = []
        rec = SpanRecorder(records.append)
        with pytest.raises(ValueError, match="boom"):
            with rec.span("broken"):
                raise ValueError("boom")
        assert [r["name"] for r in records] == ["broken"]

    def test_per_thread_stacks(self):
        records = []
        lock = threading.Lock()

        def sink(record):
            with lock:
                records.append(record)

        rec = SpanRecorder(sink)

        def worker():
            with rec.span("worker_span"):
                time.sleep(0.002)

        with rec.span("main_span"):
            thread = threading.Thread(target=worker, name="eval-0")
            thread.start()
            thread.join()
        by_name = {r["name"]: r for r in records}
        # The thread's top-level span is not parented under the main
        # thread's still-open span: each thread keeps its own stack.
        assert by_name["worker_span"]["parent"] is None
        assert by_name["worker_span"]["tname"] == "eval-0"
        assert by_name["main_span"]["parent"] is None
        assert by_name["worker_span"]["tid"] != by_name["main_span"]["tid"]

    def test_sinkless_recorder_credits_totals(self):
        rec = SpanRecorder(None)
        with rec.span("anything", cat="x", step=1, whatever=2):
            pass  # no sink, no record
        with pytest.raises(ValueError, match="boom"):
            with rec.span("anything"):
                raise ValueError("boom")
        assert set(rec.metrics.snapshot()) == {"anything"}

    def test_spans_credit_totals_by_name(self):
        records = []
        rec = SpanRecorder(records.append)
        with rec.span("fit", cat="fit"):
            with rec.span("predict", cat="predict"):
                pass
        with rec.span("fit", cat="fit"):
            pass
        totals = rec.metrics.snapshot()
        for name in ("fit", "predict"):
            assert totals[name] == pytest.approx(
                sum(r["dur_s"] for r in records if r["name"] == name),
                rel=1e-12,
            )

    def test_accepts_trace_writer_sink(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with JsonlTraceWriter(path) as tracer:
            rec = SpanRecorder(tracer)
            with rec.span("fit", cat="fit"):
                pass
        (record,) = read_trace(path, "span")
        assert set(record) == set(SPAN_TRACE_FIELDS)
        assert record["name"] == "fit"


class TestTraceVersions:
    """ISSUE 5 satellite: mixed-schema trace files error or upgrade."""

    def _write(self, path, records):
        with path.open("w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")

    def test_mixed_versions_refused(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        self._write(
            path,
            [
                {"v": 3, "event": "step", "step": 0, "fidelity": "hls"},
                {"v": 5, "event": "span", "name": "fit"},
            ],
        )
        with pytest.raises(TraceSchemaError, match="schema versions"):
            read_trace(path)

    def test_mixed_versions_upgrade_on_read(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        self._write(
            path,
            [
                {"v": 3, "event": "step", "step": 0, "fidelity": "hls"},
                {"v": 5, "event": "span", "name": "fit"},
            ],
        )
        records = read_trace(path, upgrade=True)
        assert all(r["v"] == TRACE_SCHEMA_VERSION for r in records)
        step = records[0]
        assert step["attempts"] == 1 and step["degraded"] is False

    def test_upgrade_record_fills_neutral_defaults(self):
        commit = {"v": 3, "event": "commit", "fidelity": "syn"}
        lifted = upgrade_record(commit)
        assert lifted["v"] == TRACE_SCHEMA_VERSION
        assert lifted["requested_fidelity"] == "syn"
        assert lifted["degraded"] is False and lifted["failed"] is False
        assert lifted["wasted_runtime_s"] == 0.0
        assert commit == {"v": 3, "event": "commit", "fidelity": "syn"}

        job = {"v": 4, "event": "job", "worker": 12}
        assert upgrade_record(job)["t_start"] is None

        # Fields already present are kept verbatim.
        degraded = {"v": 4, "event": "commit", "fidelity": "hls",
                    "requested_fidelity": "impl", "degraded": True}
        assert upgrade_record(degraded)["requested_fidelity"] == "impl"

    def test_single_old_version_reads_fine(self, tmp_path):
        path = tmp_path / "old.jsonl"
        self._write(
            path,
            [
                {"v": 4, "event": "run_start", "seed": 1},
                {"v": 4, "event": "step", "step": 0},
            ],
        )
        records = read_trace(path)  # no mixing: no error
        assert [r["v"] for r in records] == [4, 4]
        lifted = read_trace(path, upgrade=True)
        assert all(r["v"] == TRACE_SCHEMA_VERSION for r in lifted)

    def test_iter_trace_tolerant_skips_torn_line(self, tmp_path):
        path = tmp_path / "live.jsonl"
        path.write_text('{"v": 5, "event": "span"}\n{"v": 5, "eve')
        with pytest.raises(json.JSONDecodeError):
            list(iter_trace(path))
        records = list(iter_trace(path, tolerant=True))
        assert len(records) == 1 and records[0]["event"] == "span"


class TestSpanWiring:
    """ISSUE 5 tentpole: spans through the loop, bitwise-neutral."""

    def test_sequential_run_emits_phase_spans(self, space, tmp_path):
        path = tmp_path / "run.jsonl"
        spanned_run(space, path)
        spans = read_trace(path, "span")
        names = {r["name"] for r in spans}
        assert {"run", "init", "propose", "commit", "fit", "predict",
                "acquire", "flow_eval", "verify"} <= names
        ids = {r["id"] for r in spans}
        for record in spans:
            assert set(record) == set(SPAN_TRACE_FIELDS)
            assert record["parent"] is None or record["parent"] in ids
        steps = [r for r in spans if r["name"] == "propose"]
        assert [r["step"] for r in steps] == [0, 1, 2, 3]
        evals = [r for r in spans if r["name"] == "flow_eval"]
        assert all(
            r["fidelity"] in ("hls", "syn", "impl") for r in evals
        )
        # Flow evals happen in init, loop and verify — more than the
        # four BO steps alone.
        assert len(evals) > 4
        (root,) = [r for r in spans if r["name"] == "run"]
        assert root["parent"] is None

    def test_spans_off_by_default(self, space, tmp_path):
        path = tmp_path / "run.jsonl"
        spanned_run(space, path, trace_spans=False)
        assert read_trace(path, "span") == []
        assert len(read_trace(path, "proposal")) == 4  # trace still works

    def test_proposal_costs_equal_span_totals(
        self, space, tmp_path, monkeypatch
    ):
        """Each proposal's fit/predict/hvi cost is read from the span
        totals, so the proposals and the spans agree on the run: every
        timed block (fantasy conditioning and the dominated-box
        decomposition included) is a span."""
        # Real eval threads even on a 1-CPU machine: their flow_eval
        # spans close concurrently with the main loop's.
        monkeypatch.setattr(
            "repro.core.batch.engine.resolve_worker_count",
            lambda workers, label="workers": max(1, int(workers)),
        )
        path = tmp_path / "async.jsonl"
        spanned_run(space, path, inflight_target=3, eval_workers=3, n_iter=6)
        spans = read_trace(path, "span")
        proposals = read_trace(path, "proposal")
        assert len(proposals) == 6
        for field, names in (
            ("fit_s", ("fit",)),
            ("predict_s", ("predict",)),
            ("hvi_s", ("acquire", "dominated_boxes")),
        ):
            span_s = sum(r["dur_s"] for r in spans if r["name"] in names)
            assert span_s > 0.0
            assert sum(r[field] for r in proposals) == pytest.approx(
                span_s, rel=1e-9
            ), field
        # Pending fantasies were conditioned on, under their own spans.
        assert any("fantasies" in r["args"] for r in spans
                   if r["name"] == "fit")

    def test_spans_do_not_change_selections(self, space, tmp_path):
        on = spanned_run(space, tmp_path / "on.jsonl", trace_spans=True)
        off = spanned_run(space, tmp_path / "off.jsonl", trace_spans=False)
        assert on.cs_indices == off.cs_indices
        assert np.array_equal(on.cs_values, off.cs_values)
        keys = ("step", "config_index", "fidelity", "acquisition")
        steps_on = [
            [r[k] for k in keys]
            for r in read_trace(tmp_path / "on.jsonl", "proposal")
        ]
        steps_off = [
            [r[k] for k in keys]
            for r in read_trace(tmp_path / "off.jsonl", "proposal")
        ]
        assert steps_on == steps_off

    def test_gemm_run_bitwise_identical_with_spans(self, tmp_path):
        """ISSUE 5 acceptance: a short GEMM run with span tracing on is
        bitwise-identical to the same run with it off."""
        from repro.benchsuite import get_space

        def go(trace_spans):
            return spanned_run(
                get_space("gemm"),
                tmp_path / f"gemm.{int(trace_spans)}.jsonl",
                trace_spans=trace_spans,
            )

        on, off = go(True), go(False)
        assert on.cs_indices == off.cs_indices
        assert np.array_equal(on.cs_values, off.cs_values)
        assert [(r.step, r.config_index) for r in on.history] == [
            (r.step, r.config_index) for r in off.history
        ]
        assert np.array_equal(
            np.array([r.acquisition for r in on.history]),
            np.array([r.acquisition for r in off.history]),
            equal_nan=True,
        )

    def test_batch_run_emits_round_spans(self, space, tmp_path):
        path = tmp_path / "batch.jsonl"
        spanned_run(space, path, batch_size=2, n_iter=4)
        spans = read_trace(path, "span")
        names = {r["name"] for r in spans}
        assert {"run", "propose", "commit", "fit", "flow_eval"} <= names
        # The round barrier: both proposals of a round start before
        # either of its commits, and a round's commits all finish before
        # the next round's first proposal.
        order = sorted(
            (r["t0"], r["name"], r["step"]) for r in spans
            if r["name"] in ("propose", "commit")
        )
        assert [(name, step) for _t0, name, step in order] == [
            ("propose", 0), ("propose", 1), ("commit", 0), ("commit", 1),
            ("propose", 2), ("propose", 3), ("commit", 2), ("commit", 3),
        ]

    def test_batch_selections_unchanged_by_spans(self, space, tmp_path):
        keys = ("step", "config_index", "fidelity", "objectives", "valid")

        def commits(trace_spans):
            path = tmp_path / f"b{int(trace_spans)}.jsonl"
            spanned_run(
                space, path, batch_size=2, n_iter=4,
                trace_spans=trace_spans,
            )
            return [
                [r[k] for k in keys] for r in read_trace(path, "commit")
            ]

        assert commits(True) == commits(False)


class TestChromeExport:
    """ISSUE 5 tentpole: merged Perfetto/chrome://tracing export."""

    def _write(self, path, records):
        with path.open("w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")

    def _span(self, **overrides):
        record = {
            "v": 5, "event": "span", "name": "fit", "cat": "fit",
            "pid": 111, "tid": 1, "tname": "MainThread",
            "t0": 100.0, "dur_s": 1.0, "id": 0, "parent": None,
            "step": None, "config_index": None, "fidelity": None,
            "args": {},
        }
        record.update(overrides)
        return record

    def test_export_structure(self, space, tmp_path):
        trace = tmp_path / "run.jsonl"
        spanned_run(space, trace)
        out = tmp_path / "run.trace.json"
        count = export_chrome_trace([trace], out)
        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        assert len(events) == count > 0
        kinds = [e["ph"] for e in events]
        n_meta = kinds.count("M")
        assert set(kinds[:n_meta]) == {"M"}  # metadata sorts first
        process_names = [
            e for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert any(
            e["args"]["name"] == "obs-kernel.ours" for e in process_names
        )
        xs = [e for e in events if e["ph"] == "X"]
        assert xs
        assert all(e["ts"] >= 0.0 and e["dur"] >= 0.0 for e in xs)
        assert min(e["ts"] for e in xs) == pytest.approx(0.0)  # rebased
        assert {"run", "fit", "flow_eval"} <= {e["name"] for e in xs}

    def test_merge_assigns_distinct_tracks(self, tmp_path):
        self._write(
            tmp_path / "a.jsonl",
            [
                {"v": 5, "event": "run_start", "kernel": "k1",
                 "method": "ours"},
                self._span(pid=111, t0=100.0),
            ],
        )
        self._write(
            tmp_path / "b.jsonl",
            [
                {"v": 5, "event": "run_start", "kernel": "k2",
                 "method": "ann"},
                self._span(pid=222, t0=101.0, name="predict"),
            ],
        )
        events = obs_spans.chrome_trace_events(
            obs_spans.collect_trace_files([tmp_path])
        )
        labels = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert {"k1.ours", "k2.ann"} <= labels
        assert {e["pid"] for e in events if e["ph"] == "X"} == {111, 222}

    def test_same_pid_files_get_separate_tracks(self, tmp_path):
        """Two cells recorded by one process (sequential sweep) must
        not collapse onto a single labelled track."""
        for name, kernel in (("a", "k1"), ("b", "k2")):
            self._write(
                tmp_path / f"{name}.jsonl",
                [
                    {"v": 5, "event": "run_start", "kernel": kernel,
                     "method": "ours"},
                    self._span(pid=111, t0=100.0),
                ],
            )
        events = obs_spans.chrome_trace_events(
            obs_spans.collect_trace_files([tmp_path])
        )
        labels = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert {"k1.ours", "k2.ours"} <= labels
        assert len({e["pid"] for e in events if e["ph"] == "X"}) == 2

    def test_resilience_instants_and_job_slices(self, tmp_path):
        self._write(
            tmp_path / "a.jsonl",
            [
                self._span(t0=100.0, dur_s=2.0),
                {"v": 5, "event": "fault", "step": 3, "config_index": 9,
                 "fidelity": "syn", "attempt": 1, "error": "timeout",
                 "backoff_s": 0.5},
                {"v": 5, "event": "job", "benchmark": "gemm",
                 "method": "ours", "repeat": 0, "workers": 2,
                 "worker": 999, "t_start": 100.5, "queue_wait_s": 0.1,
                 "exec_s": 1.0, "gt_cache": "disk-hit", "ok": True,
                 "error": None},
            ],
        )
        events = obs_spans.chrome_trace_events([tmp_path / "a.jsonl"])
        (instant,) = [e for e in events if e["ph"] == "i"]
        assert instant["name"] == "fault"
        assert instant["cat"] == "resilience"
        # Pinned to the end of the span preceding it: (102 - 100) s.
        assert instant["ts"] == pytest.approx(2e6)
        assert instant["args"]["error"] == "timeout"
        (job,) = [e for e in events if e.get("cat") == "job"]
        assert job["pid"] == 999
        assert job["name"] == "gemm.ours.r0"
        assert job["ts"] == pytest.approx(0.5e6)
        assert job["dur"] == pytest.approx(1e6)
        worker_meta = [
            e for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
            and e["pid"] == 999
        ]
        assert worker_meta and worker_meta[0]["args"]["name"] == "worker 999"

    def test_collect_trace_files_skips_journals(self, tmp_path):
        (tmp_path / "a.jsonl").write_text("")
        (tmp_path / "b.journal.jsonl").write_text("")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "c.jsonl").write_text("")
        files = obs_spans.collect_trace_files([tmp_path])
        assert files == [tmp_path / "a.jsonl", sub / "c.jsonl"]
        # Explicit files pass through untouched, even journals.
        assert obs_spans.collect_trace_files(
            [tmp_path / "b.journal.jsonl"]
        ) == [tmp_path / "b.journal.jsonl"]

    def test_cli(self, space, tmp_path, capsys):
        spanned_run(space, tmp_path / "run.jsonl")
        out = tmp_path / "out.trace.json"
        assert obs_spans.main([str(tmp_path), "-o", str(out)]) == 0
        assert out.exists()
        assert "perfetto" in capsys.readouterr().out.lower()
        empty = tmp_path / "empty"
        empty.mkdir()
        assert obs_spans.main(
            [str(empty), "-o", str(tmp_path / "x.json")]
        ) == 1


class TestReport:
    """ISSUE 5: run summaries, the regression gate and the log rollup."""

    def test_summarize_run(self, space, tmp_path):
        spanned_run(space, tmp_path / "run.jsonl")
        summary = obs_report.summarize_run([tmp_path])
        assert summary["labels"] == ["obs-kernel.ours"]
        assert summary["n_spans"] > 0
        assert summary["wall_s"] > 0.0
        assert sum(summary["eval_counts"].values()) == 4  # step lines
        assert summary["phase_s"].get("fit", 0.0) > 0.0
        assert summary["fidelity_eval_s"]
        assert summary["worker_busy_s"]
        # ISSUE acceptance: top-level spans cover >= 95% of the wall.
        assert summary["covered_s"] >= 0.95 * summary["wall_s"]
        text = obs_report.format_run_summary(summary)
        assert "time by phase" in text
        assert "flow_eval by fidelity" in text
        assert "worker utilization" in text

    @pytest.mark.parametrize(
        "overrides", [{}, {"inflight_target": 3, "eval_workers": 3}]
    )
    def test_phases_add_up_to_covered_time(
        self, space, tmp_path, monkeypatch, overrides
    ):
        """Phases count self time, so nested spans are not counted twice."""
        monkeypatch.setattr(  # real eval threads on any CPU count
            "repro.core.batch.engine.resolve_worker_count",
            lambda workers, label="workers": max(1, int(workers)),
        )
        spanned_run(space, tmp_path / "run.jsonl", **overrides)
        summary = obs_report.summarize_run([tmp_path])
        phases = summary["phase_s"]
        assert sum(phases.values()) == pytest.approx(
            summary["covered_s"], rel=1e-9, abs=1e-9
        )
        assert min(phases.values()) >= -1e-9
        # ``propose`` (cat acquire) encloses the fit spans: counted once.
        spans = read_trace(tmp_path / "run.jsonl", event="span")
        fit_s = sum(r["dur_s"] for r in spans if r["cat"] == "fit")
        assert phases["fit"] == pytest.approx(fit_s, rel=1e-9)

    def test_compare_bench_files(self, tmp_path):
        a = tmp_path / "BENCH_a.json"
        b = tmp_path / "BENCH_b.json"
        a.write_text(json.dumps(
            {"sequential_s": 10.0, "batch_s": 5.0, "speedup": 2.0}
        ))
        b.write_text(json.dumps(
            {"sequential_s": 21.0, "batch_s": 5.2, "speedup": 1.9}
        ))
        text, regressed = obs_report.compare_bench_files(a, b)
        assert regressed
        assert "REGRESS" in text and "sequential_s" in text
        assert "speedup" not in text  # only *_s timing keys compared
        _, ok = obs_report.compare_bench_files(a, b, threshold=3.0)
        assert not ok
        c = tmp_path / "BENCH_c.json"
        c.write_text(json.dumps({"unrelated": 1}))
        with pytest.raises(ValueError, match="no shared timing"):
            obs_report.compare_bench_files(a, c)

    def test_zero_baseline_never_gates(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"warm_s": 0.0}))
        b.write_text(json.dumps({"warm_s": 5.0}))
        text, regressed = obs_report.compare_bench_files(a, b)
        assert not regressed and "verdict: OK" in text

    def _armed(self, extra=None):
        data = {
            "total_s": 1.0,
            "commit_flops": 1000,
            "speedup_asserted": True,
            "speedup_asserted_reason": "flop proxy, core-count independent",
        }
        data.update(extra or {})
        return data

    def test_flops_keys_compared_and_gated(self, tmp_path):
        a = tmp_path / "BENCH_a.json"
        b = tmp_path / "BENCH_b.json"
        a.write_text(json.dumps(self._armed()))
        b.write_text(json.dumps(self._armed({"commit_flops": 5000})))
        text, failed = obs_report.compare_bench_files(a, b)
        assert failed
        assert "commit_flops" in text and "REGRESS" in text
        assert "UNARMED" not in text

    def test_unarmed_artifact_flagged_and_strict_fails(self, tmp_path):
        a = tmp_path / "BENCH_a.json"
        b = tmp_path / "BENCH_b.json"
        a.write_text(json.dumps(self._armed()))
        unarmed = self._armed()
        del unarmed["speedup_asserted"]
        b.write_text(json.dumps(unarmed))
        text, failed = obs_report.compare_bench_files(a, b)
        assert "B UNARMED" in text
        assert not failed  # no metric regressed; default mode passes
        text, failed = obs_report.compare_bench_files(a, b, strict=True)
        assert "B UNARMED" in text and failed

    def test_speedup_asserted_must_be_literal_true(self):
        assert obs_report.bench_gates_armed({"speedup_asserted": True})
        assert not obs_report.bench_gates_armed({"speedup_asserted": "yes"})
        assert not obs_report.bench_gates_armed({"speedup_asserted": 1})
        assert not obs_report.bench_gates_armed({})

    def test_assert_armed(self, tmp_path):
        a = tmp_path / "BENCH_a.json"
        b = tmp_path / "BENCH_b.json"
        a.write_text(json.dumps(self._armed()))
        unarmed = self._armed({"speedup_asserted": False})
        b.write_text(json.dumps(unarmed))
        text, ok = obs_report.assert_armed([a])
        assert ok and "ARMED" in text
        assert "flop proxy" in text  # arming reason echoed
        text, ok = obs_report.assert_armed([a, b])
        assert not ok and "UNARMED" in text

    def test_cli_strict_and_assert_armed(self, tmp_path, capsys):
        a = tmp_path / "BENCH_a.json"
        b = tmp_path / "BENCH_b.json"
        a.write_text(json.dumps(self._armed()))
        unarmed = self._armed()
        del unarmed["speedup_asserted"]
        b.write_text(json.dumps(unarmed))
        assert obs_report.main(["--compare", str(a), str(b)]) == 0
        assert "UNARMED" in capsys.readouterr().out
        assert obs_report.main(
            ["--compare", str(a), str(b), "--strict"]
        ) == 1
        capsys.readouterr()
        assert obs_report.main(["--assert-armed", str(a)]) == 0
        capsys.readouterr()
        assert obs_report.main(["--assert-armed", str(a), str(b)]) == 1
        assert "UNARMED" in capsys.readouterr().out

    def _span(self, dur, name="fit", cat="fit", t0=100.0):
        return {
            "v": 5, "event": "span", "name": name, "cat": cat,
            "pid": 1, "tid": 1, "tname": "MainThread", "t0": t0,
            "dur_s": dur, "id": 0, "parent": None, "step": None,
            "config_index": None, "fidelity": None, "args": {},
        }

    def test_compare_runs_flags_slowdown(self, tmp_path):
        for label, dur in (("a", 1.0), ("b", 2.5)):
            run_dir = tmp_path / label
            run_dir.mkdir()
            with (run_dir / "trace.jsonl").open("w") as handle:
                handle.write(json.dumps(self._span(dur)) + "\n")
        text, regressed = obs_report.compare_runs(
            [tmp_path / "a"], [tmp_path / "b"]
        )
        assert regressed and "phase:fit" in text

    def test_parse_table1_log_partial(self, tmp_path):
        log = tmp_path / "table1_run.log"
        log.write_text(
            "gemm/ours repeat 0: ADRS=0.0500 time=1.20h\n"
            "gemm/ours repeat 1: ADRS=0.0700 time=1.00h\n"
            "gemm/ann repeat 0: ADRS=0.1000 time=0.50h\n"
            "some progress noise that is not a result line\n"
            "Traceback (most recent call last):\n"
            "spmv/ours repeat 0: ADRS=0.08"  # torn final line
        )
        data = obs_report.parse_table1_log(log)
        assert data == {
            "gemm": {
                "ours": [(0.05, 1.2), (0.07, 1.0)],
                "ann": [(0.1, 0.5)],
            }
        }
        text = obs_report.format_table1_log_summary(data)
        assert "ADRS (mean)" in text and "ADRS (std)" in text
        assert "time (h)" in text and "normalized to ANN" in text
        assert "gemm" in text
        # ours/ann = 0.06 / 0.10 in the ANN-normalized block.
        assert "0.60" in text
        # Methods with no rows render as dashes, not crashes.
        assert "-" in text

    def test_cli_modes(self, space, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        spanned_run(space, run_dir / "run.jsonl")
        assert obs_report.main([str(run_dir)]) == 0
        assert "run summary" in capsys.readouterr().out

        a = tmp_path / "BENCH_a.json"
        b = tmp_path / "BENCH_b.json"
        a.write_text(json.dumps({"total_s": 1.0}))
        b.write_text(json.dumps({"total_s": 2.2}))
        assert obs_report.main(["--compare", str(a), str(b)]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        assert obs_report.main(
            ["--compare", str(a), str(b), "--threshold", "3"]
        ) == 0
        capsys.readouterr()

        log = tmp_path / "t1.log"
        log.write_text("gemm/ours repeat 0: ADRS=0.0500 time=1.20h\n")
        assert obs_report.main(["--log", str(log)]) == 0
        capsys.readouterr()
        empty_log = tmp_path / "empty.log"
        empty_log.write_text("nothing here\n")
        assert obs_report.main(["--log", str(empty_log)]) == 1
        capsys.readouterr()

        empty_dir = tmp_path / "empty"
        empty_dir.mkdir()
        assert obs_report.main([str(empty_dir)]) == 1

    def test_shim_removed(self):
        # The deprecated tools/summarize_table1_log.py shim is gone;
        # `obs/report --log` is the only log-rollup entry point.
        assert not (REPO_ROOT / "tools" / "summarize_table1_log.py").exists()


class TestMonitor:
    """The live sweep monitor."""

    def test_pareto_front(self):
        cell = obs_monitor.CellState("cell.journal.jsonl")
        for power, cycles, lut in [(1.0, 1, 1.0), (2.0, 2, 2.0),
                                   (0.0, 3, 1.0), ("NaN", 0, 0.0)]:
            cell.feed({
                "event": "commit", "reports": [{
                    "valid": True, "power_w": power,
                    "latency_cycles": cycles, "clock_ns": 1000.0,
                    "lut_util": lut,
                }],
            })
        # The NaN point is dropped; the dominated one adds no volume.
        assert cell.points == [(1.0, 1.0, 1.0), (2.0, 2.0, 2.0),
                               (0.0, 3.0, 1.0)]
        ref = tuple(v * 1.1 + 1e-12 for v in (2.0, 3.0, 2.0))
        assert cell.hypervolume() == pareto.hypervolume(
            [(1.0, 1.0, 1.0), (0.0, 3.0, 1.0)], ref
        )
        assert cell.commits == 4

    def test_trace_tail_incremental(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"a": 1}\n{"a": 2}\n')
        tail = obs_monitor.TraceTail(path)
        assert [r["a"] for r in tail.read_new()] == [1, 2]
        assert tail.read_new() == []  # nothing new
        with path.open("a") as handle:
            handle.write('{"a": 3}\n{"a": 4')  # final line torn
        assert [r["a"] for r in tail.read_new()] == [3]
        with path.open("a") as handle:
            handle.write("}\n")  # torn line completes
        assert [r["a"] for r in tail.read_new()] == [4]
        with path.open("a") as handle:
            handle.write('garbage line\n{"a": 5}\n')
        assert [r["a"] for r in tail.read_new()] == [5]  # never crashes

    def test_trace_tail_shrink_resets(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"a": 1}\n{"a": 2}\n')
        tail = obs_monitor.TraceTail(path)
        tail.read_new()
        path.write_text('{"a": 9}\n')  # rewritten by a resume
        assert [r["a"] for r in tail.read_new()] == [9]
        assert obs_monitor.TraceTail(tmp_path / "missing.jsonl").read_new() \
            == []

    def test_cell_state_from_journal_records(self):
        cell = obs_monitor.CellState("cell.journal.jsonl")
        cell.feed({
            "event": "header", "kernel": "gemm", "method": "ours",
            "seed": 7,
            "fingerprint": {"n_init": [5, 3, 2], "n_iter": 4},
        })
        assert cell.budget == 14
        assert cell.label == "gemm.ours seed 7"
        cell.feed({
            "event": "commit", "phase": "loop", "attempts": 3,
            "degraded": True, "failed": False,
            "reports": [{
                "valid": True, "power_w": 1.0, "latency_cycles": 1000,
                "clock_ns": 5.0, "lut_util": 0.25,
            }],
        })
        assert cell.commits == 1 and cell.retries == 2
        assert cell.degrades == 1 and cell.failed == 0
        assert cell.points == [(1.0, 5.0, 0.25)]  # cyc*ns*1e-3
        cell.feed({
            "event": "commit", "phase": "loop", "attempts": 1,
            "reports": [{"valid": False}],
        })
        assert cell.commits == 2
        assert len(cell.points) == 1  # invalid report adds no point
        # Sentinel floats ("NaN") parse to nan and are excluded from HV.
        cell.feed({
            "event": "commit", "phase": "verify", "attempts": 1,
            "reports": [{
                "valid": True, "power_w": "NaN", "latency_cycles": 10,
                "clock_ns": 1.0, "lut_util": 0.1,
            }],
        })
        assert cell.phase == "verify"
        assert cell.hypervolume() > 0.0
        assert "/14" in cell.progress and "[" in cell.progress

    def test_refresh_skips_non_object_lines(self, tmp_path):
        """A JSON line that is not an object (``[1, 2]``) in any tailed
        file is skipped like a torn line — a tail never crashes."""
        header = {
            "event": "header", "kernel": "gemm", "method": "ours",
            "seed": 0, "fingerprint": {"n_init": [2], "n_iter": 2},
        }
        commit = {"event": "commit", "phase": "init", "reports": []}
        for name in ("cell.journal.jsonl", "broker.fleet.jsonl",
                     "b.metrics.jsonl", "trace.jsonl"):
            (tmp_path / name).write_text(
                "[1, 2]\n" + json.dumps(header) + '\n"text"\n'
                + json.dumps(commit) + "\n[1, 2]\n"
            )
        state = obs_monitor.SweepState()
        state.refresh(tmp_path)
        cell = state.cells["cell.journal.jsonl"]
        assert cell.label == "gemm.ours seed 0" and cell.commits == 1
        assert state.trace_events == 2

    def test_scan_files_kinds(self, tmp_path):
        (tmp_path / "a.jsonl").write_text("")
        (tmp_path / "b.journal.jsonl").write_text("")
        kinds = dict(
            (p.name, k) for p, k in obs_monitor.scan_files(tmp_path)
        )
        assert kinds == {"a.jsonl": "trace", "b.journal.jsonl": "journal"}
        ((path, kind),) = obs_monitor.scan_files(
            tmp_path / "b.journal.jsonl"
        )
        assert kind == "journal"

    def test_sweep_state_on_real_run(self, space, tmp_path):
        journal = tmp_path / "cell.journal.jsonl"
        spanned_run(
            space, tmp_path / "cell.jsonl", journal_path=str(journal)
        )
        state = obs_monitor.SweepState()
        state.refresh(tmp_path)
        assert list(state.cells) == ["cell.journal.jsonl"]
        cell = state.cells["cell.journal.jsonl"]
        assert cell.label == "obs-kernel.ours seed 3"
        assert cell.budget == 14  # sum(n_init) + n_iter
        assert cell.commits >= cell.budget  # verify commits on top
        assert cell.hypervolume() > 0.0
        assert state.trace_events > 0
        assert state.worker_busy
        text = obs_monitor.render(state, tmp_path, tick=1)
        assert "obs-kernel.ours seed 3" in text
        assert "workers:" in text
        # A refresh with no new bytes changes nothing.
        commits = cell.commits
        state.refresh(tmp_path)
        assert state.cells["cell.journal.jsonl"].commits == commits

    def test_cli_once(self, tmp_path, capsys):
        journal = tmp_path / "cell.journal.jsonl"
        with journal.open("w") as handle:
            handle.write(json.dumps({
                "event": "header", "kernel": "gemm", "method": "ours",
                "seed": 0,
                "fingerprint": {"n_init": [2], "n_iter": 2},
            }) + "\n")
            handle.write(json.dumps({
                "event": "commit", "phase": "init", "attempts": 1,
                "reports": [],
            }) + "\n")
        assert obs_monitor.main([str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "sweep monitor" in out
        assert "gemm.ours seed 0" in out
        assert obs_monitor.main([str(tmp_path / "nope"), "--once"]) == 1


class TestImportIsolation:
    """The monitor/report CLIs and the broker import no numpy and no
    optimizer stack."""

    @pytest.mark.parametrize(
        "module",
        ["repro.obs.monitor", "repro.obs.report", "repro.fleet.broker"],
    )
    def test_cli_module_avoids_hot_path(self, module):
        code = (
            "import sys\n"
            f"import {module}\n"
            "bad = sorted(m for m in sys.modules\n"
            "    if m.split('.')[0] in ('numpy', 'scipy')\n"
            "    or m.startswith(('repro.core', 'repro.hlsim', "
            "'repro.dse')))\n"
            "print(bad)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
