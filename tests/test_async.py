"""Tests for the commit-as-completed async pipeline (ISSUE 7).

Covers the determinism contract of :mod:`repro.core.batch.async_engine`
(``inflight_target=1`` bitwise-equals the sequential loop, wall-clock
completion-order shuffles never reach the trajectory), the adaptive
in-flight controller settings surface, the journal round-trip
(truncate-and-resume bitwise, sync/async fingerprint separation), the
trace events, and SIGTERM kill-and-resume through a real
subprocess.
"""

import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.optimizer import CorrelatedMFBO, MFBOSettings
from repro.core.resilience import terminate_on_signals
from repro.core.resilience.journal import (
    JournalError,
    build_async_replay_plan,
    read_journal,
)
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
from repro.hlsim.reports import Fidelity
from repro.obs.trace import (
    INFLIGHT_TRACE_FIELDS,
    TRACE_SCHEMA_VERSION,
    JsonlTraceWriter,
    read_trace,
)

_REPO = Path(__file__).resolve().parents[1]


def async_kernel():
    loop = Loop(
        name="L",
        trip_count=256,
        body=OpCounts(add=2, mul=1, load=2, store=1),
        accesses=(ArrayAccess("A", index_loop="L", reads=2.0, writes=1.0),),
        unroll_factors=(1, 2, 4, 8),
        pipeline_site=True,
        ii_candidates=(1, 2, 4),
    )
    extra = Loop(
        name="E",
        trip_count=128,
        body=OpCounts(load=1, store=1),
        accesses=(ArrayAccess("B", index_loop="E", reads=1.0, writes=1.0),),
        unroll_factors=(1, 2, 4),
        pipeline_site=True,
        ii_candidates=(1,),
    )
    return Kernel(
        name="async-kernel",
        arrays=(
            Array("A", depth=1024, partition_factors=(1, 2, 4, 8)),
            Array("B", depth=512, partition_factors=(1, 2, 4)),
        ),
        loops=(loop, extra),
        fidelity=FidelityProfile(
            irregularity=0.4, noise=0.01, t_hls=10.0, t_syn=50.0, t_impl=120.0
        ),
    )


@pytest.fixture(scope="module")
def space():
    return DesignSpace.from_kernel(async_kernel())


@pytest.fixture(scope="module")
def flow(space):
    return HlsFlow.for_space(space)


def quick_settings(**overrides):
    defaults = dict(
        n_init=(6, 4, 3), n_iter=5, n_mc_samples=24, candidate_pool=32,
        refit_every=2, seed=0,
    )
    defaults.update(overrides)
    return MFBOSettings(**defaults)


def _hist(result):
    """NaN-tolerant bitwise history fingerprint (NaN compares as None)."""
    return [
        (
            r.step,
            r.config_index,
            int(r.fidelity),
            None if math.isnan(r.acquisition) else r.acquisition,
            tuple(float(v) for v in r.objectives),
            r.valid,
            r.runtime_s,
        )
        for r in result.history
    ]


def assert_bitwise_equal(a, b):
    assert _hist(a) == _hist(b)
    assert a.cs_indices == b.cs_indices
    assert np.array_equal(a.cs_values, b.cs_values)
    assert a.total_runtime_s == b.total_runtime_s


def _bypass_clamp(monkeypatch):
    """Let tests run real thread pools on single-CPU machines."""
    monkeypatch.setattr(
        "repro.core.batch.engine.resolve_worker_count",
        lambda workers, label="workers": max(1, int(workers)),
    )


class TestSettings:
    def test_async_mode_selection(self):
        assert not quick_settings().use_async_engine
        assert quick_settings(async_engine=True).use_async_engine
        # inflight_target alone implies async mode.
        assert quick_settings(inflight_target=2).use_async_engine

    def test_async_mode_disables_round_engine(self):
        settings = quick_settings(async_engine=True, eval_workers=4)
        assert settings.use_async_engine

    def test_inflight_cap(self):
        # Sync runs keep the cap out of the fingerprint (None) so
        # resuming across eval_workers counts still works.
        assert quick_settings().inflight_cap is None
        assert quick_settings(eval_workers=8).inflight_cap is None
        assert quick_settings(async_engine=True).inflight_cap == 1
        assert (
            quick_settings(async_engine=True, eval_workers=6).inflight_cap
            == 6
        )

    def test_async_rejects_batch_size(self):
        with pytest.raises(ValueError, match="async mode has no rounds"):
            quick_settings(async_engine=True, batch_size=4)

    def test_inflight_target_validated(self):
        with pytest.raises(ValueError, match="inflight_target"):
            quick_settings(inflight_target=0)


class TestParity:
    def test_inflight1_bitwise_equals_sequential(self, space, flow):
        sequential = CorrelatedMFBO(space, flow, quick_settings()).run()
        pipelined = CorrelatedMFBO(
            space, flow, quick_settings(inflight_target=1)
        ).run()
        assert_bitwise_equal(sequential, pipelined)

    def test_adaptive_async_deterministic(self, space, flow, monkeypatch):
        _bypass_clamp(monkeypatch)
        settings = quick_settings(async_engine=True, eval_workers=3)
        a = CorrelatedMFBO(space, flow, settings).run()
        b = CorrelatedMFBO(space, flow, settings).run()
        assert_bitwise_equal(a, b)

    def test_shuffled_completion_same_commits(self, space, monkeypatch):
        """Reversed wall completion order never reaches the trajectory.

        Commits follow the modeled ``(eta_s, step)`` schedule, so a
        flow whose sleeps force the threads to *finish* in reverse
        submission order must still produce the baseline history.
        """
        _bypass_clamp(monkeypatch)
        settings = quick_settings(inflight_target=3, eval_workers=3)
        baseline = CorrelatedMFBO(
            space, HlsFlow.for_space(space), settings
        ).run()

        delays = (0.2, 0.1, 0.0)
        values_to_index = {space[i].values: i for i in range(len(space))}

        class _Delayed(HlsFlow):
            # Class-level state survives the engine's per-worker clone
            # (``type(flow)(kernel, schema, device)``).
            _positions: dict[int, int] = {}
            _lock = threading.Lock()

            def run(self, config, upto=Fidelity.IMPL):
                idx = values_to_index[config.values]
                with _Delayed._lock:
                    pos = _Delayed._positions.setdefault(
                        idx, len(_Delayed._positions)
                    )
                time.sleep(delays[pos % len(delays)])
                with _Delayed._lock:
                    return HlsFlow.run(self, config, upto=upto)

        shuffled = CorrelatedMFBO(
            space, _Delayed.for_space(space), settings
        ).run()
        assert_bitwise_equal(baseline, shuffled)


class TestJournalResume:
    def _journaled_run(self, space, flow, path, **overrides):
        settings = quick_settings(
            async_engine=True, eval_workers=2,
            journal_path=str(path), **overrides,
        )
        return CorrelatedMFBO(space, flow, settings).run()

    @pytest.mark.parametrize("keep_loop_fraction", [0.3, 0.7])
    def test_truncate_and_resume_bitwise(
        self, space, flow, tmp_path, monkeypatch, keep_loop_fraction
    ):
        _bypass_clamp(monkeypatch)
        journal = tmp_path / "async.journal.jsonl"
        full = self._journaled_run(space, flow, journal)
        records = read_journal(journal)
        loop_at = [
            i for i, r in enumerate(records) if r.get("phase") == "loop"
        ]
        cut = loop_at[int(len(loop_at) * keep_loop_fraction)] + 1
        with journal.open("w") as handle:
            for record in records[:cut]:
                handle.write(json.dumps(record) + "\n")
        resumed = self._journaled_run(
            space, flow, journal, resume_from=str(journal)
        )
        assert_bitwise_equal(resumed, full)

    def test_resume_with_pending_proposals(
        self, space, flow, tmp_path, monkeypatch
    ):
        """A journal ending on proposes (no commits yet) resumes exactly:
        the pending evaluations are resubmitted, not re-proposed."""
        _bypass_clamp(monkeypatch)
        journal = tmp_path / "async.journal.jsonl"
        full = self._journaled_run(space, flow, journal)
        records = read_journal(journal)
        propose_at = [
            i for i, r in enumerate(records)
            if r.get("event") == "propose"
        ]
        assert len(propose_at) >= 2
        cut = propose_at[1] + 1  # two proposals in flight, zero commits
        kept = records[:cut]
        plan = build_async_replay_plan(
            kept, quick_settings(async_engine=True, eval_workers=2),
            expected_init=min(6, len(space)),
        )
        assert len(plan.pending) == 2
        assert plan.committed == 0
        with journal.open("w") as handle:
            for record in kept:
                handle.write(json.dumps(record) + "\n")
        resumed = self._journaled_run(
            space, flow, journal, resume_from=str(journal)
        )
        assert_bitwise_equal(resumed, full)

    def test_sync_journal_rejected_for_async_resume(
        self, space, flow, tmp_path
    ):
        journal = tmp_path / "sync.journal.jsonl"
        CorrelatedMFBO(
            space, flow, quick_settings(journal_path=str(journal))
        ).run()
        settings = quick_settings(
            async_engine=True,
            journal_path=str(journal), resume_from=str(journal),
        )
        with pytest.raises(JournalError, match="async_engine"):
            CorrelatedMFBO(space, flow, settings).run()

    def test_plan_rejects_malformed_sequences(
        self, space, flow, tmp_path, monkeypatch
    ):
        _bypass_clamp(monkeypatch)
        journal = tmp_path / "async.journal.jsonl"
        self._journaled_run(space, flow, journal)
        records = read_journal(journal)
        settings = quick_settings(async_engine=True, eval_workers=2)
        expected_init = min(6, len(space))

        loop = [r for r in records if r.get("phase") == "loop"]
        commits = [r for r in loop if r.get("event") == "commit"]
        proposes = [r for r in loop if r.get("event") == "propose"]
        header = [r for r in records if r.get("phase") != "loop"]

        with pytest.raises(JournalError, match="not contiguous"):
            build_async_replay_plan(
                header + [proposes[1]], settings, expected_init
            )
        with pytest.raises(JournalError, match="precedes its proposal"):
            build_async_replay_plan(
                header + [commits[0]], settings, expected_init
            )
        with pytest.raises(JournalError, match="twice"):
            build_async_replay_plan(
                header + [proposes[0], commits[0], commits[0]],
                settings, expected_init,
            )


class TestTrace:
    def test_async_trace_events(self, space, flow, tmp_path, monkeypatch):
        _bypass_clamp(monkeypatch)
        trace_path = tmp_path / "async.trace.jsonl"
        tracer = JsonlTraceWriter(trace_path)
        settings = quick_settings(async_engine=True, eval_workers=2)
        CorrelatedMFBO(space, flow, settings, tracer=tracer).run()
        tracer.close()
        records = read_trace(trace_path)

        start = next(r for r in records if r["event"] == "run_start")
        assert start["v"] == TRACE_SCHEMA_VERSION == 8
        assert start["async_engine"] is True
        assert start["eval_workers"] == 2

        proposals = [r for r in records if r["event"] == "proposal"]
        assert proposals
        assert all(r["eta_s"] is not None for r in proposals)
        assert all(r["target"] >= 1 for r in proposals)

        commits = [
            r for r in records
            if r["event"] == "commit" and r.get("inflight") is not None
        ]
        assert commits  # the async loop stamps the in-flight count
        assert all(r["inflight"] >= 0 for r in commits)

        inflight = [r for r in records if r["event"] == "inflight"]
        assert inflight
        for record in inflight:
            assert set(INFLIGHT_TRACE_FIELDS) <= set(record)
        # The simulated clock only moves forward.
        sim = [r["sim_s"] for r in inflight]
        assert sim == sorted(sim)


# ----------------------------------------------------------------------
# SIGTERM kill-and-resume (subprocess-backed)
# ----------------------------------------------------------------------


class _SlowFlow(HlsFlow):
    """Real analytic flow slowed down so signals land mid-flight."""

    def run(self, config, upto=Fidelity.IMPL):
        time.sleep(0.25)
        return super().run(config, upto=upto)


def _subprocess_main(target: str) -> None:
    """Entry point of the kill-and-resume subprocess (see ``_spawn``)."""
    space = DesignSpace.from_kernel(async_kernel())
    flow = _SlowFlow.for_space(space)
    settings = quick_settings(
        async_engine=True, eval_workers=2,
        journal_path=target, resume_from=target,
    )
    with terminate_on_signals((signal.SIGTERM, signal.SIGINT)):
        CorrelatedMFBO(space, flow, settings).run()
    print("COMPLETED", flush=True)


def _spawn(target: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{_REPO / 'src'}{os.pathsep}{_REPO}"
    return subprocess.Popen(
        [
            sys.executable, "-c",
            "import sys; from tests.test_async import _subprocess_main;"
            " _subprocess_main(sys.argv[1])",
            str(target),
        ],
        env=env, cwd=str(_REPO),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def _wait_until(predicate, timeout_s=120.0, poll_s=0.01):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll_s)
    return False


def _loop_records(path: Path) -> int:
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return 0
    count = 0
    for line in lines:
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn tail
        if record.get("phase") == "loop":
            count += 1
    return count


class TestKillResume:
    def test_sigterm_mid_flight_resumes_bitwise(self, space, flow, tmp_path):
        journal = tmp_path / "async.journal.jsonl"
        proc = _spawn(journal)
        try:
            # Wait until the async loop has journaled progress (at
            # least one propose record), then interrupt mid-flight.
            assert _wait_until(lambda: _loop_records(journal) >= 1), (
                "subprocess never journaled loop progress"
            )
            assert proc.poll() is None, "run finished before the signal"
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 128 + signal.SIGTERM, (stdout, stderr)
        assert b"COMPLETED" not in stdout
        # The interrupted journal is valid JSONL (at most a torn tail)
        # and holds journaled proposals; resuming completes the run,
        # bitwise equal to an uninterrupted async run.
        records = read_journal(journal)
        assert records[0]["event"] == "header"
        settings = quick_settings(
            async_engine=True, eval_workers=2,
            journal_path=str(journal), resume_from=str(journal),
        )
        resumed = CorrelatedMFBO(space, flow, settings).run()
        uninterrupted = CorrelatedMFBO(
            space, flow, quick_settings(async_engine=True, eval_workers=2)
        ).run()
        assert_bitwise_equal(resumed, uninterrupted)
