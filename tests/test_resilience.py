"""Tests for the fault-tolerance layer (repro.core.resilience).

Covers the retry/degradation policy, the crash-safe run journal with
bitwise kill-and-resume (sequential and batch loops), the non-finite
commit guard, and SIGTERM/SIGINT behaviour of journaled runs and
snapshotted sweeps (via real subprocesses).
"""

import dataclasses
import math
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.optimizer import CorrelatedMFBO, MFBOSettings
from repro.core.resilience import (
    FaultSpec,
    FaultyFlow,
    RetryPolicy,
    evaluate_with_policy,
    failed_flow_result,
    terminate_on_signals,
)
from repro.core.resilience import journal as run_journal
from repro.core.resilience.journal import (
    JournalError,
    RunJournal,
    build_async_replay_plan,
    commit_kwargs,
    commit_record,
    deserialize_result,
    read_journal,
    serialize_result,
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

_REPO = Path(__file__).resolve().parents[1]


def resilience_kernel():
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
        name="resil-kernel",
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
    return DesignSpace.from_kernel(resilience_kernel())


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


def history_fingerprint(result):
    """Bitwise history tuples (NaN acquisition compares as None)."""
    return [
        (
            r.step,
            r.config_index,
            int(r.fidelity),
            None if math.isnan(r.acquisition) else r.acquisition,
            tuple(float(v) for v in r.objectives),
            r.valid,
            r.runtime_s,
            int(r.requested_fidelity),
            r.degraded,
            r.failed,
            r.attempts,
        )
        for r in result.history
    ]


def assert_bitwise_equal(a, b):
    assert history_fingerprint(a) == history_fingerprint(b)
    assert a.cs_indices == b.cs_indices
    assert np.array_equal(a.cs_values, b.cs_values)
    assert a.total_runtime_s == b.total_runtime_s


class ScriptedFlow:
    """Delegating flow whose ``run`` consumes a per-call fault script.

    Each script entry is ``None`` (succeed via the real flow) or an
    exception instance to raise; once the script is exhausted every
    call succeeds.
    """

    def __init__(self, inner, script):
        self._inner = inner
        self._script = list(script)
        self.calls = []  # (fidelity, faulted)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def run(self, config, upto=Fidelity.IMPL):
        planned = self._script.pop(0) if self._script else None
        self.calls.append((Fidelity(upto), planned is not None))
        if planned is not None:
            raise planned
        return self._inner.run(config, upto=upto)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="base_backoff_s"):
            RetryPolicy(base_backoff_s=-1.0)
        with pytest.raises(ValueError, match="backoff_multiplier"):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=2.0)

    def test_default_settings_imply_default_policy(self):
        assert MFBOSettings().retry_policy() == RetryPolicy()

    def test_classify(self):
        policy = RetryPolicy(
            retry_on=(RuntimeError,), give_up_on=(ValueError,)
        )
        assert policy.classify(RuntimeError("x")) == "retry"
        assert policy.classify(ValueError("x")) == "give_up"
        assert policy.classify(KeyError("x")) == "fatal"

    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(
            base_backoff_s=1.0, backoff_multiplier=2.0, max_backoff_s=5.0,
            jitter=0.0,
        )
        assert policy.backoff_s(2, None) == 1.0
        assert policy.backoff_s(3, None) == 2.0
        assert policy.backoff_s(4, None) == 4.0
        assert policy.backoff_s(10, None) == 5.0  # capped

    def test_zero_base_backoff_draws_no_randomness(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert RetryPolicy(base_backoff_s=0.0).backoff_s(2, rng) == 0.0
        assert rng.bit_generator.state == before

    def test_jitter_is_deterministic_per_rng_seed(self):
        policy = RetryPolicy(base_backoff_s=1.0, jitter=0.25)
        a = policy.backoff_s(2, np.random.default_rng(7))
        b = policy.backoff_s(2, np.random.default_rng(7))
        assert a == b
        assert 1.0 <= a <= 1.25


class TestEvaluateWithPolicy:
    def test_happy_path_is_single_attempt(self, space, flow):
        scripted = ScriptedFlow(flow, [])
        outcome = evaluate_with_policy(
            scripted, space[0], Fidelity.IMPL, RetryPolicy()
        )
        assert scripted.calls == [(Fidelity.IMPL, False)]
        assert outcome.attempts == 1
        assert not outcome.degraded and not outcome.failed
        assert outcome.fidelity == Fidelity.IMPL
        assert outcome.wasted_runtime_s == 0.0
        assert outcome.failures == []

    def test_transient_crash_is_retried(self, space, flow):
        scripted = ScriptedFlow(flow, [RuntimeError("tool died")])
        outcome = evaluate_with_policy(
            scripted, space[0], Fidelity.IMPL, RetryPolicy()
        )
        assert outcome.attempts == 2
        assert not outcome.degraded and not outcome.failed
        assert outcome.wasted_runtime_s == flow.stage_time(Fidelity.IMPL)
        assert len(outcome.failures) == 1
        assert "tool died" in outcome.failures[0].error

    def test_exhaustion_degrades_fidelity(self, space, flow):
        scripted = ScriptedFlow(flow, [RuntimeError("boom")] * 3)
        outcome = evaluate_with_policy(
            scripted, space[0], Fidelity.IMPL, RetryPolicy(max_attempts=3)
        )
        assert outcome.attempts == 4
        assert outcome.degraded and not outcome.failed
        assert outcome.requested == Fidelity.IMPL
        assert outcome.fidelity == Fidelity.SYN
        assert scripted.calls[-1] == (Fidelity.SYN, False)

    def test_full_exhaustion_fails(self, space, flow):
        scripted = ScriptedFlow(flow, [RuntimeError("boom")] * 99)
        outcome = evaluate_with_policy(
            scripted, space[0], Fidelity.IMPL, RetryPolicy(max_attempts=2)
        )
        assert outcome.failed and outcome.result is None
        assert outcome.attempts == 6  # 2 at each of IMPL, SYN, HLS
        assert outcome.fidelity == Fidelity.IMPL  # reported at request
        assert len(outcome.failures) == 6

    def test_no_degradation_fails_at_requested_level(self, space, flow):
        scripted = ScriptedFlow(flow, [RuntimeError("boom")] * 99)
        policy = RetryPolicy(max_attempts=2, degrade_fidelity=False)
        outcome = evaluate_with_policy(
            scripted, space[0], Fidelity.IMPL, policy
        )
        assert outcome.failed and outcome.attempts == 2

    def test_give_up_skips_retries_but_still_degrades(self, space, flow):
        scripted = ScriptedFlow(flow, [ValueError("bad input")])
        policy = RetryPolicy(max_attempts=3, give_up_on=(ValueError,))
        outcome = evaluate_with_policy(
            scripted, space[0], Fidelity.IMPL, policy
        )
        assert outcome.attempts == 2  # one IMPL attempt, then SYN
        assert outcome.degraded and outcome.fidelity == Fidelity.SYN

    def test_uncovered_exception_propagates(self, space, flow):
        scripted = ScriptedFlow(flow, [KeyError("bug")])
        policy = RetryPolicy(retry_on=(RuntimeError,))
        with pytest.raises(KeyError):
            evaluate_with_policy(scripted, space[0], Fidelity.IMPL, policy)

    def test_garbage_report_is_retried(self, space, flow):
        faulty = FaultyFlow(
            flow, FaultSpec(seed=3, garbage_rate=1.0, transient_attempts=1)
        )
        outcome = evaluate_with_policy(
            faulty, space[0], Fidelity.IMPL, RetryPolicy()
        )
        assert outcome.attempts == 2
        assert not outcome.failed
        clean = flow.run(space[0], upto=Fidelity.IMPL)
        assert np.array_equal(
            outcome.result.highest.objectives(), clean.highest.objectives()
        )

    def test_backoff_sleeps_are_scripted(self, space, flow):
        scripted = ScriptedFlow(flow, [RuntimeError("a"), RuntimeError("b")])
        policy = RetryPolicy(
            max_attempts=3, base_backoff_s=1.0, backoff_multiplier=2.0,
            jitter=0.0,
        )
        sleeps = []
        outcome = evaluate_with_policy(
            scripted, space[0], Fidelity.IMPL, policy, sleep=sleeps.append
        )
        assert sleeps == [1.0, 2.0]
        assert outcome.attempts == 3
        assert [f.backoff_s for f in outcome.failures] == [1.0, 2.0]


class TestJournalEncoding:
    def test_result_roundtrip_is_bitwise(self, space, flow):
        result = flow.run(space[0], upto=Fidelity.IMPL)
        back = deserialize_result(serialize_result(result))
        assert back == result

    def test_non_finite_floats_survive_strict_json(self):
        import json

        result = failed_flow_result(Fidelity.SYN)
        line = json.dumps(serialize_result(result), allow_nan=False)
        back = deserialize_result(json.loads(line))
        report = back.reports[0]
        assert math.isnan(report.latency_cycles)
        assert report.stage == Fidelity.SYN and not report.valid

    def test_commit_record_roundtrip(self, space, flow):
        import json

        result = flow.run(space[3], upto=Fidelity.SYN)
        record = commit_record(
            phase="loop", step=4, config_index=3,
            fidelity=Fidelity.SYN, requested_fidelity=Fidelity.IMPL,
            acquisition=0.123456789, result=result,
            rng_state=np.random.default_rng(0).bit_generator.state,
            degraded=True, attempts=5, wasted_runtime_s=170.0,
        )
        back = commit_kwargs(json.loads(json.dumps(record, allow_nan=False)))
        assert back["index"] == 3
        assert back["fidelity"] == Fidelity.SYN
        assert back["requested"] == Fidelity.IMPL
        assert back["degraded"] and back["attempts"] == 5
        assert back["acquisition"] == 0.123456789
        assert back["wasted_runtime_s"] == 170.0
        assert back["result"] == result


class TestJournalFile:
    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "run.journal.jsonl"
        with RunJournal.create(path, {"event": "header", "v": 1}) as journal:
            journal.write({"event": "commit", "step": 0})
        with path.open("a") as handle:
            handle.write('{"event": "commit", "st')  # torn mid-write
        records = read_journal(path)
        assert [r["event"] for r in records] == ["header", "commit"]

    def test_corruption_before_the_tail_is_an_error(self, tmp_path):
        path = tmp_path / "run.journal.jsonl"
        path.write_text(
            '{"event": "header"}\nGARBAGE\n{"event": "commit"}\n'
        )
        with pytest.raises(JournalError, match="line 2"):
            read_journal(path)

    def test_missing_header_rejected(self):
        with pytest.raises(JournalError, match="header"):
            build_async_replay_plan(
                [{"event": "commit"}], quick_settings(), expected_init=6
            )

    def test_settings_mismatch_rejected(self, tmp_path, space, flow):
        path = tmp_path / "run.journal.jsonl"
        settings = quick_settings(journal_path=str(path))
        CorrelatedMFBO(space, flow, settings).run()
        other = quick_settings(seed=1)
        with pytest.raises(JournalError, match="seed"):
            build_async_replay_plan(
                read_journal(path), other, expected_init=6
            )

    def test_v2_journal_rejected_naming_both_versions(
        self, tmp_path, space, flow
    ):
        path = tmp_path / "run.journal.jsonl"
        settings = quick_settings(journal_path=str(path))
        CorrelatedMFBO(space, flow, settings).run()
        records = read_journal(path)
        records[0]["v"] = 2  # a journal written before one-loop replay
        with pytest.raises(JournalError, match=r"schema v2 != v3"):
            build_async_replay_plan(records, settings, expected_init=6)

    def test_resume_fsyncs_the_journal_directory(
        self, tmp_path, space, flow, monkeypatch
    ):
        import stat

        path = tmp_path / "run.journal.jsonl"
        CorrelatedMFBO(
            space, flow, quick_settings(journal_path=str(path))
        ).run()
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:9]))
        synced_dirs = []
        real_fsync = os.fsync

        def spy(fd):
            synced_dirs.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        CorrelatedMFBO(
            space, flow,
            quick_settings(journal_path=str(path), resume_from=str(path)),
        ).run()
        # The rewritten prefix's rename is made durable by an fsync of
        # the directory entry, not just of the file's contents.
        assert any(synced_dirs)


class TestSequentialResume:
    @pytest.fixture(scope="class")
    def reference(self, space, flow, tmp_path_factory):
        path = tmp_path_factory.mktemp("seq") / "ref.journal.jsonl"
        settings = quick_settings(journal_path=str(path))
        result = CorrelatedMFBO(space, flow, settings).run()
        return result, path

    def test_journal_matches_run_length(self, reference):
        result, path = reference
        records = read_journal(path)
        assert records[0]["event"] == "header"
        commits = [r for r in records if r["event"] == "commit"]
        assert len(commits) == len(result.history)

    def test_resume_of_completed_run_is_bitwise(
        self, space, flow, reference, tmp_path
    ):
        result, path = reference
        copy = tmp_path / "done.journal.jsonl"
        copy.write_text(path.read_text())
        settings = quick_settings(
            journal_path=str(copy), resume_from=str(copy)
        )
        resumed = CorrelatedMFBO(space, flow, settings).run()
        assert_bitwise_equal(result, resumed)

    @pytest.mark.parametrize("cut", [4, 9, 12])
    def test_kill_and_resume_is_bitwise(
        self, space, flow, reference, tmp_path, cut
    ):
        # cut=4: mid-initial-design (restarts fresh); cut=9: the first
        # loop step proposed and committed; cut=12: three steps proposed,
        # two committed (the third is resubmitted).
        result, path = reference
        lines = path.read_text().splitlines(keepends=True)
        assert cut < len(lines)
        partial = tmp_path / f"cut{cut}.journal.jsonl"
        partial.write_text("".join(lines[:cut]))
        settings = quick_settings(
            journal_path=str(partial), resume_from=str(partial)
        )
        resumed = CorrelatedMFBO(space, flow, settings).run()
        assert_bitwise_equal(result, resumed)

    def test_torn_final_line_resumes_bitwise(
        self, space, flow, reference, tmp_path
    ):
        result, path = reference
        lines = path.read_text().splitlines(keepends=True)
        partial = tmp_path / "torn.journal.jsonl"
        partial.write_text("".join(lines[:10]) + lines[10][: len(lines[10]) // 2])
        settings = quick_settings(
            journal_path=str(partial), resume_from=str(partial)
        )
        resumed = CorrelatedMFBO(space, flow, settings).run()
        assert_bitwise_equal(result, resumed)

    def test_resume_from_missing_file_is_a_fresh_run(
        self, space, flow, reference, tmp_path
    ):
        result, _ = reference
        path = tmp_path / "never-written.journal.jsonl"
        settings = quick_settings(
            journal_path=str(path), resume_from=str(path)
        )
        fresh = CorrelatedMFBO(space, flow, settings).run()
        assert_bitwise_equal(result, fresh)
        assert path.is_file()


class TestBatchResume:
    @pytest.fixture(scope="class")
    def reference(self, space, flow, tmp_path_factory):
        path = tmp_path_factory.mktemp("batch") / "ref.journal.jsonl"
        settings = quick_settings(
            batch_size=2, eval_workers=2, journal_path=str(path),
        )
        result = CorrelatedMFBO(space, flow, settings).run()
        return result, path

    def _resume(self, space, flow, reference, tmp_path, cut):
        result, path = reference
        lines = path.read_text().splitlines(keepends=True)
        assert cut < len(lines)
        partial = tmp_path / f"cut{cut}.journal.jsonl"
        partial.write_text("".join(lines[:cut]))
        settings = quick_settings(
            batch_size=2, eval_workers=2,
            journal_path=str(partial), resume_from=str(partial),
        )
        return CorrelatedMFBO(space, flow, settings).run(), partial

    @pytest.mark.parametrize("cut", [8, 10, 14])
    def test_kill_and_resume_is_bitwise(
        self, space, flow, reference, tmp_path, cut
    ):
        # Lines: header, 6 init commits, then per round of two: propose,
        # propose, commit, commit.  cut=8: round 0 half filled; cut=10:
        # round 0 filled, one commit landed; cut=14: round 1 likewise.
        result, _ = reference
        resumed, _ = self._resume(space, flow, reference, tmp_path, cut)
        assert_bitwise_equal(result, resumed)

    def test_mid_fill_cut_resubmits_its_proposals(
        self, space, flow, reference, tmp_path
    ):
        """A round cut after its first proposal resumes by resubmitting
        the journaled proposal, then fills the rest of the round."""
        result, path = reference
        records = read_journal(path)
        propose_at = [
            i for i, r in enumerate(records) if r.get("event") == "propose"
        ]
        cut = propose_at[0] + 1
        plan = build_async_replay_plan(
            records[:cut],
            quick_settings(batch_size=2, eval_workers=2),
            expected_init=6,
        )
        assert [r["step"] for r in plan.pending] == [0]
        assert plan.committed == 0
        resumed, partial = self._resume(space, flow, reference, tmp_path, cut)
        assert_bitwise_equal(result, resumed)
        # Step 0 was resubmitted, never re-proposed: the resumed journal
        # holds one proposal per step, just like the uninterrupted one.
        steps = [
            r["step"] for r in read_journal(partial)
            if r.get("event") == "propose"
        ]
        assert steps == list(range(len(steps)))
        assert steps == [
            r["step"] for r in records if r.get("event") == "propose"
        ]

    def test_batch_resume_matches_sequential_history_shape(self, reference):
        result, path = reference
        commits = [
            r for r in read_journal(path) if r.get("event") == "commit"
        ]
        loop = [r for r in commits if r["phase"] == "loop"]
        assert [r["step"] for r in loop] == list(range(len(loop)))


class TestCommitGuard:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_objectives_are_punished(self, space, flow, bad):
        opt = CorrelatedMFBO(space, flow, quick_settings())
        result = flow.run(space[0], upto=Fidelity.HLS)
        report = dataclasses.replace(result.reports[-1], power_w=bad)
        poisoned = dataclasses.replace(result, reports=(report,))
        assert poisoned.highest.valid  # valid flag lies; values are garbage
        opt._commit(0, Fidelity.HLS, poisoned, 0.0, step=-1)
        record = opt._history[-1]
        assert not record.valid
        assert 0 in opt._punished_cs
        assert np.all(np.isfinite(record.objectives))

    def test_failed_result_commits_through_punishment(self, space, flow):
        opt = CorrelatedMFBO(space, flow, quick_settings())
        opt._commit(
            1, Fidelity.IMPL, failed_flow_result(Fidelity.IMPL), 0.0,
            step=-1, failed=True, attempts=9, wasted_runtime_s=510.0,
        )
        record = opt._history[-1]
        assert record.failed and not record.valid
        assert 1 in opt._punished_cs
        assert 1 in opt._exhausted  # retired from the candidate pool
        assert opt._runtime == 510.0


# ----------------------------------------------------------------------
# signal handling (subprocess-backed)
# ----------------------------------------------------------------------


class _SlowFlow(HlsFlow):
    """Real analytic flow slowed down so signals land mid-run."""

    def run(self, config, upto=Fidelity.IMPL):
        time.sleep(0.25)
        return super().run(config, upto=upto)


def _sweep_cell(tag, sleep_s=0.25):
    time.sleep(sleep_s)
    return ("cell", tag)


def _sweep_jobs():
    from repro.experiments.parallel import Job

    return [
        Job(benchmark=f"bench{i}", method="sweep", repeat=0,
            fn=_sweep_cell, kwargs=dict(tag=i))
        for i in range(4)
    ]


def _subprocess_main(mode: str, target: str) -> None:
    """Entry point of the signal-test subprocesses (see ``_spawn``)."""
    handled = (signal.SIGTERM, signal.SIGINT)
    if mode == "optimizer":
        space = DesignSpace.from_kernel(resilience_kernel())
        flow = _SlowFlow.for_space(space)
        settings = quick_settings(
            journal_path=target, resume_from=target
        )
        with terminate_on_signals(handled):
            CorrelatedMFBO(space, flow, settings).run()
    elif mode == "sweep":
        from repro.experiments.parallel import run_jobs

        run_jobs(
            _sweep_jobs(), workers=1, prewarm=False,
            snapshot_dir=target, resume=True,
        )
    else:  # pragma: no cover - driver typo guard
        raise SystemExit(f"unknown mode {mode!r}")
    print("COMPLETED", flush=True)


def _spawn(mode: str, target: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{_REPO / 'src'}{os.pathsep}{_REPO}"
    return subprocess.Popen(
        [
            sys.executable, "-c",
            "import sys; from tests.test_resilience import _subprocess_main;"
            " _subprocess_main(sys.argv[1], sys.argv[2])",
            mode, str(target),
        ],
        env=env, cwd=str(_REPO),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def _wait_until(predicate, timeout_s=60.0, poll_s=0.01):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll_s)
    return False


def _journal_lines(path: Path) -> int:
    try:
        return len(path.read_text().splitlines())
    except OSError:
        return 0


class TestSignals:
    def test_terminate_on_signals_raises_systemexit(self):
        with pytest.raises(SystemExit) as excinfo:
            with terminate_on_signals((signal.SIGTERM,)):
                os.kill(os.getpid(), signal.SIGTERM)
        assert excinfo.value.code == 128 + signal.SIGTERM

    def test_swallowed_delivery_still_exits_with_signal_code(self):
        """A library that turns the handler's ``SystemExit`` into an
        error of its own (numpy's structured-array ``==`` raises
        ``TypeError``) must not turn a SIGTERM into exit code 1."""
        with pytest.raises(SystemExit) as excinfo:
            with terminate_on_signals((signal.SIGTERM,)):
                try:
                    os.kill(os.getpid(), signal.SIGTERM)
                except BaseException as exc:
                    raise TypeError("converted by a library") from exc
        assert excinfo.value.code == 128 + signal.SIGTERM
        assert isinstance(excinfo.value.__cause__, TypeError)

    def test_previous_handler_restored(self):
        before = signal.getsignal(signal.SIGTERM)
        with terminate_on_signals((signal.SIGTERM,)):
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before

    @pytest.mark.parametrize(
        "sig", [signal.SIGTERM, signal.SIGINT], ids=["sigterm", "sigint"]
    )
    def test_interrupted_run_leaves_resumable_journal(
        self, space, flow, tmp_path, sig
    ):
        journal = tmp_path / "run.journal.jsonl"
        proc = _spawn("optimizer", journal)
        try:
            # Wait until the initial design plus at least one loop round
            # is journaled, then interrupt mid-run.
            assert _wait_until(lambda: _journal_lines(journal) >= 8), (
                "subprocess never journaled enough progress"
            )
            assert proc.poll() is None, "run finished before the signal"
            proc.send_signal(sig)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 128 + sig, (stdout, stderr)
        assert b"COMPLETED" not in stdout
        # The interrupted journal is valid JSONL (at most a torn tail)
        # and the directory holds no atomic-write debris.
        records = read_journal(journal)
        assert records[0]["event"] == "header"
        assert any(r.get("event") == "commit" for r in records)
        assert list(tmp_path.glob("*.tmp")) == []
        # Resuming completes the run, bitwise equal to an uninterrupted
        # one (the subprocess flow is the slowed-down real flow).
        settings = quick_settings(
            journal_path=str(journal), resume_from=str(journal)
        )
        resumed = CorrelatedMFBO(space, flow, settings).run()
        uninterrupted = CorrelatedMFBO(space, flow, quick_settings()).run()
        assert_bitwise_equal(resumed, uninterrupted)

    def test_interrupted_sweep_keeps_valid_snapshots(self, tmp_path):
        from repro.experiments.parallel import run_jobs
        from repro.hlsim.gtcache import GT_SNAPSHOT

        snapshot_dir = tmp_path / "snapshots"
        snapshot_dir.mkdir()
        proc = _spawn("sweep", snapshot_dir)
        try:
            assert _wait_until(
                lambda: len(list(snapshot_dir.glob("*.snapshot.pkl"))) >= 1
            ), "subprocess never snapshotted a cell"
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 128 + signal.SIGTERM, (stdout, stderr)
        snapshots = sorted(snapshot_dir.glob("*.snapshot.pkl"))
        assert snapshots and len(snapshots) < 4  # interrupted mid-sweep
        assert list(snapshot_dir.glob("*.tmp")) == []
        for path in snapshots:  # every snapshot is a complete pickle
            with path.open("rb") as handle:
                value = pickle.load(handle)
            assert value[0] == "cell"
        # Resume restores the finished cells and completes the rest.
        outcomes = run_jobs(
            _sweep_jobs(), workers=1, prewarm=False,
            snapshot_dir=snapshot_dir, resume=True,
        )
        assert [o.value for o in outcomes] == [("cell", i) for i in range(4)]
        restored = [o for o in outcomes if o.gt_cache == GT_SNAPSHOT]
        assert len(restored) == len(snapshots)
