"""Tests for the parallel experiment engine, GT cache and multi-start fits."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.restarts import minimize_multistart
from repro.experiments.harness import (
    SMOKE_SCALE,
    BenchmarkContext,
    method_seed,
    run_benchmark,
)
from repro.experiments.parallel import (
    Job,
    prewarm_contexts,
    raise_failures,
    run_jobs,
)
from repro.hlsim.gtcache import (
    GT_COMPUTED,
    GT_DISK_HIT,
    ground_truth_fingerprint,
    live_fingerprints,
    load_or_compute_ground_truth,
    prune_cache,
    scan_cache,
)
from repro.hlsim.gtcache import main as gtcache_main
from repro.obs.trace import JOB_TRACE_FIELDS, TRACE_SCHEMA_VERSION, read_trace

BENCH = "spmv_ellpack"
METHODS = ("fpl18", "dac19")


def _boom_job(message: str) -> None:
    raise ValueError(message)


def _ok_job(value: int) -> int:
    return value * 2


def _threads_job() -> int:
    from repro.core.batch.workers import compute_threads

    return compute_threads()


def _quad(theta, offset):
    """Picklable quadratic objective for restart-pool tests."""
    delta = theta - offset
    return float(np.dot(delta, delta)), 2.0 * delta


class TestParallelEngine:
    def test_parallel_matches_sequential_bitwise(self, tmp_path):
        seq = run_benchmark(
            BENCH, methods=METHODS, scale=SMOKE_SCALE, cache_dir=tmp_path
        )
        par = run_benchmark(
            BENCH, methods=METHODS, scale=SMOKE_SCALE, workers=2,
            cache_dir=tmp_path,
        )
        assert set(seq) == set(par)
        for method in METHODS:
            assert len(seq[method]) == len(par[method])
            for a, b in zip(seq[method], par[method]):
                assert a.adrs == b.adrs  # exact, not approx
                assert a.runtime_s == b.runtime_s
                assert a.seed == b.seed

    def test_outcomes_in_submission_order(self):
        jobs = [
            Job(benchmark="none", method="ok", repeat=i,
                fn=_ok_job, kwargs={"value": i})
            for i in range(5)
        ]
        outcomes = run_jobs(jobs, workers=2, prewarm=False)
        assert [o.job.repeat for o in outcomes] == list(range(5))
        assert [o.value for o in outcomes] == [0, 2, 4, 6, 8]

    def test_crash_surfaces_identity_without_aborting(self):
        jobs = [
            Job(benchmark="b", method="ok", repeat=0,
                fn=_ok_job, kwargs={"value": 1}),
            Job(benchmark="b", method="bad", repeat=3,
                fn=_boom_job, kwargs={"message": "kaboom"}),
            Job(benchmark="b", method="ok", repeat=1,
                fn=_ok_job, kwargs={"value": 2}),
        ]
        outcomes = run_jobs(jobs, workers=2, prewarm=False)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[0].value == 2 and outcomes[2].value == 4
        assert "kaboom" in outcomes[1].error
        with pytest.raises(RuntimeError, match=r"b/bad/3"):
            raise_failures(outcomes)

    def test_job_trace_schema(self, tmp_path):
        jobs = [
            Job(benchmark="b", method="ok", repeat=0,
                fn=_ok_job, kwargs={"value": 1}),
            Job(benchmark="b", method="bad", repeat=1,
                fn=_boom_job, kwargs={"message": "nope"}),
        ]
        trace = tmp_path / "jobs.jsonl"
        run_jobs(jobs, workers=1, trace_path=trace, prewarm=False)
        records = read_trace(trace, event="job")
        assert len(records) == 2
        for record in records:
            assert set(record) == set(JOB_TRACE_FIELDS)
            assert record["v"] == TRACE_SCHEMA_VERSION
        assert records[0]["ok"] is True and records[0]["error"] is None
        assert records[1]["ok"] is False and "nope" in records[1]["error"]
        assert records[1]["method"] == "bad" and records[1]["repeat"] == 1

    def test_prewarm_dedups(self, tmp_path):
        prewarm_contexts([BENCH, BENCH], cache_dir=tmp_path)
        assert BenchmarkContext.peek(BENCH) is not None

    @pytest.mark.skipif(os.cpu_count() < 2, reason="needs 2 CPUs for a pool")
    def test_pool_workers_compute_inline(self):
        # The pool fills the cores: a worker splits nothing over threads.
        jobs = [Job("b", "m", r, _threads_job) for r in range(2)]
        outcomes = run_jobs(jobs, workers=2, prewarm=False)
        assert [o.value for o in outcomes] == [1, 1]

    def test_zero_workers_clamped_with_warning(self):
        jobs = [
            Job(benchmark="none", method="ok", repeat=i,
                fn=_ok_job, kwargs={"value": i})
            for i in range(3)
        ]
        with pytest.warns(RuntimeWarning, match="not positive"):
            outcomes = run_jobs(jobs, workers=0, prewarm=False)
        assert [o.value for o in outcomes] == [0, 2, 4]


class TestGroundTruthCache:
    def test_disk_roundtrip_bitwise(self, tmp_path):
        ctx = BenchmarkContext.get(BENCH)
        y1, v1, src1 = load_or_compute_ground_truth(
            ctx.space, ctx.flow, tmp_path
        )
        assert src1 == GT_COMPUTED
        y2, v2, src2 = load_or_compute_ground_truth(
            ctx.space, ctx.flow, tmp_path
        )
        assert src2 == GT_DISK_HIT
        assert np.array_equal(y1, y2) and np.array_equal(v1, v2)
        assert np.array_equal(y1, ctx.Y_true)

    def test_fingerprint_sensitive_to_penalty(self):
        ctx = BenchmarkContext.get(BENCH)
        a = ground_truth_fingerprint(ctx.space, ctx.flow, penalty=10.0)
        b = ground_truth_fingerprint(ctx.space, ctx.flow, penalty=20.0)
        assert a != b
        assert a == ground_truth_fingerprint(ctx.space, ctx.flow, penalty=10.0)

    def test_corrupt_entry_quarantined_and_recomputed(self, tmp_path):
        ctx = BenchmarkContext.get(BENCH)
        _, _, _ = load_or_compute_ground_truth(ctx.space, ctx.flow, tmp_path)
        (entry,) = tmp_path.rglob("*.npz")
        entry.write_bytes(b"garbage")
        y, valid, src = load_or_compute_ground_truth(
            ctx.space, ctx.flow, tmp_path
        )
        assert src == GT_COMPUTED
        assert np.array_equal(y, ctx.Y_true)
        # The corpse was moved aside for inspection, not overwritten.
        (corpse,) = tmp_path.rglob("*.corrupt")
        assert corpse.name == entry.name + ".corrupt"
        assert corpse.read_bytes() == b"garbage"
        # The rebuilt entry is a clean disk hit again.
        _, _, src = load_or_compute_ground_truth(ctx.space, ctx.flow, tmp_path)
        assert src == GT_DISK_HIT

    def test_checksum_mismatch_quarantined(self, tmp_path):
        """Bit rot inside a parseable .npz is caught by the checksum."""
        ctx = BenchmarkContext.get(BENCH)
        y, valid, _ = load_or_compute_ground_truth(
            ctx.space, ctx.flow, tmp_path
        )
        (entry,) = tmp_path.rglob("*.npz")
        from repro.hlsim.gtcache import _atomic_savez

        rotten = y.copy()
        rotten[0, 0] += 1.0  # flip a value, keep the stale checksum
        with np.load(entry) as data:
            stale = str(data["checksum"].item())
        _atomic_savez(entry, Y=rotten, valid=valid,
                      checksum=np.array(stale))
        y2, _, src = load_or_compute_ground_truth(
            ctx.space, ctx.flow, tmp_path
        )
        assert src == GT_COMPUTED
        assert np.array_equal(y2, ctx.Y_true)
        assert list(tmp_path.rglob("*.corrupt"))

    def test_legacy_entry_upgraded_with_checksum(self, tmp_path):
        """Pre-checksum entries are trusted by shape and rewritten."""
        ctx = BenchmarkContext.get(BENCH)
        y, valid, _ = load_or_compute_ground_truth(
            ctx.space, ctx.flow, tmp_path
        )
        (entry,) = tmp_path.rglob("*.npz")
        from repro.hlsim.gtcache import _atomic_savez

        _atomic_savez(entry, Y=y, valid=valid)  # strip the checksum
        y2, _, src = load_or_compute_ground_truth(
            ctx.space, ctx.flow, tmp_path
        )
        assert src == GT_DISK_HIT
        assert np.array_equal(y2, y)
        with np.load(entry) as data:
            assert "checksum" in data  # upgraded in place

    def test_disabled_cache_computes(self):
        ctx = BenchmarkContext.get(BENCH)
        _, _, src = load_or_compute_ground_truth(ctx.space, ctx.flow, None)
        assert src == GT_COMPUTED


class TestMethodSeedCrossProcess:
    def test_seed_matches_fresh_interpreter(self):
        cases = [(2021, "ours", 0), (2021, "fpl18", 3), (7, "ann", 1)]
        expected = [method_seed(*case) for case in cases]
        code = (
            "from repro.experiments.harness import method_seed;"
            f"print([method_seed(*c) for c in {cases!r}])"
        )
        src_root = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        # -S must not be used: numpy needs site; fresh process => fresh
        # PYTHONHASHSEED, which is the regression this guards against.
        env.pop("PYTHONHASHSEED", None)
        output = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        assert output == repr(expected)


class TestMultistart:
    def test_in_order_strict_winner_and_fallback(self):
        bounds = [(-10.0, 10.0)]
        best = minimize_multistart(
            _quad, [np.array([0.0]), np.array([4.0])],
            args=(np.array([2.0]),), bounds=bounds, maxiter=50,
        )
        assert np.allclose(best, [2.0], atol=1e-6)

        def flat(theta):  # every start ties: the first one must win
            return 1.0, np.zeros_like(theta)

        starts = [np.array([3.0]), np.array([-3.0])]
        assert np.array_equal(
            minimize_multistart(flat, starts, (), bounds, maxiter=5),
            starts[0],
        )

        def hopeless(theta):  # no finite objective: the fallback returns
            return np.inf, np.zeros_like(theta)

        assert np.array_equal(
            minimize_multistart(
                hopeless, starts, (), bounds, maxiter=5,
                fallback=np.array([7.0]),
            ),
            [7.0],
        )


class TestGtcacheCli:
    def _seed_cache(self, tmp_path):
        ctx = BenchmarkContext.get(BENCH)
        load_or_compute_ground_truth(ctx.space, ctx.flow, tmp_path)
        orphan = tmp_path / ("stale-" + "ab" * 16 + ".npz")
        orphan.write_bytes(b"not a real entry")
        (tmp_path / "interrupted-write.tmp").write_bytes(b"debris")
        return ctx

    def test_scan_marks_live_and_orphaned(self, tmp_path):
        ctx = self._seed_cache(tmp_path)
        live = live_fingerprints()
        assert ground_truth_fingerprint(ctx.space, ctx.flow) in live
        entries = scan_cache(tmp_path, live=live)
        assert len(entries) == 2
        assert sorted(e.live for e in entries) == [False, True]
        (orphan,) = [e for e in entries if not e.live]
        assert orphan.benchmark == "stale"

    def test_prune_removes_orphans_keeps_live(self, tmp_path):
        ctx = self._seed_cache(tmp_path)
        (tmp_path / "dead-entry.npz.corrupt").write_bytes(b"corpse")
        live = live_fingerprints()
        removed_npz, removed_tmp, removed_corrupt = prune_cache(
            tmp_path, live=live
        )
        assert len(removed_npz) == 1 and removed_npz[0].name.startswith("stale")
        assert len(removed_tmp) == 1
        assert len(removed_corrupt) == 1
        assert not list(tmp_path.rglob("*.tmp"))
        assert not list(tmp_path.rglob("*.corrupt"))
        # The surviving entry still round-trips as a disk hit.
        _, _, src = load_or_compute_ground_truth(ctx.space, ctx.flow, tmp_path)
        assert src == GT_DISK_HIT

    def test_cli_ls_then_prune(self, tmp_path, capsys):
        self._seed_cache(tmp_path)
        (tmp_path / "dead-entry.npz.corrupt").write_bytes(b"corpse")
        assert gtcache_main(["--ls", "--cache-dir", str(tmp_path)]) == 0
        listing = capsys.readouterr().out
        assert "live" in listing and "orphan" in listing
        assert "1 orphaned" in listing
        assert "1 quarantined" in listing
        assert "dead-entry.npz.corrupt" in listing
        assert gtcache_main(["--prune", "--cache-dir", str(tmp_path)]) == 0
        pruned = capsys.readouterr().out
        assert "removed orphan" in pruned and "removed temp" in pruned
        assert "removed corrupt" in pruned
        assert len(list(tmp_path.rglob("*.npz"))) == 1
        assert not list(tmp_path.rglob("*.corrupt"))

    def test_cli_missing_dir_is_graceful(self, tmp_path, capsys):
        missing = tmp_path / "never-created"
        assert gtcache_main(["--ls", "--cache-dir", str(missing)]) == 0
        assert "does not exist" in capsys.readouterr().out
