"""The sweep drivers end to end, at one worker and at two.

Every driver runs its cells through
:func:`repro.experiments.parallel.run_jobs`; these tests run each one
for real at ``workers=1`` (cells inline) and ``workers=2`` (process
pool) and require exactly equal results, plus the snapshot/resume and
failure behaviour that both worker counts share.  The fig5 and
ablations pairs take ~10 s each and are marked ``slow``.
"""

import numpy as np
import pytest

from repro.experiments import ablations, fig5, fig8
from repro.experiments.harness import SMOKE_SCALE, run_table1
from repro.experiments.options import RunOptions
from repro.hlsim.gtcache import GT_SNAPSHOT
from repro.obs.report import TABLE1_LOG_LINE
from repro.obs.trace import read_trace

BENCH = "spmv_ellpack"
METHODS = ("ann", "ours")


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """One ground-truth cache for every driver run in this module."""
    return str(tmp_path_factory.mktemp("gt-cache"))


def assert_same(a, b):
    """Exact equality through nested dicts, lists and numpy arrays."""
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_same(a[key], b[key])
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b)
    else:
        assert a == b


def _table1(cache_dir, workers, **kwargs):
    return run_table1(
        (BENCH,), methods=METHODS, scale=SMOKE_SCALE, workers=workers,
        cache_dir=cache_dir, **kwargs,
    )


def test_table1_same_at_one_and_two_workers(cache_dir, capsys):
    rows = {w: _table1(cache_dir, w, verbose=True) for w in (1, 2)}
    assert rows[1] == rows[2]
    lines = capsys.readouterr().out.splitlines()
    # Each worker count prints one parseable result line per cell.
    assert len(lines) == 2 * len(METHODS)
    for line, method in zip(lines, METHODS * 2):
        match = TABLE1_LOG_LINE.match(line)
        assert match and match.group(1, 2) == (BENCH, method)


def test_table1_one_worker_snapshots_and_resumes(cache_dir, tmp_path):
    journal_dir = tmp_path / "journals"
    trace_dir = tmp_path / "trace"
    first = _table1(cache_dir, 1, journal_dir=journal_dir)
    snapshots = sorted(p.name for p in journal_dir.glob("*.snapshot.pkl"))
    assert snapshots == [f"{BENCH}.{m}.r0.snapshot.pkl" for m in METHODS]
    resumed = _table1(
        cache_dir, 1, journal_dir=journal_dir, resume=True,
        trace_dir=trace_dir,
    )
    assert resumed == first
    records = read_trace(trace_dir / "table1.jobs.jsonl", event="job")
    assert [r["method"] for r in records] == list(METHODS)
    assert all(r["gt_cache"] == GT_SNAPSHOT for r in records)


def test_one_worker_failure_does_not_stop_the_sweep(cache_dir, tmp_path):
    with pytest.raises(RuntimeError, match=rf"1 of 2 jobs failed: {BENCH}/"
                                           r"no-such-method/0"):
        run_table1(
            (BENCH,), methods=("no-such-method", "ann"), scale=SMOKE_SCALE,
            cache_dir=cache_dir, journal_dir=tmp_path,
        )
    # The cell after the failing one still ran and was snapshotted.
    assert [p.name for p in tmp_path.glob("*.snapshot.pkl")] == [
        f"{BENCH}.ann.r0.snapshot.pkl"
    ]


def test_fig8_same_at_one_and_two_workers(cache_dir):
    results = [
        fig8.run((BENCH,), "smoke", verbose=False,
                 options=RunOptions(workers=w, cache_dir=cache_dir))
        for w in (1, 2)
    ]
    assert_same(*results)


@pytest.mark.slow
def test_ablations_same_at_one_and_two_workers(cache_dir):
    results = [
        ablations.run(repeats=1, n_iter=4, candidate_pool=48,
                      n_mc_samples=16, verbose=False,
                      options=RunOptions(workers=w, cache_dir=cache_dir))
        for w in (1, 2)
    ]
    assert_same(*results)


@pytest.mark.slow
def test_fig5_same_at_one_and_two_workers(cache_dir):
    results = [
        fig5.run((BENCH,), verbose=False,
                 options=RunOptions(workers=w, cache_dir=cache_dir))
        for w in (1, 2)
    ]
    assert_same(*results)
