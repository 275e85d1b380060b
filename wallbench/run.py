"""Wall-clock benchmark of the reproduction, end to end and per layer.

Usage (from the repository root)::

    python3 wallbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``wallbench/README.md`` for why each was chosen):

- ``cell-ours-gemm``: sequential "ours" BO cells on gemm at the paper's
  BO settings, run journal on — GP fitting dominates;
- ``cell-async-radix``: the async pipeline on sort_radix, run journal
  on — acquisition dominates;
- ``fleet-sweep``: sweeps of cheap ``random`` cells through a loopback
  broker and two worker agents — broker, wire and polling dominate.

``--seed`` generates every cell seed (and the fleet's base seed);
``--seconds`` sizes the measured phase (cells or sweeps are added in
whole units, so the same arguments always run the same work).  With
``--trace 0`` the last stdout line is the JSON result with every
end-to-end metric; with ``--trace 1`` it carries the per-layer split of
a traced run instead.  The line before it is the environment stamp;
``wallbench/compare.py`` refuses to compare results whose stamps
differ.  Every output is checked (ADRS and simulated hours recomputed
from the exhaustive ground truth, fleet cells against a local rerun,
traced cells against an untraced one); any miss is counted in
``failed`` and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "wallbench"
CACHE_DIR = WORK_ROOT / "gtcache"

#: One BLAS thread and sequential restarts in this process and in every
#: subprocess: the load is one driving process plus at most two flow
#: threads or worker agents, sized for a 2-core machine.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_RESTART_WORKERS": "1",
}

#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: Fewest cells or sweeps per run: medians need a few samples.
MIN_UNITS = 3

#: ``kind``/``benchmark`` pick the runner; ``unit_s`` is the nominal
#: cost of one cell (cell workloads) or of one timed sweep with its
#: share of the untimed sweep, the local rerun and the checks (fleet) on
#: a 2-core x86 machine, which turns ``--seconds`` into a fixed amount
#: of work.
WORKLOADS = {
    "cell-ours-gemm": dict(
        kind="cell", benchmark="gemm", unit_s=2.75,
        scale=dict(n_iter=12),
    ),
    "cell-async-radix": dict(
        kind="cell", benchmark="sort_radix", unit_s=3.0,
        scale=dict(
            n_iter=16, async_engine=True, inflight_target=2,
            eval_workers=2, refit_every=4,
        ),
    ),
    "fleet-sweep": dict(
        kind="fleet", benchmark="spmv_ellpack", unit_s=7.5,
        cells_per_sweep=240, workers=2,
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "cell_s": "s",
    "sweep_s": "s",
    "hv_ratio": "ratio",
    "sim_tool_h": "h",
    "rss_mb": "MB",
}


_T0 = time.perf_counter()


def log(message: str) -> None:
    """Progress on stderr, stamped with seconds since start."""
    print(f"[{time.perf_counter() - _T0:7.2f}s] {message}", file=sys.stderr,
          flush=True)


class CheckFailures:
    """Output checks: ``attempted``/``failed`` and what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def unit(self, problems: list[str], label: str) -> None:
        """Account one checked unit of work (a cell)."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def extra(self, problem: str) -> None:
        """A run-level miss (fleet hygiene, wrapper restore, ...)."""
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------


def _blas_libraries() -> list[dict]:
    """Vendor string and live thread count of every loaded OpenBLAS."""
    import ctypes

    with open("/proc/self/maps") as handle:
        paths = sorted(
            {
                line.split()[-1]
                for line in handle
                if "openblas" in line.lower() and ".so" in line
            }
        )
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"lib": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    entry["threads"] = threads()
                    entry["config"] = config().decode()
                    break
            if "threads" in entry:
                break
        found.append(entry)
    return found


def env_stamp() -> dict:
    """What a result depends on besides the code; printed with it."""
    import platform

    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_libraries(),
        "pinned": {k: os.environ.get(k) for k in PINNED_ENV},
    }


def _reap_strays() -> None:
    """Kill the broker and worker agents a killed earlier run in this
    checkout left behind, and remove its directories.  Only our own
    fleet entry points qualify, and only with an argument inside this
    checkout's fleet directories."""
    import shutil

    fleet_dir = f"{WORK_ROOT}/fleet-"
    entry_points = ("repro.fleet.broker", str(HERE / "worker_main.py"))
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            argv = (entry / "cmdline").read_bytes().decode().split("\0")
        except (OSError, UnicodeDecodeError):
            continue
        if any(e in argv for e in entry_points) and any(
            a.startswith(fleet_dir) for a in argv
        ):
            try:
                os.kill(int(entry.name), signal.SIGKILL)
            except OSError:
                pass
    for stale in WORK_ROOT.glob("fleet-*"):
        shutil.rmtree(stale, ignore_errors=True)
    for stale in WORK_ROOT.glob("cells-*"):
        shutil.rmtree(stale, ignore_errors=True)


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------


def _nondominated(Y):
    """Mask of non-dominated rows (minimization), duplicates kept.

    A row still standing when visited removes every row it dominates;
    a non-dominated row is never removed, so each dominated row goes
    when its dominator is visited.  Visiting in order of objective sum
    (dominators first) removes most rows before their own turn.
    """
    import numpy as np

    keep = np.ones(len(Y), dtype=bool)
    for i in np.argsort(Y.sum(axis=1), kind="stable"):
        if keep[i]:
            keep &= ~(np.all(Y[i] <= Y, axis=1) & np.any(Y[i] < Y, axis=1))
    return keep


def _hypervolume(points, ref) -> float:
    """Volume dominated by ``points`` (3 objectives, minimization) below
    ``ref``: slabs between consecutive third coordinates, each the
    2-D staircase area of the points already reached."""
    import numpy as np

    points = points[np.all(points < ref, axis=1)]
    zs = np.unique(np.append(points[:, 2], ref[2]))
    volume = 0.0
    for lo, hi in zip(zs[:-1], zs[1:]):
        slab = points[points[:, 2] <= lo][:, :2]
        slab = slab[np.argsort(slab[:, 0], kind="stable")]
        edges = np.append(slab[:, 0], ref[0])
        heights = ref[1] - np.minimum.accumulate(slab[:, 1])
        volume += float(np.sum(np.diff(edges) * heights)) * (hi - lo)
    return volume


class GroundTruthCheck:
    """Scores a cell against the exhaustive ground truth independently:
    ADRS and simulated tool time (checked against the cell's own
    numbers) and the hypervolume ratio of its learned set."""

    def __init__(self, ctx) -> None:
        import numpy as np

        from repro.hlsim.flow import HlsFlow

        valid_rows = ctx.Y_true[ctx.valid]
        self.ctx = ctx
        self.front = np.unique(valid_rows[_nondominated(valid_rows)], axis=0)
        self.flow = HlsFlow.for_space(ctx.space, cache_capacity=None)
        # Fixed per benchmark: 10% beyond the worst valid design.
        self.ref = valid_rows.max(axis=0) * 1.1
        self.front_hv = _hypervolume(self.front, self.ref)

    def learned(self, result):
        """True implementation values of the cell's learned Pareto set."""
        import numpy as np

        idx = np.asarray(result.cs_indices)
        return self.ctx.Y_true[idx[_nondominated(result.cs_values)]]

    def hv_ratio(self, result) -> float:
        return _hypervolume(self.learned(result), self.ref) / self.front_hv

    def adrs(self, result) -> float:
        import numpy as np

        learned = self.learned(result)
        g = self.front[:, None, :]
        gaps = (learned[None, :, :] - g) / np.maximum(np.abs(g), 1e-12)
        return float(np.clip(gaps, 0.0, None).max(axis=2).min(axis=1).mean())

    def tool_s(self, result) -> float:
        space = self.ctx.space
        if result.history:
            runs = [(space[h.config_index], h.fidelity) for h in result.history]
        else:  # offline baselines run every sample through IMPL
            from repro.hlsim.reports import Fidelity

            runs = [(space[i], Fidelity.IMPL) for i in result.cs_indices]
        return sum(self.flow.run(c, upto=f).total_runtime_s for c, f in runs)

    def problems(self, run) -> list[str]:
        out = []
        adrs = self.adrs(run.result)
        if not math.isclose(adrs, run.adrs, rel_tol=1e-9, abs_tol=1e-12):
            out.append(f"ADRS {run.adrs!r} != recomputed {adrs!r}")
        tool = self.tool_s(run.result)
        if not math.isclose(tool, run.runtime_s, rel_tol=1e-9):
            out.append(f"tool time {run.runtime_s!r} != recomputed {tool!r}")
        if any(h.attempts != 1 or h.failed for h in run.result.history):
            out.append("a clean run retried or failed an evaluation")
        return out


def bitwise_problems(a, b) -> list[str]:
    """Differences between two :class:`MethodRun` of the same cell."""
    import numpy as np

    ra, rb = a.result, b.result
    checks = {
        "seed": a.seed == b.seed,
        "adrs": a.adrs == b.adrs,
        "runtime": a.runtime_s == b.runtime_s,
        "cs_indices": ra.cs_indices == rb.cs_indices,
        "cs_values": ra.cs_values.shape == rb.cs_values.shape
        and ra.cs_values.tobytes() == rb.cs_values.tobytes(),
        "history": [
            (h.step, h.config_index, int(h.fidelity), h.runtime_s,
             h.objectives.tobytes(), h.valid,
             np.float64(h.acquisition).tobytes())
            for h in ra.history
        ] == [
            (h.step, h.config_index, int(h.fidelity), h.runtime_s,
             h.objectives.tobytes(), h.valid,
             np.float64(h.acquisition).tobytes())
            for h in rb.history
        ],
    }
    return [f"{name} differs" for name, ok in checks.items() if not ok]


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------


def _probe(benchmark: str, trace: bool) -> tuple[float, dict]:
    argv = [sys.executable, str(HERE / "setup_probe.py"), benchmark,
            str(CACHE_DIR)]
    if trace:
        argv.append("--trace")
    t0 = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stdout}{done.stderr}")
    return wall, json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# per-layer reduction
# ----------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def core_layers(deltas: list[dict], walls: list[float]) -> dict:
    """Per-cell means of the in-process layers (cell workloads)."""
    n = len(deltas)
    total = {"self_s": {}, "total_s": {}, "counts": {}}
    for d in deltas:
        for kind, acc in total.items():
            for k, v in d[kind].items():
                acc[k] = acc.get(k, 0) + v

    def s(layer: str) -> float:
        return total["self_s"].get(layer, 0.0) / n

    def c(name: str) -> float:
        return total["counts"].get(name, 0) / n

    fit_opt = {f"l{i}": s(f"core.fit_optimize.l{i}") for i in range(3)}
    hits = total["counts"].get("core.predict_cache_hits", 0)
    attempts = hits + total["counts"].get("core.predict_cache_misses", 0)
    return {
        "core.fit_s": total["total_s"].get("core.fit", 0.0) / n,
        "core.fit_optimize_s": sum(fit_opt.values()),
        **{f"core.fit_optimize_s.{k}": v for k, v in fit_opt.items()},
        "core.fit_condition_s": s("core.fit_condition"),
        "core.fit_restarts": c("core.fit_restarts"),
        "core.fit_nll_evals": c("core.fit_nll_evals"),
        "core.chol_factor_calls": c("core.chol_factor_calls"),
        "core.chol_extend_calls": c("core.chol_extend_calls"),
        "core.chol_flops": c("core.chol_flops"),
        "core.predict_s": s("core.predict"),
        "core.predict_rows": c("core.predict_rows"),
        "core.predict_cache_hit_ratio": _ratio(hits, attempts),
        "core.acq_s": s("core.acq"),
        "core.acq_total_s": total["total_s"].get("core.acq", 0.0) / n,
        "core.pareto_boxes_s": s("core.pareto_boxes"),
        "core.hvi_s": s("core.hvi"),
        "core.hypervolume_s": s("core.hypervolume"),
        "core.acq_candidates": c("core.acq_candidates"),
        "core.engine_wait_s": s("core.engine_wait"),
        "core.engine_submits": c("core.engine_submits"),
        "core.journal_write_s": s("core.journal_write"),
        "core.journal_writes": c("core.journal_writes"),
        "core.journal_bytes": c("core.journal_bytes"),
        "hlsim.flow_s": s("hlsim.flow"),
        "hlsim.flow_calls.hls": c("hlsim.flow_calls.hls"),
        "hlsim.flow_calls.syn": c("hlsim.flow_calls.syn"),
        "hlsim.flow_calls.impl": c("hlsim.flow_calls.impl"),
        "unattributed_s": (sum(walls) - sum(d["main_self_s"] for d in deltas)) / n,
    }


def setup_layers(probes: list[dict]) -> dict:
    """Medians over the traced set-up probes."""

    def med(fn):
        return statistics.median(fn(p) for p in probes)

    return {
        "setup.import_s": med(lambda p: p["import_s"]),
        "dse.build_s": med(lambda p: p["self_s"].get("dse.build", 0.0)),
        "dse.configs": med(lambda p: p["configs"]),
        "hlsim.gt_load_s": med(lambda p: p["self_s"].get("hlsim.gt_load", 0.0)),
    }


FLEET_ZERO = (
    "fleet.submit_s", "fleet.submits", "fleet.result_s",
    "fleet.result_polls", "fleet.result_hit_ratio",
    "fleet.broker_request_s", "fleet.wal_fsync_s", "fleet.wal_records",
    "fleet.queue_wait_s", "fleet.worker_exec_s", "fleet.wire_bytes",
    "fleet.busy_ratio", "fleet.lease_expiries", "fleet.duplicates",
)


# ----------------------------------------------------------------------
# cell workloads
# ----------------------------------------------------------------------


def _flop_counts():
    from repro.core.linalg import FLOPS

    return FLOPS.snapshot()


def _chol_counts(before: dict, after: dict) -> dict:
    d = {k: after[k] - before[k] for k in after}
    return {
        "core.chol_factor_calls": d["factorizations"],
        "core.chol_extend_calls": d["extensions"],
        "core.chol_flops": d["factor_flops"] + d["extend_flops"],
    }


def run_cells(wl: dict, seed: int, seconds: int, trace: bool, checks):
    import shutil

    from repro.experiments.harness import (
        PAPER_SCALE,
        BenchmarkContext,
        method_seed,
        run_method,
    )
    from fleet import reset_hwm, vm_hwm_mb
    from layers import LayerTracer, delta

    benchmark = wl["benchmark"]
    scale = replace(PAPER_SCALE, **wl["scale"])
    n_cells = max(MIN_UNITS, round(seconds / wl["unit_s"]))
    seeds = [method_seed(seed, "ours", r) for r in range(n_cells)]

    # Building the context first fills the ground-truth cache (first
    # run in a checkout) and the page cache for the timed set-ups.
    ctx = BenchmarkContext.get(benchmark, cache_dir=str(CACHE_DIR))
    probes = [_probe(benchmark, trace) for _ in range(SETUP_REPS)]
    log(f"set-up probes: {[round(w, 3) for w, _ in probes]}")
    truth = GroundTruthCheck(ctx)
    journal_dir = Path(tempfile.mkdtemp(prefix="cells-", dir=WORK_ROOT))

    def cell(cell_seed):
        reset_hwm()
        flops0, t0 = _flop_counts(), time.perf_counter()
        run = run_method(ctx, "ours", scale, cell_seed, journal_dir=journal_dir)
        wall = time.perf_counter() - t0
        peaks_mb.append(vm_hwm_mb())
        return run, wall, _chol_counts(flops0, _flop_counts())

    runs, walls, deltas, peaks_mb = [], [], [], []
    tracer = LayerTracer().install() if trace else None
    try:
        for cell_seed in seeds:
            before = tracer.snapshot() if trace else None
            run, wall, chol = cell(cell_seed)
            runs.append(run)
            walls.append(wall)
            if trace:
                deltas.append(delta(tracer.snapshot(), before))
                deltas[-1]["counts"].update(chol)
        if trace:
            restore_failures, tracer = tracer.remove(), None
            # An untraced rerun of the second cell, once every lazy
            # import and first-call cost is paid: the traced cell must
            # reproduce it bitwise, and their wall difference is the
            # tracing overhead.
            reference, reference_wall, reference_chol = cell(seeds[1])
    finally:
        if tracer is not None:
            tracer.remove()
        shutil.rmtree(journal_dir, ignore_errors=True)
    log(f"cells: {[round(w, 3) for w in walls]}")

    for i, run in enumerate(runs):
        checks.unit(truth.problems(run), f"cell {i} seed {seeds[i]}")

    if not trace:
        return {
            "setup_s": statistics.median(w for w, _ in probes),
            "cell_s": statistics.median(walls),
            "sweep_s": sum(walls),
            "hv_ratio": statistics.fmean(truth.hv_ratio(r.result) for r in runs),
            "sim_tool_h": statistics.fmean(r.runtime_s for r in runs) / 3600,
            "rss_mb": statistics.median(peaks_mb),
        }

    if restore_failures:
        checks.extra(f"wrappers not restored: {restore_failures}")
    neutral = bitwise_problems(reference, runs[1])
    if reference_chol != {k: deltas[1]["counts"][k] for k in reference_chol}:
        neutral.append("Cholesky counts differ")
    checks.unit(neutral, "traced cell 1 vs untraced")
    return {
        **setup_layers([p for _, p in probes]),
        **core_layers(deltas, walls),
        **{name: 0.0 for name in FLEET_ZERO},
        "quality.adrs": statistics.fmean(r.adrs for r in runs),
        "trace_overhead_s": walls[1] - reference_wall,
    }


# ----------------------------------------------------------------------
# fleet workload
# ----------------------------------------------------------------------


def run_fleet(wl: dict, seed: int, seconds: int, trace: bool, checks):
    from repro.experiments.harness import (
        SMALL_SCALE,
        BenchmarkContext,
        method_seed,
        run_method,
    )
    from repro.fleet.schedule import SessionSpec, run_schedule
    from repro.fleet.wire import load

    from fleet import SWEEP, Fleet, proc_env, vm_hwm_mb
    from layers import LayerTracer, delta

    benchmark = wl["benchmark"]
    n_cells = wl["cells_per_sweep"]
    n_sweeps = max(MIN_UNITS, round(seconds / wl["unit_s"]))
    scale = replace(SMALL_SCALE, n_repeats=n_cells)
    spec = SessionSpec(
        name=SWEEP, benchmark=benchmark, methods=("random",),
        repeats=n_cells, base_seed=seed,
    )
    def sweep(fleet):
        t0 = time.perf_counter()
        out = run_schedule(
            fleet.url, [spec], scale=scale, cache_dir=str(CACHE_DIR),
            auth_key=fleet.auth_key, timeout_s=170.0,
        )
        return time.perf_counter() - t0, out[SWEEP]["random"]

    # Loading the context first fills the ground-truth cache (first run
    # in a checkout) and the page cache for the timed set-ups.
    ctx = BenchmarkContext.get(benchmark, cache_dir=str(CACHE_DIR))
    # A local rerun of the cell list: every fleet cell must match it
    # bitwise.
    local = [
        run_method(ctx, "random", scale, method_seed(seed, "random", repeat))
        for repeat in range(n_cells)
    ]

    setup_walls = []
    sweeps: list[list] = []
    sweep_walls: list[float] = []
    cell_execs: list[float] = []
    traced: list[tuple[float, dict, dict, dict]] = []
    for rep in range(SETUP_REPS):
        with Fleet(WORK_ROOT, CACHE_DIR, wl["workers"], trace=trace) as fleet:
            t0 = time.perf_counter()
            fleet.start()
            fleet.warm_up(SMALL_SCALE, seed)
            setup_walls.append(time.perf_counter() - t0)
            if rep < SETUP_REPS - 1:
                continue
            log(f"set-ups: {[round(w, 3) for w in setup_walls]}")
            for pid in fleet.pids():
                for key, value in PINNED_ENV.items():
                    if proc_env(pid, key) != value:
                        checks.extra(f"pid {pid}: {key} not pinned to {value}")
            # An untimed sweep first: the workers' flow report caches
            # start empty and fill during it (see README.md).
            sweeps.append(sweep(fleet)[1])
            tracer = LayerTracer().install() if trace else None
            try:
                for _ in range(n_sweeps):
                    busy0 = fleet.busy()
                    m0 = fleet.metrics()
                    before = tracer.snapshot() if trace else None
                    wall, runs = sweep(fleet)
                    sweeps.append(runs)
                    sweep_walls.append(wall)
                    if trace:
                        traced.append((
                            wall, delta(tracer.snapshot(), before),
                            m0, fleet.metrics(),
                        ))
                    busy1 = fleet.busy()
                    cell_execs.append(
                        (busy1[0] - busy0[0]) / (busy1[1] - busy0[1])
                    )
            finally:
                restore_failures = tracer.remove() if trace else []
            if trace:
                # An untraced sweep on the warm fleet: the tracing
                # overhead is the traced median minus its wall.
                reference_wall, runs = sweep(fleet)
                sweeps.append(runs)
            final = fleet.metrics()
            rss_mb = vm_hwm_mb() + sum(vm_hwm_mb(p) for p in fleet.pids())
            codes = fleet.stop()
            log(f"sweeps: {[round(w, 3) for w in sweep_walls]}")
            worker_stats = [
                json.loads(fleet.stats_path(i).read_text())
                for i in range(wl["workers"])
            ] if trace else []

    # 143 = 128 + SIGTERM: an agent's graceful stop.
    if any(code not in (0, 128 + signal.SIGTERM) for code in codes):
        checks.extra(f"fleet processes exited with {codes}")
    for key in ("expiries", "duplicates"):
        if final[key]:
            checks.extra(f"broker reports {final[key]:g} lease {key}")

    truth = GroundTruthCheck(ctx)
    for i, run in enumerate(local):
        checks.unit(truth.problems(run), f"local cell {i}")
    log("checked")
    for k, runs in enumerate(sweeps):
        if len(runs) != n_cells:
            checks.extra(f"sweep {k} returned {len(runs)} of {n_cells} cells")
        for i, (a, b) in enumerate(zip(local, runs)):
            checks.unit(bitwise_problems(a, b), f"sweep {k} cell {i}")

    if not trace:
        return {
            "setup_s": statistics.median(setup_walls),
            "cell_s": statistics.median(cell_execs),
            "sweep_s": statistics.median(sweep_walls),
            "hv_ratio": statistics.fmean(
                truth.hv_ratio(r.result) for r in local
            ),
            "sim_tool_h": statistics.fmean(r.runtime_s for r in local) / 3600,
            "rss_mb": rss_mb,
        }

    if restore_failures:
        checks.extra(f"wrappers not restored: {restore_failures}")
    for i, stats in enumerate(worker_stats):
        if stats["restore_failures"]:
            checks.extra(f"worker {i} wrappers not restored")
    outcomes = [load(p) for p in tracer.fleet_results]
    return {
        **fleet_layers(
            traced, worker_stats, outcomes, n_cells, wl["workers"],
            reference_wall, checks,
        ),
        "quality.adrs": statistics.fmean(r.adrs for r in local),
    }


def fleet_layers(traced, worker_stats, outcomes, n_cells, workers,
                 reference_wall, checks) -> dict:
    """Per-sweep scheduler and broker layers, per-cell worker layers."""
    n = len(traced)
    walls = [t[0] for t in traced]
    wal_records = [t[3]["wal_records"] - t[2]["wal_records"] for t in traced]
    if len(set(wal_records)) != 1:
        checks.extra(f"WAL records per sweep differ: {wal_records}")

    def per_sweep(fn):
        return sum(fn(t) for t in traced) / n

    def sched(kind, layer):
        return per_sweep(lambda t: t[1][kind].get(layer, 0))

    def broker(key):
        return per_sweep(lambda t: t[3][key] - t[2][key])

    exec_s = [o.exec_s for o in outcomes]
    wait_s = [o.queue_wait_s for o in outcomes]
    polls = sched("counts", "fleet.result_polls")
    hits = sched("counts", "fleet.result_hits")
    # Worker-side layers: one warm-up cell plus every sweep cell, the
    # untimed first sweep and the untraced reference sweep included.
    worker_cells = workers + (n + 2) * n_cells

    def w_self(layer):
        return sum(s["self_s"].get(layer, 0.0) for s in worker_stats)

    def w_count(name):
        return sum(s["counts"].get(name, 0) for s in worker_stats)

    layers = {
        "setup.import_s": 0.0,
        "dse.build_s": w_self("dse.build") / workers,
        "dse.configs": w_count("dse.configs") / max(1, w_count("dse.builds")),
        "hlsim.gt_load_s": w_self("hlsim.gt_load") / workers,
        **{k: 0.0 for k in core_layers([_EMPTY], [0.0])},
        "hlsim.flow_s": w_self("hlsim.flow") / worker_cells,
        "hlsim.flow_calls.hls": w_count("hlsim.flow_calls.hls") / worker_cells,
        "hlsim.flow_calls.syn": w_count("hlsim.flow_calls.syn") / worker_cells,
        "hlsim.flow_calls.impl": w_count("hlsim.flow_calls.impl") / worker_cells,
        "fleet.submit_s": sched("self_s", "fleet.submit"),
        "fleet.submits": sched("counts", "fleet.submits"),
        "fleet.result_s": sched("self_s", "fleet.result"),
        "fleet.result_polls": polls,
        "fleet.result_hit_ratio": _ratio(hits, polls),
        "fleet.broker_request_s": broker("requests_s"),
        "fleet.wal_fsync_s": broker("wal_fsync_s"),
        "fleet.wal_records": broker("wal_records"),
        "fleet.queue_wait_s": statistics.fmean(wait_s),
        "fleet.worker_exec_s": statistics.fmean(exec_s),
        "fleet.wire_bytes": sched("counts", "fleet.wire_bytes") / n_cells,
        "fleet.busy_ratio": sum(exec_s) / (workers * sum(walls)),
        "fleet.lease_expiries": broker("expiries"),
        "fleet.duplicates": broker("duplicates"),
        "unattributed_s": statistics.fmean(
            t[0] - t[1]["main_self_s"] for t in traced
        ),
        "trace_overhead_s": statistics.median(walls) - reference_wall,
    }
    return layers


_EMPTY = {"self_s": {}, "total_s": {}, "counts": {}, "main_self_s": 0.0}


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2

    os.environ.update(PINNED_ENV)
    os.environ["PYTHONPATH"] = str(SRC)
    os.environ["REPRO_GT_CACHE_DIR"] = str(CACHE_DIR)
    sys.path[:0] = [str(SRC), str(HERE)]
    signal.signal(signal.SIGTERM, _terminate)
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    _reap_strays()

    print(json.dumps({"env": env_stamp()}), flush=True)
    wl = WORKLOADS[args.workload]
    checks = CheckFailures()
    run_workload = run_cells if wl["kind"] == "cell" else run_fleet
    values = run_workload(wl, args.seed, args.seconds, bool(args.trace), checks)
    for problem in checks.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        metrics = {
            k: {"value": values[k], "unit": u}
            for k, u in END_TO_END_UNITS.items()
        }
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if checks.failed == 0 else 1


def layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
