"""One cold set-up in a fresh interpreter.

Usage::

    python wallbench/setup_probe.py BENCHMARK CACHE_DIR [--trace]

Imports the experiment stack, builds and prunes the benchmark's design
space and loads its exhaustive ground truth from ``CACHE_DIR``
(computing and storing it when absent) — what a user pays before the
first cell starts.  The caller times the whole process; the probe
prints one JSON line with its import time and, with ``--trace``, the
per-layer split of the rest.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list[str]) -> int:
    benchmark, cache_dir = argv[0], argv[1]
    trace = "--trace" in argv[2:]
    t0 = time.perf_counter()
    from repro.experiments.harness import BenchmarkContext

    out = {"import_s": time.perf_counter() - t0}
    if trace:
        from layers import LayerTracer

        with LayerTracer() as tracer:
            ctx = BenchmarkContext.get(benchmark, cache_dir=cache_dir)
        out.update(tracer.snapshot())
    else:
        ctx = BenchmarkContext.get(benchmark, cache_dir=cache_dir)
    out["configs"] = len(ctx.space)
    out["gt_source"] = ctx.gt_source
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
