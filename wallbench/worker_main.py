"""Fleet worker agent, optionally with the layer tracer installed.

Usage::

    python wallbench/worker_main.py [--trace-out FILE] WORKER_ARGS...

Runs ``repro.fleet.worker.main(WORKER_ARGS)``.  With ``--trace-out``
the per-layer self times and counts of this process (space build,
ground-truth load, flow runs) are written to ``FILE`` as JSON when the
agent exits, including on SIGTERM.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = Path(argv[1]), argv[2:]
    from repro.fleet import worker

    if trace_out is None:
        return worker.main(argv)
    from layers import LayerTracer

    tracer = LayerTracer().install()
    try:
        return worker.main(argv)
    finally:
        stats = tracer.snapshot()
        stats["restore_failures"] = tracer.remove()
        trace_out.write_text(json.dumps(stats))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
