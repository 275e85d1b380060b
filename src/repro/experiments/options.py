"""The run flags every experiment driver shares, declared once.

``table1``, ``fig8`` and ``ablations`` take all thirteen flags;
``fig5`` (a whole-space sweep, no BO loop) takes the seven that are
not BO knobs.  :func:`parse_run_options` applies the two flag-pair
guards and folds the flags into one :class:`RunOptions` value, which
is all a driver's ``run()`` needs to know about them.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, fields, replace
from typing import Any

from repro.experiments.harness import ExperimentScale

__all__ = ["RunOptions", "add_run_options", "parse_run_options"]

#: The BO knobs, named as :class:`ExperimentScale` and ``MFBOSettings``
#: name them.
_KNOBS = (
    "batch_size",
    "eval_workers",
    "async_engine",
    "inflight_target",
    "retry_max_attempts",
    "retry_backoff_s",
    "degrade_on_failure",
    "trace_spans",
)


@dataclass(frozen=True)
class RunOptions:
    """Where a driver's cells run, what they keep, and the BO knobs.

    Plain data (picklable), so a job can carry it to a pool worker.
    """

    workers: int = 1
    cache_dir: str | None = None
    journal_dir: str | None = None
    resume: bool = False
    trace_dir: str | None = None
    batch_size: int = 1
    eval_workers: int = 1
    async_engine: bool = False
    inflight_target: int | None = None
    retry_max_attempts: int = 3
    retry_backoff_s: float = 0.0
    degrade_on_failure: bool = True
    trace_spans: bool = False

    def knobs(self) -> dict[str, Any]:
        """The BO knobs as ``MFBOSettings`` keyword arguments."""
        return {name: getattr(self, name) for name in _KNOBS}

    def apply(self, scale: ExperimentScale) -> ExperimentScale:
        """``scale`` with every knob that differs from its flag default."""
        default = RunOptions()
        overrides = {
            name: value
            for name, value in self.knobs().items()
            if value != getattr(default, name)
        }
        return replace(scale, **overrides) if overrides else scale


def add_run_options(parser: argparse.ArgumentParser, bo: bool = True) -> None:
    """Declare the shared flags; ``bo=False`` leaves out the BO knobs."""
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool size (1 = sequential)")
    if bo:
        parser.add_argument("--batch-size", type=int, default=1,
                            help="BO candidates proposed per round (qPEIPV)")
        parser.add_argument("--async", dest="async_engine",
                            action="store_true",
                            help="commit-as-completed async BO pipeline "
                                 "with an adaptive in-flight target "
                                 "(bounded by --eval-workers)")
        parser.add_argument("--inflight-target", type=int, default=None,
                            help="pin the async pipeline's in-flight target "
                                 "(implies --async; 1 = bitwise-sequential)")
    parser.add_argument("--eval-workers", type=int, default=1,
                        help="flow-evaluation workers per BO loop "
                             "(fig5: per whole-space sweep)")
    parser.add_argument("--cache-dir", default="",
                        help="persistent ground-truth cache directory")
    parser.add_argument("--journal-dir", default="",
                        help="checkpoint BO runs and snapshot finished "
                             "cells here")
    parser.add_argument("--resume", action="store_true",
                        help="resume from journals/snapshots in "
                             "--journal-dir")
    if bo:
        parser.add_argument("--retry-max-attempts", type=int, default=3,
                            help="flow-crash retry budget per fidelity")
        parser.add_argument("--retry-backoff-s", type=float, default=0.0,
                            help="base backoff between retry attempts "
                                 "(seconds)")
        parser.add_argument("--no-degrade", action="store_true",
                            help="fail instead of degrading fidelity on "
                                 "retry exhaustion")
    parser.add_argument("--trace-dir", default="",
                        help="write per-cell JSONL traces here")
    parser.add_argument("--trace-spans", action="store_true",
                        help="record nested spans into the traces "
                             "(requires --trace-dir; view with "
                             "python -m repro.obs.spans)")


def parse_run_options(
    parser: argparse.ArgumentParser, argv: list[str] | None = None
) -> tuple[argparse.Namespace, RunOptions]:
    """Parse ``argv``, check the flag pairs, and fold the shared flags."""
    args = parser.parse_args(argv)
    if args.resume and not args.journal_dir:
        parser.error("--resume requires --journal-dir")
    if args.trace_spans and not args.trace_dir:
        parser.error("--trace-spans requires --trace-dir")
    values = {
        f.name: getattr(args, f.name)
        for f in fields(RunOptions)
        if hasattr(args, f.name)
    }
    values["degrade_on_failure"] = not getattr(args, "no_degrade", False)
    for name in ("cache_dir", "journal_dir", "trace_dir"):
        values[name] = values[name] or None
    return args, RunOptions(**values)
