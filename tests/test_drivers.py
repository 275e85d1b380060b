"""The experiment drivers' command lines and the Table I renderer.

Every driver declares its own few flags plus the shared run-option
group (:mod:`repro.experiments.options`); these tests pin each
driver's full flag set with its defaults, the argv -> scale mapping,
and the two flag-pair guards.
"""

import math
import warnings
from dataclasses import replace

import pytest

from repro.experiments import ablations, fig5, fig8, table1
from repro.experiments.harness import SMOKE_SCALE
from repro.experiments.options import RunOptions, parse_run_options
from repro.experiments.table1 import format_table

#: Flags shared by the BO drivers: ``{flag: (dest, default)}``.
BO_FLAGS = {
    "--workers": ("workers", 1),
    "--batch-size": ("batch_size", 1),
    "--async": ("async_engine", False),
    "--inflight-target": ("inflight_target", None),
    "--eval-workers": ("eval_workers", 1),
    "--cache-dir": ("cache_dir", ""),
    "--journal-dir": ("journal_dir", ""),
    "--resume": ("resume", False),
    "--retry-max-attempts": ("retry_max_attempts", 3),
    "--retry-backoff-s": ("retry_backoff_s", 0.0),
    "--no-degrade": ("no_degrade", False),
    "--trace-dir": ("trace_dir", ""),
    "--trace-spans": ("trace_spans", False),
}
SWEEP_FLAGS = {
    k: v for k, v in BO_FLAGS.items()
    if k in ("--workers", "--eval-workers", "--cache-dir", "--journal-dir",
             "--resume", "--trace-dir", "--trace-spans")
}

DRIVER_FLAGS = {
    table1: {
        **BO_FLAGS,
        "--scale": ("scale", "small"),
        "--benchmarks": ("benchmarks", ""),
        "--seed": ("seed", 2021),
        "--json": ("json", ""),
        "--quiet": ("quiet", False),
    },
    fig8: {
        **BO_FLAGS,
        "--scale": ("scale", "small"),
        "--benchmarks": ("benchmarks", "gemm,spmv_ellpack"),
        "--seed": ("seed", 2021),
    },
    ablations: {
        **BO_FLAGS,
        "--benchmark": ("benchmark", "spmv_ellpack"),
        "--repeats": ("repeats", 3),
        "--iters": ("iters", 30),
        "--seed": ("seed", 77),
    },
    fig5: {
        **SWEEP_FLAGS,
        "--benchmarks": ("benchmarks", "gemm,spmv_ellpack"),
    },
}

DRIVERS = list(DRIVER_FLAGS)


def _ids(module):
    return module.__name__.rsplit(".", 1)[-1]


@pytest.mark.parametrize("driver", DRIVERS, ids=_ids)
def test_flag_set_and_defaults_pinned(driver):
    actions = {
        action.option_strings[-1]: (action.dest, action.default)
        for action in driver.build_parser()._actions
        if action.option_strings and action.dest != "help"
    }
    assert actions == DRIVER_FLAGS[driver]


@pytest.mark.parametrize("driver", DRIVERS, ids=_ids)
@pytest.mark.parametrize(
    "argv, message",
    [(["--resume"], "--resume requires --journal-dir"),
     (["--trace-spans"], "--trace-spans requires --trace-dir")],
)
def test_flag_pair_guards_exit_2(driver, argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        driver.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_argv_maps_to_scale_overrides():
    args, options = parse_run_options(table1.build_parser(), [
        "--scale", "smoke", "--workers", "2", "--batch-size", "4",
        "--eval-workers", "3", "--inflight-target", "2",
        "--retry-max-attempts", "5", "--retry-backoff-s", "0.5",
        "--no-degrade", "--journal-dir", "J", "--resume",
        "--trace-dir", "T", "--trace-spans", "--cache-dir", "",
    ])
    assert args.scale == "smoke"
    assert (options.workers, options.cache_dir, options.journal_dir,
            options.resume, options.trace_dir) == (2, None, "J", True, "T")
    assert options.apply(SMOKE_SCALE) == replace(
        SMOKE_SCALE, batch_size=4, eval_workers=3, inflight_target=2,
        retry_max_attempts=5, retry_backoff_s=0.5, degrade_on_failure=False,
        trace_spans=True,
    )
    # Default flags leave the scale object untouched.
    _, defaults = parse_run_options(table1.build_parser(), [])
    assert defaults == RunOptions()
    assert defaults.apply(SMOKE_SCALE) is SMOKE_SCALE


@pytest.mark.parametrize(
    "driver, argv",
    [(table1, ["--async", "--seed", "3"]),
     (fig8, ["--async", "--seed", "3"]),
     (ablations, ["--async", "--seed", "3"]),
     (fig5, ["--eval-workers", "2"])],
    ids=["table1", "fig8", "ablations", "fig5"],
)
def test_main_hands_one_options_value_to_run(driver, argv, monkeypatch):
    seen = {}

    def fake_run(*args, **kwargs):
        seen.update(kwargs)
        return [], []

    monkeypatch.setattr(driver, "run", fake_run)
    monkeypatch.setattr(table1, "format_table", lambda *a: "")
    assert driver.main(argv) == 0
    options = seen["options"]
    if driver is fig5:
        assert options == RunOptions(eval_workers=2)
    else:
        assert options == RunOptions(async_engine=True)
        assert seen["base_seed"] == 3


def test_format_table_all_nan_column_averages_to_nan():
    normalized = [
        {
            "benchmark": name,
            "adrs": {"ours": 0.5, "ann": 1.0},
            "adrs_std": {"ours": math.nan, "ann": math.nan},
            "runtime": {"ours": 0.7, "ann": 1.0},
        }
        for name in ("gemm", "spmv_ellpack")
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        text = format_table(normalized, ("ours", "ann"))
    averages = [line.split() for line in text.splitlines()
                if line.strip().startswith("Average")]
    assert averages == [
        ["Average", "0.50", "1.00"],
        ["Average", "nan", "nan"],
        ["Average", "0.70", "1.00"],
    ]
