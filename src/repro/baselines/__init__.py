"""The paper's comparison methods: FPL18, DAC19, ANN, Boosting tree.

Lazy exports (PEP 562): FPL18 runs the GP optimizer, the other methods
are numpy-only, so importing one baseline must not load the GP stack.
"""

from repro._lazy import lazy_exports

__all__ = [
    "DEFAULT_TRAIN_SIZE",
    "GradientBoostingRegressor",
    "MLPRegressor",
    "RegressionTree",
    "RidgeRegressor",
    "collect_training_data",
    "fpl18_settings",
    "run_dac19",
    "run_fpl18",
    "run_offline_regression",
    "run_random_search",
]

__getattr__ = lazy_exports(globals(), {
    "repro.baselines.ann": ("MLPRegressor",),
    "repro.baselines.boosting": ("GradientBoostingRegressor", "RegressionTree"),
    "repro.baselines.common": (
        "DEFAULT_TRAIN_SIZE", "collect_training_data", "run_offline_regression",
    ),
    "repro.baselines.dac19": ("RidgeRegressor", "run_dac19"),
    "repro.baselines.fpl18": ("fpl18_settings", "run_fpl18"),
    "repro.baselines.random_search": ("run_random_search",),
})
