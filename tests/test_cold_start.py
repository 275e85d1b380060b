"""Cold start: the design-space build and the import set of a process.

The numpy-built space (``prune_design_space`` + ``encode_many``) must
reproduce, bit for bit, what the dict-per-configuration enumerator and
the float-per-value encoder produced: the same configurations in the
same order, Python-int values, the same feature bytes and hence the
same ground-truth cache fingerprints.  The reference implementations
below are test-local copies of those old paths.

The import set is checked in fresh interpreters: a process loads the GP
stack (``scipy.linalg``/``optimize``/``special``) only when it runs a
cell that fits a GP (``ours``, ``fpl18``), and every lazy package
export resolves to the object its defining submodule holds.
"""

import importlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.benchsuite.registry import benchmark_names, get_kernel, get_space
from repro.dse.directives import Configuration, DirectiveSchema, schema_for_kernel
from repro.dse.space import DesignSpace
from repro.dse.tree import _tree_assignments, build_pruning_trees
from repro.hlsim.flow import HlsFlow
from repro.hlsim.gtcache import ground_truth_fingerprint

REPO_ROOT = Path(__file__).resolve().parents[1]


def _reference_prune(kernel, schema: DirectiveSchema) -> list[Configuration]:
    """The enumerator as it was: one dict and one tuple per config."""
    tree_choices = [
        _tree_assignments(tree, schema) for tree in build_pruning_trees(kernel)
    ]
    constrained = {key for choices in tree_choices for c in choices for key in c}
    free_domains = [
        [(site.key, value) for value in site.values]
        for site in schema.sites
        if site.key not in constrained
    ]
    configs: list[Configuration] = []
    seen: set[tuple[int, ...]] = set()
    for tree_combo in itertools.product(*tree_choices) if tree_choices else [()]:
        base: dict[str, int] = {}
        for assignment in tree_combo:
            base.update(assignment)
        for free_combo in itertools.product(*free_domains):
            assignment = dict(base)
            assignment.update(free_combo)
            config = schema.config_from_dict(assignment)
            if config.values not in seen:
                seen.add(config.values)
                configs.append(config)
    configs.sort(key=lambda c: c.values)
    return configs


def _reference_encode(schema: DirectiveSchema, configs) -> np.ndarray:
    """The encoder as it was: one min-max-normalized float per value."""

    def encode(site, value):
        lo, hi = min(site.values), max(site.values)
        return 0.0 if hi == lo else (value - lo) / (hi - lo)

    return np.vstack([
        np.array(
            [encode(site, v) for site, v in zip(schema.sites, c.values)],
            dtype=float,
        )
        for c in configs
    ])


@pytest.mark.parametrize("name", benchmark_names())
def test_space_build_is_bitwise_the_reference(name):
    space = get_space(name)
    kernel = get_kernel(name)
    schema = schema_for_kernel(kernel)
    configs = _reference_prune(kernel, schema)
    assert [c.values for c in space.configs] == [c.values for c in configs]
    assert all(type(v) is int for c in space.configs for v in c.values)
    features = _reference_encode(schema, configs)
    assert space.features.dtype == features.dtype
    assert space.features.tobytes() == features.tobytes()

    reference = DesignSpace(kernel, schema, configs)
    reference.features = features
    flow = HlsFlow.for_space(space)
    assert ground_truth_fingerprint(space, flow) == ground_truth_fingerprint(
        reference, flow
    )


def _python(code: str, timeout: float = 120) -> str:
    """Run ``code`` in a fresh interpreter on this checkout; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize(
    "module", ["repro.experiments.harness", "repro.fleet.worker"]
)
def test_stack_import_leaves_out_scipy_stats(module):
    """scipy.stats costs most of a cold import; nothing may pull it in."""
    code = f"import sys\nimport {module}\nprint('scipy.stats' in sys.modules)\n"
    assert _python(code) == "False"


GP_STACK = ("scipy.linalg", "scipy.optimize", "scipy.special")
_GP_LOADED = f"sorted(set({GP_STACK!r}) & set(sys.modules))"


@pytest.mark.parametrize(
    "module",
    [
        "repro.core.pareto",
        "repro.core.result",
        "repro.experiments.harness",
        "repro.experiments.parallel",
        "repro.fleet.worker",
    ],
)
def test_stack_import_leaves_out_the_gp_stack(module):
    code = f"import sys\nimport {module}\nprint({_GP_LOADED})\n"
    assert _python(code) == "[]"


def test_baseline_cells_leave_out_the_gp_stack_until_ours():
    """Cells run as a fleet worker runs them: numpy-only methods load no
    scipy; the first ``ours`` cell brings the GP stack in."""
    code = f"""
import dataclasses, sys, time
import repro.fleet.worker
from repro.experiments.harness import SMOKE_SCALE
from repro.experiments.parallel import _invoke, method_jobs

scale = dataclasses.replace(SMOKE_SCALE, n_repeats=1)
def run(methods):
    for job in method_jobs(("spmv_ellpack",), methods, scale, base_seed=0):
        outcome = _invoke(job, time.time())
        assert outcome.ok, outcome.error
    print({_GP_LOADED})
run(("random", "ann", "bt", "dac19"))
run(("ours",))
"""
    lines = _python(code, timeout=300).splitlines()
    assert lines == ["[]", repr(sorted(GP_STACK))]


LAZY_PACKAGES = [
    "repro",
    "repro.baselines",
    "repro.core",
    "repro.core.batch",
    "repro.core.resilience",
    "repro.fleet",
]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_resolve_to_their_defining_submodule(package):
    pkg = importlib.import_module(package)
    exports = pkg.__getattr__.exports
    assert set(exports) <= set(pkg.__all__)
    for name in pkg.__all__:
        value = getattr(pkg, name)
        if name not in exports:
            continue
        module = exports[name]
        assert value is getattr(importlib.import_module(module), name)
        assert getattr(value, "__module__", module) == module
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(pkg, "no_such_name")
