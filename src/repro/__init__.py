"""repro — Correlated multi-objective multi-fidelity optimization for
HLS directives design (DATE 2021 reproduction).

Subpackages
-----------
- :mod:`repro.core` — the paper's method: correlated multi-objective
  GPs, non-linear multi-fidelity stacks, EIPV/PEIPV acquisition and the
  Bayesian-optimization loop (Algorithm 2).
- :mod:`repro.dse` — directive design spaces: sites, encoding, the
  tree-based pruning method (Algorithm 1) and YAML specs.
- :mod:`repro.hlsim` — the FPGA flow simulator substrate (three
  fidelities: HLS / logic synthesis / implementation).
- :mod:`repro.benchsuite` — the six evaluation kernels (MachSuite +
  iSmart2 models).
- :mod:`repro.baselines` — FPL18, DAC19, ANN and boosting-tree
  comparison methods.
- :mod:`repro.metrics` — ADRS (Eq. (11)) and runtime accounting.
- :mod:`repro.experiments` — drivers regenerating every paper table
  and figure.

Quickstart
----------
>>> from repro import optimize_kernel
>>> from repro.benchsuite import get_kernel
>>> result = optimize_kernel(get_kernel("gemm"), n_iter=4, seed=0)
>>> len(result.pareto_indices()) > 0
True
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "CorrelatedMFBO",
    "MFBOSettings",
    "OptimizationResult",
    "optimize_kernel",
    "__version__",
]

# Lazy re-exports (PEP 562): importing the package must NOT pull in the
# optimizer stack (numpy/scipy) — the observability CLIs
# (``python -m repro.obs.monitor`` / ``.report`` / ``.spans``) live
# under this package and import without numpy or scipy; the monitor's
# first cell hypervolume loads numpy and ``repro.core.pareto`` only.
__getattr__ = lazy_exports(globals(), {
    "repro.core.optimizer": ("CorrelatedMFBO", "MFBOSettings"),
    "repro.core.result": ("OptimizationResult",),
})


def optimize_kernel(
    kernel,
    n_iter: int = 40,
    seed: int = 0,
    settings=None,
    device=None,
):
    """One-call convenience wrapper: kernel in, Pareto set out.

    Builds the pruned design space (Algorithm 1), the simulated flow,
    and runs the correlated multi-fidelity BO loop (Algorithm 2) with
    the paper's defaults.  Returns an
    :class:`~repro.core.result.OptimizationResult`.
    """
    from repro.core.optimizer import CorrelatedMFBO, MFBOSettings
    from repro.dse.space import DesignSpace
    from repro.hlsim.device import VC707
    from repro.hlsim.flow import HlsFlow

    space = DesignSpace.from_kernel(kernel)
    flow = HlsFlow.for_space(space, device=device or VC707)
    if settings is None:
        settings = MFBOSettings(n_iter=n_iter, seed=seed)
    optimizer = CorrelatedMFBO(space, flow, settings=settings)
    return optimizer.run()
