"""The paper's contribution: correlated multi-objective multi-fidelity BO.

Public surface:

- GP stack: :class:`GaussianProcess`, :class:`MultiTaskGP`,
  :class:`NonlinearMultiFidelityStack`, :class:`LinearMultiFidelityStack`
- Pareto machinery: :func:`pareto_front`, :func:`hypervolume`, ...
- Acquisition: :func:`expected_improvement`, :func:`eipv_mc`,
  :func:`ehvi_2d_independent`, :func:`penalized_eipv`
- The optimizer: :class:`CorrelatedMFBO` + :class:`MFBOSettings`

Every name is a lazy export (PEP 562): importing the package, or a
numpy-only submodule such as :mod:`repro.core.pareto`, loads no scipy;
the GP stack (``scipy.linalg``/``optimize``/``special``) arrives with the
first name or submodule that needs it.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CorrelatedMFBO",
    "GaussianProcess",
    "IndependentMultiObjectiveGP",
    "LinearMultiFidelityStack",
    "MFBOSettings",
    "Matern52",
    "MultiTaskGP",
    "NonlinearMultiFidelityStack",
    "OptimizationResult",
    "RBF",
    "StationaryKernel",
    "StepRecord",
    "default_reference",
    "dominated_boxes",
    "dominates",
    "ehvi_2d_independent",
    "eipv_mc",
    "expected_improvement",
    "hvi_batch",
    "hypervolume",
    "nondominated_cells_2d",
    "pareto_front",
    "pareto_mask",
    "penalized_eipv",
]

__getattr__ = lazy_exports(globals(), {
    "repro.core.acquisition": (
        "ehvi_2d_independent", "eipv_mc", "expected_improvement",
        "nondominated_cells_2d", "penalized_eipv",
    ),
    "repro.core.gp": ("GaussianProcess",),
    "repro.core.kernels": ("RBF", "Matern52", "StationaryKernel"),
    "repro.core.multifidelity": (
        "LinearMultiFidelityStack", "NonlinearMultiFidelityStack",
    ),
    "repro.core.multitask": ("IndependentMultiObjectiveGP", "MultiTaskGP"),
    "repro.core.optimizer": ("CorrelatedMFBO", "MFBOSettings"),
    "repro.core.pareto": (
        "default_reference", "dominated_boxes", "dominates", "hvi_batch",
        "hypervolume", "pareto_front", "pareto_mask",
    ),
    "repro.core.result": ("OptimizationResult", "StepRecord"),
})
