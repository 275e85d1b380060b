"""The paper's contribution: correlated multi-objective multi-fidelity BO.

Public surface:

- GP stack: :class:`GaussianProcess`, :class:`MultiTaskGP`,
  :class:`NonlinearMultiFidelityStack`, :class:`LinearMultiFidelityStack`
- Pareto machinery: :func:`pareto_front`, :func:`hypervolume`, ...
- Acquisition: :func:`expected_improvement`, :func:`eipv_mc`,
  :func:`ehvi_2d_independent`, :func:`penalized_eipv`
- The optimizer: :class:`CorrelatedMFBO` + :class:`MFBOSettings`
"""

from repro.core.acquisition import (
    ehvi_2d_independent,
    eipv_mc,
    expected_improvement,
    nondominated_cells_2d,
    penalized_eipv,
)
from repro.core.gp import GaussianProcess
from repro.core.kernels import RBF, Matern52, StationaryKernel
from repro.core.multifidelity import (
    LinearMultiFidelityStack,
    NonlinearMultiFidelityStack,
)
from repro.core.multitask import IndependentMultiObjectiveGP, MultiTaskGP
from repro.core.optimizer import CorrelatedMFBO, MFBOSettings
from repro.core.pareto import (
    default_reference,
    dominated_boxes,
    dominates,
    hvi_batch,
    hypervolume,
    pareto_front,
    pareto_mask,
)
from repro.core.result import OptimizationResult, StepRecord

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
