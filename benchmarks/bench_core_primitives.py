"""Microbenchmarks of the core numerical primitives.

These time the inner-loop costs that dominate every BO experiment:
GP / multi-task-GP fitting and single likelihood evaluations, posterior
prediction, hypervolume and the Monte-Carlo EIPV estimator.  Useful for catching performance
regressions in the math kernels.
"""

import numpy as np
import pytest

from repro.core.acquisition import eipv_mc
from repro.core.gp import GaussianProcess
from repro.core.multitask import MultiTaskGP
from repro.core.pareto import dominated_boxes, hvi_batch, hypervolume, pareto_front


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(50, 12))
    Y = np.column_stack([
        np.sin(3 * X[:, 0]) + X[:, 1],
        X[:, 2] * X[:, 3] + 0.3 * X[:, 0],
        np.cos(2 * X[:, 4]),
    ])
    return X, Y


def test_gp_fit(benchmark, data):
    X, Y = data
    benchmark(
        lambda: GaussianProcess(rng=np.random.default_rng(0)).fit(X, Y[:, 0])
    )


def test_multitask_fit(benchmark, data):
    X, Y = data
    benchmark.pedantic(
        lambda: MultiTaskGP(3, rng=np.random.default_rng(0)).fit(X, Y),
        rounds=3, iterations=1,
    )


@pytest.mark.parametrize("n, dim", [(6, 17), (19, 14)])
def test_multitask_nll_eval(benchmark, n, dim):
    """One likelihood + gradient evaluation at the BO loop's shapes.

    A 12-step gemm cell makes ~2,000 of these, on 4-19 training points
    in 14-17 dimensions with three objectives; (6, 17) and (19, 14) are
    its most frequent and its largest shape.
    """
    rng = np.random.default_rng(n)
    X = rng.uniform(size=(n, dim))
    Z = rng.normal(size=(n, 3))
    model = MultiTaskGP(3)
    params = model._default_init(Z, dim)
    diffs = model.kernel.pairwise_diffs(X)
    benchmark(lambda: model._neg_lml_and_grad(params, X, Z, diffs))


def test_multitask_predict(benchmark, data):
    X, Y = data
    model = MultiTaskGP(3, rng=np.random.default_rng(0)).fit(X, Y)
    Xs = np.random.default_rng(1).uniform(size=(256, 12))
    benchmark(lambda: model.predict(Xs))


def test_hypervolume_3d(benchmark):
    rng = np.random.default_rng(2)
    front = pareto_front(rng.uniform(size=(60, 3)))
    ref = np.full(3, 1.3)
    benchmark(lambda: hypervolume(front, ref))


def test_hvi_batch(benchmark):
    rng = np.random.default_rng(3)
    front = pareto_front(rng.uniform(size=(60, 3)))
    ref = np.full(3, 1.3)
    boxes = dominated_boxes(front, ref)
    samples = rng.uniform(0, 1.3, size=(4096, 3))
    benchmark(lambda: hvi_batch(samples, front, ref, boxes=boxes))


def test_hvi_batch_acquisition_shape(benchmark):
    """One acquisition step's ``hvi_batch`` call at the paper protocol:
    256 candidates x 96 MC samples against a 10-point front (31 boxes),
    inside the 6-40 boxes a sort_radix cell sees per step."""
    rng = np.random.default_rng(6)
    front = pareto_front(rng.uniform(size=(20, 3)))
    ref = np.full(3, 1.3)
    boxes = dominated_boxes(front, ref)
    assert boxes.shape[0] == 31
    samples = rng.uniform(0, 1.3, size=(256 * 96, 3))
    benchmark(lambda: hvi_batch(samples, front, ref, boxes=boxes))


def test_eipv_mc(benchmark):
    rng = np.random.default_rng(4)
    front = pareto_front(rng.uniform(size=(40, 3)))
    ref = np.full(3, 1.3)
    means = rng.uniform(size=(192, 3))
    covs = np.empty((192, 3, 3))
    for i in range(192):
        A = 0.1 * rng.normal(size=(3, 3))
        covs[i] = A @ A.T + 1e-4 * np.eye(3)
    boxes = dominated_boxes(front, ref)
    benchmark(
        lambda: eipv_mc(
            means, covs, front, ref,
            rng=np.random.default_rng(0), n_samples=64, boxes=boxes,
        )
    )
