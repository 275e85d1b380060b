"""Bitwise parity of the plane-per-objective hypervolume improvement.

``hvi_batch`` builds the box-intersection volumes one contiguous
(n, n_boxes) plane per objective and multiplies the planes into one
accumulator.  The function below is the form it replaced — one
(n, n_boxes, M) intersection array multiplied through its last axis —
kept as the reference: over fronts with ties, samples on box faces or
beyond the reference point, signed zeros and NaNs, with and without
precomputed boxes, the plane form must return the same bits, and so
must the Monte-Carlo EIPV estimator built on it, so every acquisition
picks the same candidate.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import acquisition
from repro.core.acquisition import eipv_mc
from repro.core.pareto import dominated_boxes, hvi_batch, pareto_front


def _reference_prod_last_axis(a):
    out = a[..., 0]
    for k in range(1, a.shape[-1]):
        out = out * a[..., k]
    return out


def reference_hvi_batch(samples, front, ref, boxes=None):
    """(n, n_boxes, M) form of ``hvi_batch``."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    ref = np.asarray(ref, dtype=float)
    if boxes is None:
        boxes = dominated_boxes(front, ref)
    edge = np.clip(ref[None, :] - samples, 0.0, None)
    own = _reference_prod_last_axis(edge)
    if boxes.shape[0] == 0:
        return own
    lows = boxes[:, 0, :]
    highs = boxes[:, 1, :]
    lo = np.maximum(samples[:, None, :], lows[None, :, :])
    ext = np.clip(highs[None, :, :] - lo, 0.0, None)
    inter = _reference_prod_last_axis(ext).sum(axis=1)
    return np.maximum(own - inter, 0.0)


def _assert_bitwise(samples, front, ref, boxes=None):
    # NaN/inf samples make 0 * inf products in both forms alike.
    with np.errstate(invalid="ignore"):
        got = hvi_batch(samples, front, ref, boxes=boxes)
        want = reference_hvi_batch(samples, front, ref, boxes=boxes)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


REF = 1.0
# A coarse grid makes coordinate ties and samples exactly on box faces
# common; 1.0 is the reference itself and 1.25 lies beyond it.
GRID = [0.0, 0.125, 0.25, 0.5, 0.75, 1.0, 1.25]
SPECIAL = [-0.0, np.nan, np.inf, -np.inf]


@st.composite
def hvi_cases(draw, max_n=60):
    m = draw(st.sampled_from([1, 2, 3]))
    value = st.one_of(st.sampled_from(GRID), st.floats(-0.25, 1.25))
    k = draw(st.integers(0, 11))
    front = np.array(
        draw(st.lists(st.lists(value, min_size=m, max_size=m),
                      min_size=k, max_size=k)),
        dtype=float,
    ).reshape(k, m)
    ref = np.full(m, REF)
    boxes = dominated_boxes(front, ref)
    # Sample coordinates drawn from the box corners as well as the grid,
    # so some samples sit exactly on box faces.
    corners = sorted(set(boxes.ravel().tolist()))
    coord = st.one_of(value, st.sampled_from(SPECIAL))
    if corners:
        coord = st.one_of(coord, st.sampled_from(corners))
    n = draw(st.integers(1, max_n))
    samples = np.array(
        draw(st.lists(st.lists(coord, min_size=m, max_size=m),
                      min_size=n, max_size=n)),
        dtype=float,
    ).reshape(n, m)
    return samples, front, ref


class TestHviBatchBitwise:
    @given(case=hvi_cases(), pass_boxes=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case, pass_boxes):
        samples, front, ref = case
        boxes = dominated_boxes(front, ref) if pass_boxes else None
        _assert_bitwise(samples, front, ref, boxes)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_zero_boxes(self, m):
        ref = np.full(m, REF)
        samples = np.random.default_rng(m).uniform(-0.5, 1.5, (40, m))
        beyond = np.full((1, m), 1.5)  # clipped away: no dominated region
        for front in (np.empty((0, m)), beyond):
            assert dominated_boxes(front, ref).shape[0] == 0
            _assert_bitwise(samples, front, ref)
            _assert_bitwise(samples, front, ref, dominated_boxes(front, ref))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_one_box(self, m):
        ref = np.full(m, REF)
        front = np.full((1, m), 0.5)
        assert dominated_boxes(front, ref).shape[0] == 1
        rng = np.random.default_rng(10 + m)
        samples = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0, 1.5], size=(64, m))
        _assert_bitwise(samples, front, ref)
        _assert_bitwise(samples[:1], front, ref)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_signed_zeros(self, m):
        ref = np.zeros(m)
        front = np.full((1, m), -0.5)
        samples = np.array([[-0.0] * m, [0.0] * m, [-0.5] * m, [-1.0] * m])
        _assert_bitwise(samples, front, ref)
        _assert_bitwise(-samples, -front - 1.0, ref)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_nonfinite_samples(self, m):
        ref = np.full(m, REF)
        front = np.random.default_rng(20 + m).uniform(size=(6, m))
        samples = np.random.default_rng(30 + m).choice(
            [np.nan, np.inf, -np.inf, -0.0, 0.5], size=(50, m)
        )
        _assert_bitwise(samples, front, ref)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("pass_boxes", [True, False])
    def test_large_batch(self, m, pass_boxes):
        # The acquisition's shape: 256 candidates × 96 MC samples.
        rng = np.random.default_rng(40 + m)
        ref = np.full(m, 1.3)
        front = pareto_front(rng.uniform(size=(30, m)))
        samples = rng.uniform(-0.1, 1.4, size=(256 * 96, m))
        samples[:len(front)] = front  # exactly on front points
        boxes = dominated_boxes(front, ref) if pass_boxes else None
        _assert_bitwise(samples, front, ref, boxes)


def _reference_eipv(*args, **kwargs):
    with mock.patch.object(acquisition, "hvi_batch", reference_hvi_batch):
        return eipv_mc(*args, **kwargs)


class TestEipvBitwise:
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.sampled_from([1, 2, 3]),
        n=st.integers(1, 40),
        n_front=st.integers(0, 10),
        dense=st.booleans(),
        pass_boxes=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_reference(self, seed, m, n, n_front, dense, pass_boxes):
        rng = np.random.default_rng(seed)
        ref = np.full(m, 1.3)
        front = pareto_front(rng.uniform(size=(n_front, m)))
        means = rng.uniform(size=(n, m))
        if dense:
            A = 0.1 * rng.normal(size=(n, m, m))
            covs = A @ A.transpose(0, 2, 1) + 1e-4 * np.eye(m)
        else:
            covs = rng.uniform(0.0, 0.05, size=(n, m))
        boxes = dominated_boxes(front, ref) if pass_boxes else None
        args = (means, covs, front, ref)
        got = eipv_mc(*args, rng=np.random.default_rng(seed), n_samples=96,
                      boxes=boxes)
        want = _reference_eipv(*args, rng=np.random.default_rng(seed),
                               n_samples=96, boxes=boxes)
        assert got.tobytes() == want.tobytes()
