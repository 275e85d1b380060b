"""Tests for Pareto machinery, including hypothesis property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.pareto import (
    default_reference,
    dominated_boxes,
    dominates,
    hvi_batch,
    hypervolume,
    pareto_front,
    pareto_mask,
)


def point_sets(max_m: int = 3):
    return st.integers(2, max_m).flatmap(
        lambda m: arrays(
            float,
            st.tuples(st.integers(1, 25), st.just(m)),
            elements=st.floats(0.0, 1.0, allow_nan=False, width=32),
        )
    )


class TestDomination:
    def test_strict_domination(self):
        assert dominates([1, 1], [2, 2])
        assert dominates([1, 2], [1, 3])

    def test_equal_points_do_not_dominate(self):
        assert not dominates([1, 2], [1, 2])

    def test_incomparable(self):
        assert not dominates([1, 3], [3, 1])
        assert not dominates([3, 1], [1, 3])

    @given(point_sets())
    @settings(max_examples=50, deadline=None)
    def test_front_is_mutually_nondominated(self, Y):
        front = pareto_front(Y)
        for i in range(len(front)):
            for j in range(len(front)):
                if i != j:
                    assert not dominates(front[i], front[j])

    @given(point_sets())
    @settings(max_examples=50, deadline=None)
    def test_every_point_dominated_by_or_on_front(self, Y):
        front = pareto_front(Y)
        for y in Y:
            covered = any(
                dominates(f, y) or np.allclose(f, y) for f in front
            )
            assert covered

    def test_mask_keeps_duplicates(self):
        Y = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 3.0]])
        mask = pareto_mask(Y)
        assert mask.tolist() == [True, True, False]


def _brute_force_mask(Y: np.ndarray) -> np.ndarray:
    """O(n²) reference: a row survives unless some row dominates it."""
    le = np.all(Y[:, None, :] <= Y[None, :, :], axis=2)  # [j, i]: j <= i
    lt = np.any(Y[:, None, :] < Y[None, :, :], axis=2)
    return ~np.any(le & lt, axis=0)


@st.composite
def tied_point_sets(draw):
    """Small-integer rows (ties, duplicates) with some NaN entries."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(0, 30))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, 4), min_size=m, max_size=m),
            min_size=n, max_size=n,
        )
    )
    Y = np.array(rows, dtype=float).reshape(n, m)
    for i, j in draw(st.lists(st.tuples(st.integers(0, 29), st.integers(0, 3)))):
        if i < n and j < m:
            Y[i, j] = np.nan
    if n:
        repeats = draw(st.lists(st.integers(0, n - 1), max_size=5))
        Y = np.vstack([Y, Y[repeats]])
    return Y


class TestParetoMaskProperty:
    @given(tied_point_sets())
    @settings(max_examples=300, deadline=None)
    def test_mask_equals_brute_force(self, Y):
        assert pareto_mask(Y).tolist() == _brute_force_mask(Y).tolist()


class TestHypervolume:
    def test_single_point_2d(self):
        assert hypervolume(np.array([[1.0, 1.0]]), np.array([3.0, 2.0])) == (
            pytest.approx(2.0)
        )
        assert hypervolume(np.array([[1.0, 1.0]]), np.array([2.0, 3.0])) == (
            pytest.approx(2.0)
        )

    def test_single_point_3d(self):
        hv = hypervolume(np.array([[1.0, 1.0, 1.0]]), np.array([2.0, 3.0, 4.0]))
        assert hv == pytest.approx(1.0 * 2.0 * 3.0)
        # Two staircase points: 2x1 + 1x1 cross-section, slab height 1.
        hv = hypervolume(
            np.array([[1.0, 2.0, 2.0], [2.0, 1.0, 2.0]]), np.full(3, 3.0)
        )
        assert hv == pytest.approx(3.0)

    def test_dominated_point_adds_nothing(self):
        ref = np.array([4.0, 4.0])
        a = hypervolume(np.array([[1.0, 1.0]]), ref)
        b = hypervolume(np.array([[1.0, 1.0], [2.0, 2.0]]), ref)
        assert a == pytest.approx(b)

    def test_point_beyond_reference_ignored(self):
        ref = np.array([2.0, 2.0])
        assert hypervolume(np.array([[3.0, 3.0]]), ref) == 0.0
        ref = np.full(3, 2.0)
        assert hypervolume(np.array([[5.0, 5.0, 5.0]]), ref) == 0.0

    def test_empty_front(self):
        assert hypervolume(np.empty((0, 2)), np.array([1.0, 1.0])) == 0.0
        assert hypervolume(np.empty((0, 3)), np.ones(3)) == 0.0

    @given(point_sets())
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_points(self, Y):
        """Adding points never shrinks the hypervolume."""
        ref = np.full(Y.shape[1], 1.5)
        hv_half = hypervolume(Y[: max(1, len(Y) // 2)], ref)
        hv_full = hypervolume(Y, ref)
        assert hv_full >= hv_half - 1e-9

    @given(point_sets())
    @settings(max_examples=40, deadline=None)
    def test_boxes_volume_equals_hypervolume(self, Y):
        """The disjoint box decomposition sums to the exact HV."""
        ref = np.full(Y.shape[1], 1.5)
        boxes = dominated_boxes(pareto_front(Y), ref)
        vol = (
            float(np.prod(boxes[:, 1, :] - boxes[:, 0, :], axis=1).sum())
            if boxes.size
            else 0.0
        )
        assert vol == pytest.approx(hypervolume(Y, ref), rel=1e-9, abs=1e-12)

    def test_3d_matches_monte_carlo(self):
        rng = np.random.default_rng(7)
        Y = rng.uniform(0, 1, size=(15, 3))
        ref = np.full(3, 1.2)
        exact = hypervolume(Y, ref)
        samples = rng.uniform(0, 1.2, size=(200_000, 3))
        front = pareto_front(Y)
        dominated = np.zeros(len(samples), dtype=bool)
        for p in front:
            dominated |= np.all(samples >= p, axis=1)
        mc = dominated.mean() * 1.2 ** 3
        assert exact == pytest.approx(mc, rel=0.02)

    def test_more_than_three_objectives_rejected(self):
        point = np.array([[0.5, 0.5, 0.5, 0.5]])
        ref = np.full(4, 1.0)
        with pytest.raises(NotImplementedError):
            hypervolume(point, ref)
        with pytest.raises(NotImplementedError):
            dominated_boxes(point, ref)


class TestHVI:
    @given(point_sets())
    @settings(max_examples=30, deadline=None)
    def test_batch_matches_exact(self, Y):
        ref = np.full(Y.shape[1], 1.5)
        front = pareto_front(Y)
        rng = np.random.default_rng(0)
        samples = rng.uniform(0, 1.5, size=(20, Y.shape[1]))
        base = hypervolume(front, ref)
        exact = np.array([
            max(0.0, hypervolume(np.vstack([front, s]), ref) - base)
            for s in samples
        ])
        fast = hvi_batch(samples, front, ref)
        assert np.allclose(exact, fast, atol=1e-9)

    def test_dominated_sample_has_zero_hvi(self):
        front = np.array([[0.2, 0.2]])
        ref = np.array([1.0, 1.0])
        assert hvi_batch(np.array([[0.5, 0.5]]), front, ref)[0] == 0.0

    def test_sample_beyond_reference_has_zero_hvi(self):
        front = np.array([[0.2, 0.2]])
        ref = np.array([1.0, 1.0])
        assert hvi_batch(np.array([[1.5, 0.1]]), front, ref)[0] == 0.0

    def test_improvement_of_dominating_point(self):
        front = np.array([[0.5, 0.5]])
        ref = np.array([1.0, 1.0])
        value = hvi_batch(np.array([[0.25, 0.25]]), front, ref)[0]
        # New dominated region: 0.75^2 minus existing 0.5^2.
        assert value == pytest.approx(0.75 ** 2 - 0.5 ** 2)

    def test_empty_front_hvi_is_own_box(self):
        ref = np.array([1.0, 1.0])
        value = hvi_batch(
            np.array([[0.25, 0.5]]), np.empty((0, 2)), ref
        )[0]
        assert value == pytest.approx(0.75 * 0.5)


class TestReference:
    def test_reference_dominated_by_all(self):
        rng = np.random.default_rng(0)
        Y = rng.uniform(0.5, 2.0, size=(20, 3))
        ref = default_reference(Y)
        assert np.all(ref >= Y.max(axis=0))

    def test_reference_handles_zero_column(self):
        Y = np.array([[0.0, 1.0], [0.0, 2.0]])
        ref = default_reference(Y)
        assert ref[0] > 0.0
