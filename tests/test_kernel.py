"""Kernel mathematics: assignment, aggregation, update, convergence, and the
sequential reference loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ogrebench import kernel
from ogrebench.kernel import (CentroidSet, PartialSums, ShapeMismatch, assign,
                              assign_block, converged, finalize, merge,
                              objective, partial_sums, run_reference)

# Hand-enumerable two-blob dataset: blob A around the origin, blob B far away.
BLOB_A = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
BLOB_B = np.array([[10.0, 10.0], [11.0, 10.0], [10.0, 11.0]])
TWO_BLOBS = np.vstack([BLOB_A, BLOB_B])


def centroids(*rows, iteration=0):
    return CentroidSet(np.array(rows, dtype=float), iteration)


class TestAssign:
    def test_nearer_centroid_wins(self):
        assert assign([0.0, 0.0], centroids([1, 0], [5, 5])) == 0

    def test_exact_tie_goes_to_lowest_index(self):
        assert assign([0.0, 0.0], centroids([1, 0], [-1, 0])) == 0

    def test_squared_distance_comparison(self):
        assert assign([4.0, 4.0], centroids([0, 0], [5, 5])) == 1

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            assign([0.0, 0.0, 0.0], centroids([1, 0], [5, 5]))

    @given(hnp.arrays(np.float64, (10, 3),
                      elements=st.floats(-100, 100, allow_nan=False)),
           hnp.arrays(np.float64, (5, 3),
                      elements=st.floats(-100, 100, allow_nan=False)))
    def test_block_assignment_matches_scalar(self, pts, cent):
        cs = CentroidSet(cent)
        codes = assign_block(pts, cs)
        for i, p in enumerate(pts):
            assert codes[i] == assign(p, cs)

    def test_exact_tie_splits_like_block_assignment(self):
        # The two distances are equal sums of the same squares in another
        # order; summed dimension by dimension they are equal doubles, so
        # both kernels pick index 0.
        a, b = 31.327023920027244, 41.27555772777217
        cs = centroids([a, b, a], [b, a, a])
        point = np.array([-48.34723644714709] * 3)
        assert assign(point, cs) == assign_block(point, cs)[0]

    @given(st.integers(0, 4), st.integers(2, 6))
    def test_block_ties_break_to_lowest_index(self, dup_at, k):
        # Duplicate centroids force an exact tie for every point.
        cent = np.arange(k * 2, dtype=float).reshape(k, 2)
        cent[min(dup_at, k - 1)] = cent[0]
        codes = assign_block(cent[0].reshape(1, 2), CentroidSet(cent))
        assert codes[0] == 0

    def test_empty_block(self):
        codes = assign_block(np.empty((0, 2)), centroids([0, 0]))
        assert codes.shape == (0,)


class TestPartialSums:
    def test_basic_aggregation(self):
        got = partial_sums(np.array([[0.0, 0.0], [2.0, 2.0]]),
                           centroids([1, 1], [9, 9]))
        np.testing.assert_array_equal(got.sums, [[2, 2], [0, 0]])
        np.testing.assert_array_equal(got.counts, [2, 0])

    def test_empty_points_gives_zero(self):
        got = partial_sums(np.empty((0, 2)), centroids([1, 1], [9, 9]))
        np.testing.assert_array_equal(got.sums, np.zeros((2, 2)))
        np.testing.assert_array_equal(got.counts, [0, 0])

    def test_two_blobs_enumerated(self):
        got = partial_sums(TWO_BLOBS, centroids([0, 0], [10, 10]))
        np.testing.assert_array_equal(got.counts, [3, 3])
        np.testing.assert_array_equal(got.sums, [[1, 1], [31, 31]])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            PartialSums(np.zeros((1, 2)), np.array([-1]))


class TestMerge:
    def test_zero_is_identity(self):
        x = PartialSums(np.array([[1.0, 2.0]]), np.array([3]))
        got = merge(x, PartialSums.zero(1, 2))
        np.testing.assert_array_equal(got.sums, x.sums)
        np.testing.assert_array_equal(got.counts, x.counts)

    def test_componentwise_addition(self):
        a = PartialSums(np.array([[1.0, 1.0]]), np.array([1]))
        b = PartialSums(np.array([[2.0, 0.0]]), np.array([3]))
        got = merge(a, b)
        np.testing.assert_array_equal(got.sums, [[3, 1]])
        np.testing.assert_array_equal(got.counts, [4])

    def test_four_equal_contributions(self):
        x = PartialSums(np.array([[1.0, 2.0]]), np.array([1]))
        total = x
        for _ in range(3):
            total = merge(total, x)
        np.testing.assert_array_equal(total.sums, [[4, 8]])
        np.testing.assert_array_equal(total.counts, [4])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            merge(PartialSums.zero(1, 2), PartialSums.zero(2, 2))

    @given(st.lists(st.tuples(
        hnp.arrays(np.float64, (2, 2), elements=st.floats(-1e6, 1e6)),
        hnp.arrays(np.int64, (2,), elements=st.integers(0, 1000))),
        min_size=1, max_size=6))
    def test_commutative_monoid(self, parts):
        parts = [PartialSums(s, c) for s, c in parts]
        fwd = parts[0]
        for p in parts[1:]:
            fwd = merge(fwd, p)
        rev = parts[-1]
        for p in reversed(parts[:-1]):
            rev = merge(rev, p)
        np.testing.assert_array_equal(fwd.counts, rev.counts)
        np.testing.assert_allclose(fwd.sums, rev.sums, rtol=1e-12, atol=1e-6)


class TestFinalize:
    def test_mean_of_assigned_points(self):
        got = finalize(PartialSums(np.array([[2.0, 2.0]]), np.array([2])),
                       centroids([5, 5]))
        np.testing.assert_array_equal(got.coords, [[1, 1]])

    def test_empty_cluster_keeps_previous(self):
        got = finalize(PartialSums(np.zeros((1, 2)), np.array([0])),
                       centroids([5, 5]))
        np.testing.assert_array_equal(got.coords, [[5, 5]])

    def test_blob_means(self):
        partial = partial_sums(TWO_BLOBS, centroids([0, 0], [10, 10]))
        got = finalize(partial, centroids([0, 0], [10, 10]))
        np.testing.assert_allclose(got.coords,
                                   [[1 / 3, 1 / 3], [31 / 3, 31 / 3]])

    def test_iteration_increments(self):
        got = finalize(PartialSums.zero(1, 2), centroids([5, 5], iteration=3))
        assert got.iteration == 4

    def test_fixed_point(self):
        # Points already at their assigned means: finalize leaves them fixed.
        means = centroids([1 / 3, 1 / 3], [31 / 3, 31 / 3])
        partial = partial_sums(TWO_BLOBS, means)
        got = finalize(partial, means)
        np.testing.assert_allclose(got.coords, means.coords, rtol=1e-15)


class TestConverged:
    def test_identical_sets(self):
        c = centroids([1, 2], [3, 4])
        assert converged(c, c, 0.0)

    def test_displacement_above_epsilon(self):
        assert not converged(centroids([0, 0]), centroids([0.5, 0]), 0.1)

    def test_displacement_exactly_epsilon_is_converged(self):
        assert converged(centroids([0, 0]), centroids([0.5, 0]), 0.5)

    def test_negative_epsilon_rejected(self):
        c = centroids([0, 0])
        with pytest.raises(ValueError):
            converged(c, c, -1.0)


class TestRunReference:
    def test_two_blob_convergence(self):
        initial = CentroidSet(TWO_BLOBS[:2].copy())
        result = run_reference(TWO_BLOBS, initial, max_iter=10, epsilon=1e-4)
        assert result.converged
        assert result.iterations <= 3
        np.testing.assert_allclose(result.final.coords,
                                   [[1 / 3, 1 / 3], [31 / 3, 31 / 3]])

    def test_k1_reaches_global_mean(self):
        initial = CentroidSet(TWO_BLOBS[:1].copy())
        result = run_reference(TWO_BLOBS, initial, max_iter=10, epsilon=1e-4)
        np.testing.assert_allclose(result.final.coords,
                                   TWO_BLOBS.mean(axis=0, keepdims=True))

    def test_max_iter_one(self):
        initial = CentroidSet(TWO_BLOBS[:2].copy())
        result = run_reference(TWO_BLOBS, initial, max_iter=1, epsilon=1e-4)
        assert len(result.trajectory) == 2
        assert result.iterations == 1

    def test_trajectory_starts_with_initial(self):
        initial = CentroidSet(TWO_BLOBS[:2].copy())
        result = run_reference(TWO_BLOBS, initial, max_iter=3, epsilon=0.0)
        assert result.trajectory[0] is initial

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 5))
    def test_objective_monotone_nonincreasing(self, seed, k):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(60, 2))
        initial = CentroidSet(pts[:k].copy())
        result = run_reference(pts, initial, max_iter=6, epsilon=0.0)
        objs = [objective(pts, c) for c in result.trajectory]
        for prev, cur in zip(objs, objs[1:]):
            assert cur <= prev + 1e-9 * max(1.0, abs(prev))


class TestObjective:
    def test_zero_when_points_are_centroids(self):
        assert objective(TWO_BLOBS[:2], CentroidSet(TWO_BLOBS[:2].copy())) == 0.0

    def test_hand_value(self):
        # Single centroid at origin: objective is the sum of squared norms.
        pts = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert objective(pts, centroids([0, 0])) == 25.0
