"""Unit tests for repro.core.dominance (Definition 2.2)."""

import numpy as np
import pytest

from repro.core.dominance import (
    dominance_matrix,
    dominated_by,
    dominates,
    dominators_of,
    maximal_mask,
    strictly_dominates,
)


class TestDominates:
    def test_strict_everywhere(self):
        assert dominates(np.array([3.0, 3.0]), np.array([1.0, 1.0]))

    def test_weak_with_one_strict(self):
        assert dominates(np.array([3.0, 1.0]), np.array([1.0, 1.0]))

    def test_equal_vectors_do_not_dominate(self):
        v = np.array([2.0, 2.0])
        assert not dominates(v, v.copy())

    def test_incomparable(self):
        assert not dominates(np.array([3.0, 1.0]), np.array([1.0, 3.0]))
        assert not dominates(np.array([1.0, 3.0]), np.array([3.0, 1.0]))

    def test_antisymmetric(self, rng):
        for _ in range(50):
            a, b = rng.uniform(size=2), rng.uniform(size=2)
            assert not (dominates(a, b) and dominates(b, a))

    def test_transitive(self):
        a, b, c = np.array([3.0, 3.0]), np.array([2.0, 2.0]), np.array([1.0, 1.0])
        assert dominates(a, b) and dominates(b, c) and dominates(a, c)

    def test_one_dimension(self):
        assert dominates(np.array([2.0]), np.array([1.0]))
        assert not dominates(np.array([1.0]), np.array([1.0]))


class TestStrictlyDominates:
    def test_requires_all_strict(self):
        assert strictly_dominates(np.array([2.0, 2.0]), np.array([1.0, 1.0]))
        assert not strictly_dominates(np.array([2.0, 1.0]), np.array([1.0, 1.0]))


class TestVectorizedForms:
    def test_dominators_of_matches_scalar(self, rng):
        block = rng.uniform(size=(40, 3))
        point = rng.uniform(size=3)
        mask = dominators_of(point, block)
        for i in range(40):
            assert mask[i] == dominates(block[i], point)

    def test_dominated_by_matches_scalar(self, rng):
        block = rng.uniform(size=(40, 3))
        point = rng.uniform(size=3)
        mask = dominated_by(point, block)
        for i in range(40):
            assert mask[i] == dominates(point, block[i])

    def test_dominance_matrix_matches_scalar(self, rng):
        upper = rng.uniform(size=(10, 2))
        lower = rng.uniform(size=(12, 2))
        matrix = dominance_matrix(upper, lower)
        for i in range(10):
            for j in range(12):
                assert matrix[i, j] == dominates(upper[i], lower[j])

    def test_empty_blocks(self):
        point = np.array([1.0, 2.0])
        assert dominators_of(point, np.empty((0, 2))).shape == (0,)
        assert dominated_by(point, np.empty((0, 2))).shape == (0,)

    @staticmethod
    def assert_one_vs_many_pairwise(point, block):
        above, below = dominators_of(point, block), dominated_by(point, block)
        assert above.dtype == bool and above.shape == (block.shape[0],)
        assert below.dtype == bool and below.shape == (block.shape[0],)
        for i, row in enumerate(block):
            assert above[i] == dominates(row, point), i
            assert below[i] == dominates(point, row), i

    @pytest.mark.parametrize("dims", range(1, 7))
    def test_one_vs_many_pairwise_with_equal_rows(self, rng, dims):
        # A coarse grid with the point itself planted in the block: equal
        # rows and rows equal in all but one dimension.
        block = rng.integers(0, 3, size=(40, dims)).astype(np.float64)
        point = block[7].copy()
        self.assert_one_vs_many_pairwise(point, block)
        self.assert_one_vs_many_pairwise(point, block[:1])  # a 1-row block
        self.assert_one_vs_many_pairwise(point, block[:0])  # an empty one

    def test_one_vs_many_with_float_sums_tied_at_1e16(self):
        block = np.array([[1e16, 0.25], [1e16, 0.5], [1e16 + 2, 0.0], [1e16, 0.5]])
        for point in block:
            self.assert_one_vs_many_pairwise(point, block)

    def test_one_vs_many_takes_strided_views(self, rng):
        values = rng.integers(0, 4, size=(30, 6)).astype(np.float64)
        block, point = values[::2, ::2], values[3, ::2]
        assert not block.flags.c_contiguous
        self.assert_one_vs_many_pairwise(point, block)
        np.testing.assert_array_equal(
            dominators_of(point, block), dominators_of(point.copy(), block.copy())
        )

    def test_dominance_matrix_empty_upper(self):
        matrix = dominance_matrix(np.empty((0, 2)), np.ones((3, 2)))
        assert matrix.shape == (0, 3)

    @pytest.mark.parametrize("dims", [1, 2, 5])
    @pytest.mark.parametrize("block_rows", [1, 4, 256])
    def test_dominance_matrix_pairwise_with_equal_rows(self, rng, dims, block_rows):
        # A coarse grid, and rows of ``lower`` copied from ``upper``: equal
        # rows and rows equal in all but one dimension on both sides.
        upper = rng.integers(0, 3, size=(11, dims)).astype(np.float64)
        lower = rng.integers(0, 3, size=(9, dims)).astype(np.float64)
        lower[:4] = upper[:4]
        matrix = dominance_matrix(upper, lower, block_rows=block_rows)
        assert matrix.dtype == bool and matrix.shape == (11, 9)
        for i in range(11):
            for j in range(9):
                assert matrix[i, j] == dominates(upper[i], lower[j]), (i, j)

    def test_dominance_matrix_takes_strided_views(self, rng):
        values = rng.integers(0, 4, size=(30, 6)).astype(np.float64)
        upper, lower = values[::2, ::2], values[1::3, ::2]
        np.testing.assert_array_equal(
            dominance_matrix(upper, lower),
            dominance_matrix(upper.copy(), lower.copy()),
        )

    def test_dominance_matrix_chunking_identical(self, rng):
        """Chunked sweeps == one-shot broadcast on a >10M-element pair.

        ``dominance_matrix`` blocks over ``upper`` rows to bound peak
        memory; the output must not depend on the block size, and must
        equal the ``(a, b, m)`` broadcast it replaced.
        """
        a, b, m = 600, 700, 24
        assert a * b * m > 10_000_000
        upper = rng.uniform(size=(a, m))
        lower = rng.uniform(size=(b, m))
        # Sprinkle exact ties so the >= / > split is exercised.
        lower[:a // 2] = upper[: a // 2]
        one_shot = np.logical_and(
            (upper[:, None, :] >= lower[None, :, :]).all(axis=2),
            (upper[:, None, :] > lower[None, :, :]).any(axis=2),
        )
        for block_rows in (1, 7, 256, 599, 600, 10_000):
            np.testing.assert_array_equal(
                dominance_matrix(upper, lower, block_rows=block_rows),
                one_shot,
            )


class TestMaximalMask:
    def test_known_example(self):
        block = np.array([[2.0, 2.0], [1.0, 1.0], [3.0, 0.0], [0.0, 3.0]])
        np.testing.assert_array_equal(
            maximal_mask(block), [True, False, True, True]
        )

    def test_matches_bruteforce(self, rng):
        block = rng.uniform(size=(60, 3))
        mask = maximal_mask(block)
        for i in range(60):
            brute = not any(
                dominates(block[j], block[i]) for j in range(60) if j != i
            )
            assert mask[i] == brute

    def test_duplicates_all_maximal(self):
        block = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(maximal_mask(block), [True, True, False])

    def test_single_row(self):
        assert maximal_mask(np.array([[5.0, 5.0]])).tolist() == [True]

    def test_empty(self):
        assert maximal_mask(np.empty((0, 2))).shape == (0,)

    def test_total_order_chain(self):
        block = np.array([[float(i)] * 2 for i in range(5)])
        mask = maximal_mask(block)
        assert mask.tolist() == [False, False, False, False, True]

    def test_antichain_all_maximal(self):
        # Constant coordinate sum => no dominance at all.
        block = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        assert maximal_mask(block).all()


class TestDominanceWithTies:
    def test_weakly_greater_but_equal_sum_cannot_happen(self, rng):
        # If a dominates b then sum(a) > sum(b) in exact arithmetic, and
        # on these magnitudes in float64 too; see the next test for when
        # the float sums tie.
        for _ in range(100):
            a, b = rng.uniform(size=3), rng.uniform(size=3)
            if dominates(a, b):
                assert a.sum() > b.sum()

    def test_maximal_mask_when_a_dominator_ties_on_the_float_sum(self):
        # Both sums round to 1e16, so the sum order alone would visit the
        # dominated row first and accept it; the SFS order breaks sum ties
        # lexicographically, which puts a dominator first.
        block = np.array([[1e16, 0.25], [1e16, 0.5]])
        assert block[0].sum() == block[1].sum()
        assert dominates(block[1], block[0])
        assert maximal_mask(block).tolist() == [False, True]
        assert maximal_mask(block[::-1]).tolist() == [True, False]
        wide = np.array([[0.5, 1e16, 0.0], [0.25, 1e16, 0.0], [0.25, 1e16, 1.0]])
        assert maximal_mask(wide).tolist() == [True, False, True]
