"""Property-style equivalence tests for the segment-reduction kernels.

The sort-based ``segment_min``/``segment_sum`` and the dense
``scatter_min_dense`` replace ``np.minimum.at``/``np.add.at`` scatters
on the kernel hot paths; these tests drive randomized ragged inputs —
empty frontiers, single-source rows, self-loop pairs, heavy duplicates,
unweighted (all-ones) values — through both implementations and assert
the replacement contract:

* ``segment_min`` is **bit-identical** to the ufunc scatter (min is
  order-independent);
* ``segment_sum`` is bit-identical in the regimes the kernels use it in
  (all-ones counts; duplicate-free cells) and ``allclose`` for general
  floats (``np.add.reduceat`` reduces pairwise, ``np.add.at``
  sequentially — last-ulp differences are expected there);
* both report exactly the touched cells, in row-major order, matching
  :func:`repro.graph.csr.dedup_pairs`.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import (
    dedup_pairs,
    dedup_pairs_dense,
    propagate_mass,
    scatter_min_dense,
    segment_min,
    segment_sum,
)
from repro.graph.generators import chung_lu


def _reference_cells(rows, cols, num_rows, num_cols):
    touched = np.zeros((num_rows, num_cols), dtype=bool)
    touched[rows, cols] = True
    return np.nonzero(touched)  # row-major, like the segment kernels


def _reference_min(rows, cols, values, num_rows, num_cols):
    acc = np.full((num_rows, num_cols), np.inf)
    np.minimum.at(acc, (rows, cols), values)
    r, c = _reference_cells(rows, cols, num_rows, num_cols)
    return r, c, acc[r, c]


def _reference_sum(rows, cols, values, num_rows, num_cols):
    acc = np.zeros((num_rows, num_cols))
    np.add.at(acc, (rows, cols), values)
    r, c = _reference_cells(rows, cols, num_rows, num_cols)
    return r, c, acc[r, c]


def _ragged_cases(seed: int = 7, trials: int = 25):
    """Random (rows, cols, values, num_rows, num_cols) tuples covering
    the shapes the kernels produce."""
    rng = np.random.default_rng(seed)
    cases = [
        # Empty frontier.
        (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            3,
            5,
        ),
        # Single-source row, duplicate targets.
        (
            np.zeros(6, dtype=np.int64),
            np.array([2, 2, 0, 4, 2, 0], dtype=np.int64),
            np.array([3.0, 1.0, 2.0, 5.0, 0.5, 9.0]),
            1,
            5,
        ),
        # Self-loop-style pairs (col == row index).
        (
            np.array([0, 1, 2, 2, 1], dtype=np.int64),
            np.array([0, 1, 2, 2, 1], dtype=np.int64),
            np.array([1.0, 2.0, 3.0, 0.5, 4.0]),
            3,
            3,
        ),
    ]
    for _ in range(trials):
        num_rows = int(rng.integers(1, 12))
        num_cols = int(rng.integers(1, 40))
        size = int(rng.integers(0, 400))
        rows = rng.integers(0, num_rows, size=size, dtype=np.int64)
        cols = rng.integers(0, num_cols, size=size, dtype=np.int64)
        values = rng.normal(size=size)
        cases.append((rows, cols, values, num_rows, num_cols))
    return cases


class TestSegmentMin:
    def test_bit_identical_to_minimum_at(self):
        for rows, cols, values, num_rows, num_cols in _ragged_cases():
            got_r, got_c, got_v = segment_min(rows, cols, values, num_cols)
            ref_r, ref_c, ref_v = _reference_min(
                rows, cols, values, num_rows, num_cols
            )
            np.testing.assert_array_equal(got_r, ref_r)
            np.testing.assert_array_equal(got_c, ref_c)
            np.testing.assert_array_equal(got_v, ref_v)  # bitwise

    def test_unweighted_all_ones(self):
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 4, size=200, dtype=np.int64)
        cols = rng.integers(0, 9, size=200, dtype=np.int64)
        values = np.ones(200)
        _, _, minima = segment_min(rows, cols, values, 9)
        assert (minima == 1.0).all()


class TestSegmentSum:
    def test_allclose_general_floats(self):
        for rows, cols, values, num_rows, num_cols in _ragged_cases(seed=13):
            got_r, got_c, got_v = segment_sum(rows, cols, values, num_cols)
            ref_r, ref_c, ref_v = _reference_sum(
                rows, cols, values, num_rows, num_cols
            )
            np.testing.assert_array_equal(got_r, ref_r)
            np.testing.assert_array_equal(got_c, ref_c)
            np.testing.assert_allclose(got_v, ref_v, rtol=1e-12)

    def test_bit_identical_for_ones_counts(self):
        # The Monte-Carlo walk kernels sum all-ones counts: integer-
        # exact in float64, so pairwise vs sequential cannot differ.
        rng = np.random.default_rng(17)
        for _ in range(10):
            size = int(rng.integers(0, 500))
            rows = rng.integers(0, 6, size=size, dtype=np.int64)
            cols = rng.integers(0, 25, size=size, dtype=np.int64)
            values = np.ones(size)
            _, _, got = segment_sum(rows, cols, values, 25)
            _, _, ref = _reference_sum(rows, cols, values, 6, 25)
            np.testing.assert_array_equal(got, ref)  # bitwise

    def test_bit_identical_for_duplicate_free_cells(self):
        # The arc-list call sites feed duplicate-free (row, col) pairs:
        # every cell has one summand, so the reduction is a permutation.
        rng = np.random.default_rng(19)
        flat = rng.choice(8 * 30, size=100, replace=False)
        rows, cols = np.divmod(flat.astype(np.int64), np.int64(30))
        values = rng.normal(size=100)
        _, _, got = segment_sum(rows, cols, values, 30)
        _, _, ref = _reference_sum(rows, cols, values, 8, 30)
        np.testing.assert_array_equal(got, ref)  # bitwise


class TestScatterMinDense:
    def test_matches_reference(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            num_rows = int(rng.integers(1, 8))
            num_cols = int(rng.integers(1, 30))
            size = int(rng.integers(1, 300))
            rows = rng.integers(0, num_rows, size=size, dtype=np.int64)
            cols = rng.integers(0, num_cols, size=size, dtype=np.int64)
            values = rng.normal(size=size)
            state = rng.normal(size=(num_rows, num_cols))
            expected = state.copy()
            np.minimum.at(expected, (rows, cols), values)
            ref_state = state.copy()

            mask = np.zeros((num_rows, num_cols), dtype=bool)
            cells, before, after = scatter_min_dense(
                rows, cols, values, state, mask
            )
            np.testing.assert_array_equal(state, expected)  # bitwise
            assert not mask.any()  # mask handed back clean
            ref_r, ref_c = _reference_cells(rows, cols, num_rows, num_cols)
            ref_cells = ref_r * num_cols + ref_c
            np.testing.assert_array_equal(cells, ref_cells)
            np.testing.assert_array_equal(
                before, ref_state.reshape(-1)[ref_cells]
            )
            np.testing.assert_array_equal(
                after, expected.reshape(-1)[ref_cells]
            )


class TestDedupEquivalence:
    def test_dense_matches_sparse_randomized(self):
        rng = np.random.default_rng(29)
        for _ in range(15):
            num_rows = int(rng.integers(1, 10))
            num_cols = int(rng.integers(1, 50))
            size = int(rng.integers(0, 400))
            rows = rng.integers(0, num_rows, size=size, dtype=np.int64)
            cols = rng.integers(0, num_cols, size=size, dtype=np.int64)
            sparse_r, sparse_c = dedup_pairs(rows, cols, num_cols)
            mask = np.zeros((num_rows, num_cols), dtype=bool)
            dense_r, dense_c = dedup_pairs_dense(rows, cols, mask)
            np.testing.assert_array_equal(dense_r, sparse_r)
            np.testing.assert_array_equal(dense_c, sparse_c)
            assert not mask.any()


class TestPropagateMass:
    def test_operator_matches_bincount_fallback(self):
        graph = chung_lu(200, avg_degree=6.0, seed=31, name="pm-test")
        rng = np.random.default_rng(37)
        per_vertex = rng.random(graph.num_vertices)
        per_vertex[rng.integers(0, graph.num_vertices, 40)] = 0.0
        expected = np.bincount(
            graph.indices,
            weights=np.repeat(per_vertex, np.diff(graph.indptr)),
            minlength=graph.num_vertices,
        )
        got = propagate_mass(graph, per_vertex)
        # Bit-identical whether or not the scipy operator path is
        # available: the reverse-CSR matvec accumulates per target in
        # arc order, exactly like the weighted bincount.
        np.testing.assert_array_equal(got, expected)
