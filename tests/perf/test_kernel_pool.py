"""Unit tests for :mod:`repro.perf.kernel_pool` and the state-spill
allocator it feeds (``alloc_state_matrix``)."""

from __future__ import annotations

import gc
import os

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graph.csr import configure_streaming
from repro.perf import kernel_pool


@pytest.fixture(autouse=True)
def _fresh_pool_state():
    kernel_pool.reset_kernel_pool()
    yield
    kernel_pool.reset_kernel_pool()
    configure_streaming(None)


class TestConfiguration:
    def test_defaults_are_serial(self):
        assert kernel_pool.kernel_workers() == 0
        assert kernel_pool.get_pool() is None

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            kernel_pool.configure_kernel_workers(-1)

    def test_zero_min_shard_candidates_rejected(self):
        with pytest.raises(ConfigurationError):
            kernel_pool.configure_kernel_workers(2, min_shard_candidates=0)

    def test_configure_returns_count(self):
        assert kernel_pool.configure_kernel_workers(3) == 3
        assert kernel_pool.kernel_workers() == 3

    def test_reconfigure_rebuilds_pool(self):
        kernel_pool.configure_kernel_workers(2)
        first = kernel_pool.get_pool()
        kernel_pool.configure_kernel_workers(4)
        second = kernel_pool.get_pool()
        assert first is not second
        assert second.workers == 4

    def test_reset_restores_defaults(self):
        kernel_pool.configure_kernel_workers(5, min_shard_candidates=1)
        kernel_pool.reset_kernel_pool()
        assert kernel_pool.kernel_workers() == 0
        assert (
            kernel_pool.min_shard_candidates()
            == kernel_pool.DEFAULT_MIN_SHARD_CANDIDATES
        )
        stats = kernel_pool.kernel_pool_stats()
        assert stats["sharded_dispatches"] == 0


class TestChooseShards:
    def test_serial_when_pool_off(self):
        assert kernel_pool.choose_shards(1 << 30) == 1

    def test_capped_by_worker_count(self):
        kernel_pool.configure_kernel_workers(4, min_shard_candidates=1)
        assert kernel_pool.choose_shards(1 << 20) == 4

    def test_small_rounds_stay_serial(self):
        kernel_pool.configure_kernel_workers(4)
        floor = kernel_pool.min_shard_candidates()
        assert kernel_pool.choose_shards(floor - 1) == 1
        assert (
            kernel_pool.kernel_pool_stats()["serial_fallbacks"] == 1
        )

    def test_crossover_scales_shard_count(self):
        kernel_pool.configure_kernel_workers(8, min_shard_candidates=100)
        assert kernel_pool.choose_shards(250) == 2
        assert kernel_pool.choose_shards(799) == 7


class TestShardBounds:
    def test_partitions_index_space_in_order(self):
        weights = np.ones(10, dtype=np.int64)
        ranges = kernel_pool.shard_bounds(weights, 3)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 10
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo

    def test_weight_balanced_split(self):
        # One heavy entry up front: the first shard should stop there.
        weights = np.array([100, 1, 1, 1, 1, 1], dtype=np.int64)
        ranges = kernel_pool.shard_bounds(weights, 2)
        lo, hi = ranges[0]
        assert (lo, hi) == (0, 1)
        assert ranges[1] == (1, 6)

    def test_zero_weights_fall_back_to_even_split(self):
        weights = np.zeros(9, dtype=np.int64)
        ranges = kernel_pool.shard_bounds(weights, 3)
        assert ranges == [(0, 3), (3, 6), (6, 9)]

    def test_single_shard_and_empty(self):
        assert kernel_pool.shard_bounds(np.ones(5), 1) == [(0, 5)]
        assert kernel_pool.shard_bounds(np.empty(0), 4) == [(0, 0)]


class TestPoolExecution:
    def test_run_preserves_input_order(self):
        kernel_pool.configure_kernel_workers(3)
        results = kernel_pool.run_sharded(
            [lambda k=k: k * k for k in range(7)]
        )
        assert results == [k * k for k in range(7)]

    def test_run_inline_when_pool_off(self):
        results = kernel_pool.run_sharded([lambda: 1, lambda: 2])
        assert results == [1, 2]
        assert kernel_pool.kernel_pool_stats()["sharded_dispatches"] == 0

    def test_first_exception_propagates_after_all_settle(self):
        kernel_pool.configure_kernel_workers(2)
        settled = []

        def ok(k):
            settled.append(k)
            return k

        def boom():
            raise ValueError("shard failed")

        with pytest.raises(ValueError, match="shard failed"):
            kernel_pool.get_pool().run(
                [lambda: ok(0), boom, lambda: ok(2)]
            )
        assert settled == [0, 2]

    def test_stats_count_dispatches_and_shards(self):
        kernel_pool.configure_kernel_workers(2)
        kernel_pool.run_sharded([lambda: None] * 5)
        kernel_pool.run_sharded([lambda: None] * 3)
        stats = kernel_pool.kernel_pool_stats()
        assert stats["sharded_dispatches"] == 2
        assert stats["shards_executed"] == 8
        assert stats["workers"] == 2


class TestAllocStateMatrix:
    def test_in_ram_without_budget(self):
        from repro.tasks.base import alloc_state_matrix

        arr = alloc_state_matrix((3, 4), np.float64, np.inf)
        assert not isinstance(arr, np.memmap)
        assert np.all(np.isinf(arr))

    def test_spills_over_budget_and_counts(self):
        from repro.tasks.base import alloc_state_matrix

        configure_streaming(max_ram_bytes=1)
        arr = alloc_state_matrix((8, 16), np.float64, np.inf)
        assert isinstance(arr, np.memmap)
        assert np.all(np.isinf(arr))
        # Every one of the 8 x 16 float64 cells lives in the file.
        assert os.path.getsize(arr.filename) >= 8 * 16 * 8

    def test_spilled_matches_in_ram_bytes(self):
        from repro.tasks.base import alloc_state_matrix

        in_ram = alloc_state_matrix((5, 7), np.float64, np.inf)
        configure_streaming(max_ram_bytes=1)
        spilled = alloc_state_matrix((5, 7), np.float64, np.inf)
        rng = np.random.default_rng(11)
        updates = rng.random((5, 7))
        in_ram[:] = np.minimum(in_ram, updates)
        spilled[:] = np.minimum(spilled, updates)
        assert in_ram.tobytes() == np.asarray(spilled).tobytes()

    def test_kernel_state_falls_under_the_spill_rule(self):
        """A batch keeps two ``n x ceil(s / 64)`` bitsets, both
        allocated through ``alloc_state_matrix``."""
        from repro.graph.generators import chung_lu
        from repro.graph.mirrors import build_mirror_plan
        from repro.graph.partition import hash_partition
        from repro.messages.routing import PointToPointRouter
        from repro.rng import make_rng
        from repro.tasks.exact import shortest_path_distances
        from repro.tasks.mssp import MSSPKernel

        graph = chung_lu(90, 4.0, seed=2)
        router = PointToPointRouter(
            graph, build_mirror_plan(graph, hash_partition(graph, 2))
        )
        configure_streaming(max_ram_bytes=1)
        kernel = MSSPKernel(graph, router, make_rng(4), sample_limit=None)
        kernel.start_batch(70)
        # 70 sources fill two 64-bit words per vertex, in each bitset.
        bitsets = (kernel._bits.visited, kernel._bits._incoming)
        for bits in bitsets:
            assert isinstance(bits, np.memmap)
            assert bits.shape == (graph.num_vertices, 2)
        while not kernel.step().done:
            pass
        for source, dist in kernel.result.items():
            np.testing.assert_array_equal(
                dist, shortest_path_distances(graph, source)
            )

    def test_scratch_dir_removed_when_collected(self):
        from repro.tasks.base import alloc_state_matrix

        configure_streaming(max_ram_bytes=1)
        arr = alloc_state_matrix((4, 4), np.bool_)
        scratch = os.path.dirname(arr.filename)
        assert os.path.isdir(scratch)
        del arr
        gc.collect()
        assert not os.path.isdir(scratch)


class TestParallelBuild:
    def test_parallel_build_matches_serial_bytes(self, tmp_path):
        from repro.graph.datasets import PAPER_DATASETS

        profile = PAPER_DATASETS["twitter"]
        serial = profile.instantiate_mapped(
            scale=400, directory=str(tmp_path / "serial.csr")
        )
        kernel_pool.configure_kernel_workers(3)
        parallel = profile.instantiate_mapped(
            scale=400, directory=str(tmp_path / "parallel.csr")
        )
        assert (
            np.asarray(serial.indptr).tobytes()
            == np.asarray(parallel.indptr).tobytes()
        )
        assert (
            np.asarray(serial.indices).tobytes()
            == np.asarray(parallel.indices).tobytes()
        )
        assert serial.fingerprint == parallel.fingerprint
