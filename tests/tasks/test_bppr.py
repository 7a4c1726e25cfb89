"""Correctness tests for the BPPR kernels against exact PPR."""

import numpy as np
import pytest

from repro.errors import TaskError
from repro.graph.generators import chain, chung_lu
from repro.graph.mirrors import build_mirror_plan
from repro.graph.partition import hash_partition
from repro.messages.routing import BroadcastRouter, PointToPointRouter
from repro.rng import make_rng
from repro.tasks.bppr import BPPRKernel, bppr_task
from repro.tasks.exact import exact_ppr, exact_ppr_matrix


def run_kernel(kernel, workload):
    kernel.start_batch(workload)
    for _ in range(100_000):
        summary = kernel.step()
        if summary.done:
            break
    return kernel


@pytest.fixture
def graph():
    return chung_lu(60, avg_degree=5.0, seed=17)


@pytest.fixture
def point_router(graph):
    partition = hash_partition(graph, 4)
    plan = build_mirror_plan(graph, partition)
    return PointToPointRouter(graph, plan, message_bytes=8.0)


class TestExpectedKernel:
    def test_tracked_matches_exact_ppr(self, graph, point_router):
        kernel = BPPRKernel(
            graph,
            point_router,
            make_rng(1),
            mode="expected",
            track_sources=True,
            max_rounds=2000,
        )
        run_kernel(kernel, 100.0)
        estimates = kernel.result
        exact = exact_ppr_matrix(graph, alpha=0.15)
        np.testing.assert_allclose(estimates, exact, atol=5e-4)

    def test_rows_are_distributions(self, graph, point_router):
        kernel = BPPRKernel(
            graph, point_router, make_rng(1), track_sources=True
        )
        run_kernel(kernel, 10.0)
        rows = kernel.result.sum(axis=1)
        np.testing.assert_allclose(rows, 1.0, atol=1e-9)

    def test_untracked_aggregate_matches_tracked(self, graph, point_router):
        tracked = BPPRKernel(
            graph, point_router, make_rng(1), track_sources=True
        )
        run_kernel(tracked, 16.0)
        untracked = BPPRKernel(
            graph, point_router, make_rng(1), track_sources=False
        )
        run_kernel(untracked, 16.0)
        aggregate_tracked = tracked.result.mean(axis=0)
        np.testing.assert_allclose(
            untracked.result, aggregate_tracked, atol=1e-6
        )

    def test_message_counts_decay_geometrically(self, graph, point_router):
        kernel = BPPRKernel(graph, point_router, make_rng(1))
        kernel.start_batch(1000.0)
        first = kernel.step()
        second = kernel.step()
        # Each round keeps (1 - alpha) of the moving mass, modulo
        # dangling absorption.
        ratio = second.wire_messages / first.wire_messages
        assert 0.6 < ratio <= 0.85 + 1e-9

    def test_residual_grows_monotonically(self, graph, point_router):
        kernel = BPPRKernel(graph, point_router, make_rng(1))
        kernel.start_batch(100.0)
        previous = 0.0
        for _ in range(20):
            kernel.step()
            current = kernel.residual_bytes()
            assert current >= previous
            previous = current

    def test_residual_total_counts_all_walks(self, graph, point_router):
        kernel = BPPRKernel(graph, point_router, make_rng(1))
        run_kernel(kernel, 50.0)
        expected_walks = 50.0 * graph.num_vertices
        assert kernel.residual_bytes() == pytest.approx(
            expected_walks * 12.0, rel=0.01
        )

    def test_dangling_vertices_absorb(self, point_router):
        graph = chain(5, directed=True)  # vertex 4 dangles
        partition = hash_partition(graph, 2)
        plan = build_mirror_plan(graph, partition)
        router = PointToPointRouter(graph, plan)
        kernel = BPPRKernel(
            graph, router, make_rng(1), track_sources=True
        )
        run_kernel(kernel, 100.0)
        # All walk mass eventually stops somewhere.
        np.testing.assert_allclose(kernel.result.sum(axis=1), 1.0)

    def test_tracked_rejects_large_graphs(self, point_router):
        big = chung_lu(5000, 4.0, seed=1)
        partition = hash_partition(big, 4)
        plan = build_mirror_plan(big, partition)
        router = PointToPointRouter(big, plan)
        kernel = BPPRKernel(big, router, make_rng(1), track_sources=True)
        with pytest.raises(TaskError):
            kernel.start_batch(10.0)


class TestMonteCarloKernel:
    def test_converges_to_exact_ppr(self, graph, point_router):
        kernel = BPPRKernel(
            graph, point_router, make_rng(7), mode="montecarlo"
        )
        run_kernel(kernel, 400)
        exact = exact_ppr(graph, 0, alpha=0.15)
        estimate = kernel.result[0]
        # Statistical agreement: total variation distance shrinks like
        # 1/sqrt(W); at W=400 over 60 targets ~0.1 is the expected scale.
        tv = 0.5 * np.abs(estimate - exact).sum()
        assert tv < 0.13

    def test_every_walk_accounted(self, graph, point_router):
        kernel = BPPRKernel(
            graph, point_router, make_rng(7), mode="montecarlo"
        )
        run_kernel(kernel, 20)
        assert kernel._stop_counts.sum() == 20 * graph.num_vertices

    def test_integer_workload_required(self, graph, point_router):
        kernel = BPPRKernel(
            graph, point_router, make_rng(7), mode="montecarlo"
        )
        with pytest.raises(TaskError):
            kernel.start_batch(2.5)

    def test_deterministic_given_seed(self, graph, point_router):
        a = BPPRKernel(graph, point_router, make_rng(3), mode="montecarlo")
        run_kernel(a, 10)
        b = BPPRKernel(graph, point_router, make_rng(3), mode="montecarlo")
        run_kernel(b, 10)
        np.testing.assert_array_equal(a.result, b.result)


class TestBroadcastVariant:
    def test_broadcast_blocks_bounded_by_sources(self, graph):
        partition = hash_partition(graph, 4)
        plan = build_mirror_plan(graph, partition, degree_threshold=8)
        router = BroadcastRouter(graph, plan)
        kernel = BPPRKernel(graph, router, make_rng(1))
        kernel.start_batch(1000.0)
        first = kernel.step()
        # Round 1: one source per vertex, so at most n blocks, each
        # delivered to all neighbours.
        assert first.routed.delivered_messages <= graph.num_arcs + 1e-6

    def test_unbiased_estimates_under_broadcast(self, graph):
        partition = hash_partition(graph, 4)
        plan = build_mirror_plan(graph, partition, degree_threshold=8)
        router = BroadcastRouter(graph, plan)
        kernel = BPPRKernel(
            graph, router, make_rng(1), track_sources=True
        )
        run_kernel(kernel, 50.0)
        exact = exact_ppr_matrix(graph, alpha=0.15)
        np.testing.assert_allclose(kernel.result, exact, atol=5e-4)


class TestTaskSpec:
    def test_lifecycle_guards(self, graph, point_router):
        kernel = BPPRKernel(graph, point_router, make_rng(1))
        with pytest.raises(TaskError):
            kernel.step()  # not started
        kernel.start_batch(5.0)
        with pytest.raises(TaskError):
            kernel.start_batch(5.0)  # double start

    def test_invalid_alpha(self, graph, point_router):
        with pytest.raises(TaskError):
            BPPRKernel(graph, point_router, make_rng(1), alpha=1.5)

    def test_task_factory(self, graph):
        task = bppr_task(graph, 128)
        assert task.name == "bppr"
        assert task.workload == 128
        assert task.message_bytes == 8.0
