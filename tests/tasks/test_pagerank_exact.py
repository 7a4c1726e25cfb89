"""Tests for the PageRank kernel and the exact reference algorithms."""

import numpy as np
import pytest

from repro.errors import TaskError
from repro.graph.generators import chain, chung_lu, complete
from repro.graph.mirrors import build_mirror_plan
from repro.graph.partition import hash_partition
from repro.messages.routing import PointToPointRouter
from repro.rng import make_rng
from repro.tasks.exact import (
    bfs_distances,
    exact_pagerank,
    exact_ppr,
    k_hop_set,
    optional_networkx_graph,
)
from repro.tasks.pagerank import PageRankKernel, pagerank_task


def router_for(graph, machines=4):
    partition = hash_partition(graph, machines)
    plan = build_mirror_plan(graph, partition)
    return PointToPointRouter(graph, plan)


def run_kernel(kernel, workload=1.0):
    kernel.start_batch(workload)
    for _ in range(10_000):
        if kernel.step().done:
            break
    return kernel


class TestPageRankKernel:
    def test_matches_exact(self):
        graph = chung_lu(120, 6.0, seed=31)
        kernel = PageRankKernel(
            graph, router_for(graph), make_rng(1), tolerance=1e-12,
            max_iterations=500,
        )
        run_kernel(kernel)
        np.testing.assert_allclose(
            kernel.result, exact_pagerank(graph, tolerance=1e-14), atol=1e-9
        )

    def test_ranks_sum_to_one(self):
        graph = chung_lu(80, 5.0, seed=2)
        kernel = PageRankKernel(graph, router_for(graph), make_rng(1))
        run_kernel(kernel)
        assert kernel.result.sum() == pytest.approx(1.0)

    def test_complete_graph_uniform(self):
        graph = complete(10)
        kernel = PageRankKernel(
            graph, router_for(graph, 2), make_rng(1), tolerance=1e-13
        )
        run_kernel(kernel)
        np.testing.assert_allclose(kernel.result, 0.1, atol=1e-10)

    def test_messages_per_round_constant(self):
        graph = chung_lu(80, 5.0, seed=2)
        kernel = PageRankKernel(graph, router_for(graph), make_rng(1))
        kernel.start_batch(1.0)
        first = kernel.step()
        second = kernel.step()
        assert first.wire_messages == pytest.approx(second.wire_messages)
        assert first.wire_messages == pytest.approx(
            np.count_nonzero(np.diff(graph.indptr))
            and float(graph.num_arcs)
        )

    def test_invalid_damping(self):
        graph = chain(4)
        with pytest.raises(TaskError):
            PageRankKernel(graph, router_for(graph, 2), make_rng(1), damping=1.0)

    def test_task_spec_has_async_factor(self):
        graph = chain(4)
        task = pagerank_task(graph)
        assert task.params["async_update_factor"] < 1.0
        assert task.workload == 1.0


class TestExactReferences:
    def test_exact_ppr_is_distribution(self):
        graph = chung_lu(50, 5.0, seed=3)
        ppr = exact_ppr(graph, 7)
        assert ppr.sum() == pytest.approx(1.0)
        assert (ppr >= 0).all()

    def test_exact_ppr_chain_decay(self):
        graph = chain(6, directed=True)
        ppr = exact_ppr(graph, 0, alpha=0.5)
        # Walks go strictly right and halve each hop.
        assert all(ppr[i] > ppr[i + 1] for i in range(4))

    def test_exact_ppr_source_validation(self):
        graph = chain(4)
        with pytest.raises(TaskError):
            exact_ppr(graph, 99)

    def test_k_hop_monotone_in_k(self):
        graph = chung_lu(100, 5.0, seed=6)
        inner = k_hop_set(graph, 0, 1)
        outer = k_hop_set(graph, 0, 3)
        assert (outer | inner == outer).all()
        assert outer.sum() >= inner.sum()

    def test_networkx_cross_validation(self):
        nx_available = optional_networkx_graph(chain(3))
        if nx_available is None:
            pytest.skip("networkx not installed")
        import networkx as nx

        graph = chung_lu(80, 5.0, seed=8)
        g = optional_networkx_graph(graph)
        source = 5
        nx_dist = nx.single_source_shortest_path_length(g, source)
        mine = bfs_distances(graph, source)
        for v in range(graph.num_vertices):
            if v in nx_dist:
                assert mine[v] == nx_dist[v]
            else:
                assert np.isinf(mine[v])

    def test_exact_pagerank_against_networkx(self):
        if optional_networkx_graph(chain(3)) is None:
            pytest.skip("networkx not installed")
        import networkx as nx

        graph = chung_lu(60, 5.0, seed=9)
        g = optional_networkx_graph(graph)
        nx_pr = nx.pagerank(g, alpha=0.85, tol=1e-12, max_iter=500)
        mine = exact_pagerank(graph, damping=0.85, tolerance=1e-14)
        for v in range(graph.num_vertices):
            assert mine[v] == pytest.approx(nx_pr[v], abs=1e-6)
