"""Tests for the honest message-passing Pregel engine and its programs."""

import math

import numpy as np
import pytest

from repro.engines.reference import LocalPregelEngine
from repro.errors import EngineError
from repro.graph.generators import chain, chung_lu, grid_2d
from repro.tasks.exact import (
    bfs_distances,
    exact_pagerank,
    exact_ppr_matrix,
    k_hop_set,
    shortest_path_distances,
)
from repro.tasks.vc_programs import (
    KHopProgram,
    MSSPProgram,
    PageRankProgram,
    RandomWalkPPRProgram,
    SSSPProgram,
    ppr_estimates_from_values,
)


class TestSSSP:
    def test_chain(self):
        graph = chain(8, directed=False)
        run = LocalPregelEngine(graph).run(SSSPProgram(source=0))
        assert run.values == [float(i) for i in range(8)]

    def test_matches_reference_on_random_graph(self):
        graph = chung_lu(80, 5.0, seed=41)
        run = LocalPregelEngine(graph).run(SSSPProgram(source=3))
        expected = shortest_path_distances(graph, 3)
        for v in range(80):
            if math.isinf(expected[v]):
                assert math.isinf(run.values[v])
            else:
                assert run.values[v] == expected[v]

    def test_combiner_reduces_messages(self):
        graph = chung_lu(80, 5.0, seed=41)
        run = LocalPregelEngine(graph).run(SSSPProgram(source=3))
        for stats in run.stats:
            assert stats.messages_after_combining <= stats.messages_sent

    def test_terminates_via_vote_to_halt(self):
        graph = grid_2d(4, 4, directed=False)
        run = LocalPregelEngine(graph).run(SSSPProgram(source=0))
        # eccentricity of a corner in a 4x4 grid is 6; +extra rounds for
        # the final no-improvement wave.
        assert run.supersteps <= 10


class TestMSSPProgram:
    def test_multi_source_distances(self):
        graph = chung_lu(60, 5.0, seed=42)
        sources = [0, 7, 23]
        run = LocalPregelEngine(graph).run(MSSPProgram(sources))
        for source in sources:
            expected = bfs_distances(graph, source)
            for v in range(60):
                got = run.values[v].get(source, math.inf)
                assert got == expected[v] or (
                    math.isinf(got) and math.isinf(expected[v])
                )


class TestKHop:
    def test_matches_bruteforce(self):
        graph = chung_lu(60, 5.0, seed=43)
        sources = [1, 5]
        k = 2
        run = LocalPregelEngine(graph).run(KHopProgram(sources, k))
        for source in sources:
            expected = k_hop_set(graph, source, k)
            for v in range(60):
                assert (source in run.values[v]) == bool(expected[v])

    def test_round_budget(self):
        graph = chung_lu(60, 5.0, seed=43)
        run = LocalPregelEngine(graph).run(KHopProgram([0], 2))
        assert run.supersteps <= 2 + 2


class TestPageRankProgram:
    def test_matches_exact(self):
        graph = chung_lu(50, 5.0, seed=44)
        run = LocalPregelEngine(graph).run(
            PageRankProgram(iterations=60)
        )
        expected = exact_pagerank(graph)
        dangling = (np.diff(graph.indptr) == 0).any()
        # The VC program drops dangling mass (standard Pregel PageRank);
        # compare loosely when danglings exist, tightly otherwise.
        tolerance = 0.02 if dangling else 1e-6
        np.testing.assert_allclose(
            np.asarray(run.values) / sum(run.values),
            expected,
            atol=tolerance,
        )


class TestRandomWalkProgram:
    def test_estimates_close_to_exact(self):
        graph = chung_lu(30, 4.0, seed=45)
        program = RandomWalkPPRProgram(walks_per_node=300, seed=9)
        run = LocalPregelEngine(graph).run(program)
        estimates = ppr_estimates_from_values(run.values, graph, 300)
        exact = exact_ppr_matrix(graph)
        # Row-wise total variation below a statistical threshold.
        tv = 0.5 * np.abs(estimates - exact).sum(axis=1)
        assert tv.mean() < 0.15

    def test_walk_conservation(self):
        graph = chung_lu(30, 4.0, seed=45)
        program = RandomWalkPPRProgram(walks_per_node=50, seed=9)
        run = LocalPregelEngine(graph).run(program)
        total_stops = sum(
            count for value in run.values for count in value.values()
        )
        assert total_stops == 50 * 30


class TestEngineMechanics:
    def test_send_out_of_range_rejected(self):
        from repro.engines.reference import VertexContext

        graph = chain(3)
        ctx = VertexContext(vertex_id=0, superstep=0, graph=graph)
        with pytest.raises(EngineError):
            ctx.send(99, "boom")

    def test_nonconverging_program_raises(self):
        graph = chain(3, directed=False)

        class Chatter(SSSPProgram):
            def compute(self, ctx, messages):
                ctx.send_to_neighbors("ping")  # never halts

        with pytest.raises(EngineError):
            LocalPregelEngine(graph, max_supersteps=10).run(Chatter(0))

    def test_initial_active_restriction(self):
        graph = chain(5, directed=True)
        run = LocalPregelEngine(graph).run(
            SSSPProgram(source=2), initial_active=[2]
        )
        assert run.values[2] == 0.0
        assert run.values[4] == 2.0
        assert math.isinf(run.values[0])

    def test_aggregates_recorded(self):
        graph = chain(4, directed=False)

        class Counting(SSSPProgram):
            def compute(self, ctx, messages):
                ctx.aggregate("active", 1)
                super().compute(ctx, messages)

        run = LocalPregelEngine(graph).run(Counting(0))
        assert run.aggregates_history[0]["active"] == 4
