"""Failure-injection and degenerate-input tests.

Production libraries fail loudly and precisely; these tests pin the
behaviour on broken kernels, degenerate graphs and hostile settings.
"""

import math

import numpy as np
import pytest

from repro.batching.executor import MultiProcessingJob
from repro.cluster.cluster import galaxy8
from repro.engines.base import MAX_ROUNDS_PER_BATCH, SimulatedEngine
from repro.engines.registry import ENGINE_NAMES, create_engine, engine_profile
from repro.errors import EngineError, TaskError
from repro.graph.build import from_edge_list, from_edges
from repro.graph.generators import chain, chung_lu, star
from repro.messages.routing import RoutedMessages
from repro.tasks.base import RoundSummary, TaskKernel, TaskSpec, make_task
from repro.tasks.bkhs import bkhs_task
from repro.tasks.bppr import bppr_task
from repro.tasks.mssp import mssp_task


class _NeverendingKernel(TaskKernel):
    """A kernel that never reports done (simulates a task bug)."""

    def _initialise(self, workload):
        pass

    def _advance(self):
        return RoundSummary(
            routed=RoutedMessages(1.0, 1.0, 2.0),
            compute_ops=1.0,
            task_state_bytes=0.0,
            active_vertices=1.0,
            done=False,
        )

    def residual_bytes(self):
        return 0.0

    @property
    def result(self):
        return None


def neverending_task(graph):
    return TaskSpec(
        name="neverending",
        graph=graph,
        workload=10,
        kernel_factory=lambda g, r, w, rng: _NeverendingKernel(g, r),
    )


class TestEngineGuards:
    def test_nonterminating_kernel_raises(self):
        graph = chain(4)
        engine = create_engine("pregel+", galaxy8(scale=400))
        with pytest.raises(EngineError, match="did not terminate"):
            engine.run_job(neverending_task(graph), [10.0], seed=1)

    def test_max_rounds_guard_is_generous(self):
        # The guard must sit far above real task round counts.
        assert MAX_ROUNDS_PER_BATCH >= 1000

    def test_overload_reason_recorded(self):
        graph = chung_lu(1500, 13.0, seed=3)
        engine = create_engine("pregel+", galaxy8(scale=400))
        metrics = engine.run_job(bppr_task(graph, 60000), [60000.0], seed=1)
        assert metrics.overloaded
        reasons = {b.overload_reason for b in metrics.batches}
        assert reasons <= {"memory", "timeout", None}
        assert any(r is not None for r in reasons)

    def test_single_machine_cluster_works(self):
        graph = chung_lu(200, 6.0, seed=5)
        job = MultiProcessingJob(
            "pregel+", galaxy8(scale=400).with_machines(1)
        )
        metrics = job.run(bppr_task(graph, 64), num_batches=2, seed=1)
        assert metrics.network_messages == 0.0
        assert metrics.seconds > 0


class TestDegenerateGraphs:
    def test_edgeless_graph_bppr(self):
        graph = from_edges(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            num_vertices=64,
        )
        job = MultiProcessingJob("pregel+", galaxy8(scale=400))
        # Every walk dies on its dangling start vertex in round 1.
        metrics = job.run(bppr_task(graph, 16), num_batches=1, seed=1)
        assert metrics.num_rounds == 1
        assert metrics.total_messages == 0.0

    def test_edgeless_graph_mssp(self):
        graph = from_edges(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            num_vertices=64,
        )
        job = MultiProcessingJob("pregel+", galaxy8(scale=400))
        metrics = job.run(
            mssp_task(graph, 8, sample_limit=None), num_batches=1, seed=1
        )
        assert not metrics.overloaded

    def test_star_graph_all_engines(self):
        graph = star(300, directed=False)
        for name in ("pregel+", "pregel+(mirror)", "graphd", "graphlab"):
            job = MultiProcessingJob(name, galaxy8(scale=400))
            metrics = job.run(bppr_task(graph, 32), num_batches=2, seed=1)
            assert metrics.seconds > 0, name

    def test_self_loop_heavy_graph(self):
        graph = from_edge_list(
            [(i, i) for i in range(20)] + [(0, 1), (1, 2)],
            num_vertices=20,
        )
        job = MultiProcessingJob("pregel+", galaxy8(scale=400))
        metrics = job.run(bppr_task(graph, 8), num_batches=1, seed=1)
        assert metrics.seconds > 0

    def test_two_vertex_graph_bkhs(self):
        graph = from_edge_list([(0, 1)], num_vertices=2, directed=False)
        job = MultiProcessingJob("pregel+", galaxy8(scale=400))
        metrics = job.run(
            bkhs_task(graph, 2, k=1, sample_limit=None), num_batches=1,
            seed=1,
        )
        assert metrics.num_rounds == 2  # k + 1

    @pytest.mark.parametrize("num_batches", [1, 2])
    @pytest.mark.parametrize("num_vertices", [1, 64])
    @pytest.mark.parametrize("kind", ["bppr", "bppr-query", "mssp", "bkhs"])
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_edgeless_graphs_on_every_engine(
        self, engine, kind, num_vertices, num_batches
    ):
        """No arc to expand, sum or scatter: every kernel's empty-input
        branch, on every engine, still prices a finite job."""
        empty = np.empty(0, dtype=np.int64)
        graph = from_edges(empty, empty, num_vertices=num_vertices)
        job = MultiProcessingJob(engine, galaxy8(scale=400))
        metrics = job.run(
            make_task(kind, graph, 8), num_batches=num_batches, seed=1
        )
        assert math.isfinite(metrics.seconds)


class TestHostileSettings:
    def test_zero_workload_rejected(self):
        graph = chain(4)
        with pytest.raises(TaskError):
            bppr_task(graph, 0)

    def test_negative_batch_rejected(self):
        graph = chung_lu(50, 4.0, seed=2)
        engine = create_engine("pregel+", galaxy8(scale=400))
        from repro.errors import BatchingError

        with pytest.raises(BatchingError):
            engine.run_job(bppr_task(graph, 10), [12.0, -2.0], seed=1)

    def test_profile_is_frozen(self):
        profile = engine_profile("pregel+")
        with pytest.raises(Exception):
            profile.cpu_factor = 99.0  # frozen dataclass

    def test_engine_reuse_across_graphs(self):
        """The per-graph preparation cache must key correctly."""
        engine = create_engine("pregel+", galaxy8(scale=400))
        a = chung_lu(100, 5.0, seed=1)
        b = chung_lu(300, 5.0, seed=2)
        first = engine.run_job(bppr_task(a, 16), [16.0], seed=1)
        second = engine.run_job(bppr_task(b, 16), [16.0], seed=1)
        # The bigger graph moves more messages.
        assert second.total_messages > first.total_messages

    def test_fresh_engine_same_results(self):
        """Engine instances must not leak state across jobs."""
        graph = chung_lu(150, 5.0, seed=9)
        one = create_engine("graphd", galaxy8(scale=400)).run_job(
            bppr_task(graph, 128), [64.0, 64.0], seed=4
        )
        two = create_engine("graphd", galaxy8(scale=400)).run_job(
            bppr_task(graph, 128), [64.0, 64.0], seed=4
        )
        assert one.seconds == two.seconds
        assert one.io_overuse_seconds == two.io_overuse_seconds
