"""Tests for the query-based BPPR task (Section 4.9's alternative
workload setting)."""

import numpy as np
import pytest

from repro.graph.generators import chung_lu
from repro.graph.mirrors import build_mirror_plan
from repro.graph.partition import hash_partition
from repro.messages.routing import PointToPointRouter
from repro.rng import make_rng
from repro.tasks.base import make_task
from repro.tasks.bppr_query import BPPRQueryKernel, bppr_query_task


@pytest.fixture
def graph():
    return chung_lu(80, avg_degree=5.0, seed=23)


@pytest.fixture
def router(graph):
    partition = hash_partition(graph, 4)
    plan = build_mirror_plan(graph, partition)
    return PointToPointRouter(graph, plan, message_bytes=8.0)


def run_kernel(kernel, workload):
    kernel.start_batch(workload)
    for _ in range(100_000):
        if kernel.step().done:
            break
    return kernel


class TestQueryKernel:
    def test_initial_mass_only_at_sources(self, graph, router):
        kernel = BPPRQueryKernel(
            graph, router, make_rng(3), walks_per_query=100,
            sample_limit=None,
        )
        kernel.start_batch(5)
        seeded = np.flatnonzero(kernel._stopped_vec + kernel._mass_vec)
        assert set(seeded.tolist()) <= set(
            kernel.sources.tolist()
        ) | set(graph.indices.tolist())

    def test_total_mass_matches_queries(self, graph, router):
        kernel = BPPRQueryKernel(
            graph, router, make_rng(3), walks_per_query=100,
            sample_limit=None,
        )
        kernel.start_batch(5)
        total = float(kernel._mass_vec.sum())
        assert total == pytest.approx(500.0)

    def test_sampling_preserves_total_mass(self, graph, router):
        kernel = BPPRQueryKernel(
            graph, router, make_rng(3), walks_per_query=100, sample_limit=8
        )
        kernel.start_batch(64)
        assert float(kernel._mass_vec.sum()) == pytest.approx(6400.0)

    def test_all_walks_terminate(self, graph, router):
        kernel = BPPRQueryKernel(
            graph, router, make_rng(3), walks_per_query=50,
            sample_limit=None,
        )
        run_kernel(kernel, 10)
        assert kernel.residual_bytes() == pytest.approx(
            10 * 50 * 12.0, rel=0.02
        )

    def test_lighter_than_full_bppr(self, graph, router):
        """A few queries cost far fewer messages than whole-graph BPPR."""
        from repro.tasks.bppr import BPPRKernel

        query = BPPRQueryKernel(
            graph, router, make_rng(3), walks_per_query=100,
            sample_limit=None,
        )
        query.start_batch(4)
        full = BPPRKernel(graph, router, make_rng(3))
        full.start_batch(100.0)
        assert query.step().wire_messages < full.step().wire_messages


class TestQueryTaskSpec:
    def test_factory_via_make_task(self, graph):
        task = make_task("bppr-query", graph, 32, walks_per_query=500)
        assert task.name == "bppr-query"
        assert task.params["walks_per_query"] == 500

    def test_runs_through_an_engine(self, graph):
        from repro.batching.executor import MultiProcessingJob
        from repro.cluster.cluster import galaxy8

        job = MultiProcessingJob("pregel+", galaxy8(scale=400))
        task = bppr_query_task(graph, 64, walks_per_query=200, sample_limit=16)
        metrics = job.run(task, num_batches=4, seed=2)
        assert metrics.num_batches == 4
        assert metrics.total_messages > 0
        assert not metrics.overloaded

    def test_batching_reduces_congestion(self, graph):
        from repro.batching.executor import MultiProcessingJob
        from repro.cluster.cluster import galaxy8

        job = MultiProcessingJob("pregel+", galaxy8(scale=400))

        def fresh():
            return bppr_query_task(
                graph, 64, walks_per_query=200, sample_limit=16
            )

        one = job.run(fresh(), num_batches=1, seed=2)
        four = job.run(fresh(), num_batches=4, seed=2)
        assert four.messages_per_round < one.messages_per_round


class TestMultiBatchBytes:
    """Every batch of a ``bppr-query`` job samples its own sources from
    the session RNG. Nothing else in the suite fails if the batches are
    collapsed into copies of the first one (the kernel inherits
    BPPR's deterministic expected-mass mode), so the packed bytes are
    pinned here — digests from commit ``c154351``."""

    SPLITS = {
        "w64-b4": [16.0] * 4,
        "w66-b4": [17.0, 17.0, 16.0, 16.0],
    }
    #: blake2b-8 of ``pack_job(job)["payload"]``.
    PINNED = {
        "pregel+/w64-b4": "90c157650a69f24e",
        "pregel+/w66-b4": "60a7b68c9dbacb5a",
        "pregel+(mirror)/w64-b4": "a1554cd414909eae",
        "pregel+(mirror)/w66-b4": "0cf70b14e6b5a2be",
        "graphlab/w64-b4": "f7fd61fa936b6365",
        "graphlab/w66-b4": "fac2bd26816cc341",
    }

    @staticmethod
    def _job(graph, engine_name, sizes, task=None):
        from repro.cluster.cluster import galaxy8
        from repro.engines.registry import create_engine
        from repro.perf.cache import clear_cache

        clear_cache()
        task = task or bppr_query_task(
            graph, sum(sizes), walks_per_query=200, sample_limit=16
        )
        engine = create_engine(engine_name, galaxy8(scale=400))
        return engine.run_job(task, sizes, seed=2)

    @pytest.mark.parametrize(
        "engine_name", ["pregel+", "pregel+(mirror)", "graphlab"]
    )
    def test_packed_bytes_match_pinned_digests(self, graph, engine_name):
        import hashlib

        from repro.sim.metrics import pack_job

        for split, sizes in self.SPLITS.items():
            job = self._job(graph, engine_name, sizes)
            payload = bytes(pack_job(job)["payload"])
            digest = hashlib.blake2b(payload, digest_size=8).hexdigest()
            assert digest == self.PINNED[f"{engine_name}/{split}"], (
                engine_name, split,
            )

    def test_each_batch_samples_its_own_sources(self, graph):
        import dataclasses

        kernels = []
        task = bppr_query_task(graph, 64, walks_per_query=200, sample_limit=16)
        factory = task.kernel_factory

        def remembering(*args):
            kernels.append(factory(*args))
            return kernels[-1]

        task = dataclasses.replace(task, kernel_factory=remembering)
        self._job(graph, "pregel+", [16.0] * 4, task=task)
        sources = [tuple(k.sources.tolist()) for k in kernels]
        assert len(sources) == 4 and len(set(sources)) == 4
        assert all(k.replay_key() is None for k in kernels)
