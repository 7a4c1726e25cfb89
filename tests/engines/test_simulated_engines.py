"""Behavioural tests for the simulated VC-system engines."""

import pytest

from repro.batching.executor import MultiProcessingJob
from repro.cluster.cluster import galaxy8
from repro.engines.registry import (
    ENGINE_NAMES,
    create_engine,
    engine_profile,
)
from repro.errors import BatchingError, UnknownEngineError
from repro.graph.datasets import load_dataset
from repro.tasks.bppr import bppr_task
from repro.tasks.mssp import mssp_task


@pytest.fixture(scope="module")
def dblp():
    return load_dataset("dblp", scale=400)


@pytest.fixture(scope="module")
def cluster():
    return galaxy8(scale=400)


class TestRegistry:
    def test_all_seven_paper_modes_plus_extensions(self):
        assert set(ENGINE_NAMES) == {
            "pregel+",
            "pregel+(mirror)",
            "giraph",
            "giraph(async)",
            "giraph(split)",
            "graphd",
            "graphlab",
            "graphlab(async)",
            "pregel+(wholegraph)",
        }

    def test_aliases(self):
        assert engine_profile("GraphLab(sync)").name == "graphlab"
        assert engine_profile("pregelplus").name == "pregel+"
        assert engine_profile("Giraph-Async").name == "giraph(async)"

    def test_unknown_engine(self):
        with pytest.raises(UnknownEngineError):
            engine_profile("spark")

    def test_profiles_reflect_paper_table1(self):
        # Table 1 (systems): synchronous + out-of-core columns.
        assert engine_profile("graphd").out_of_core
        assert not engine_profile("pregel+").out_of_core
        assert engine_profile("graphlab(async)").is_async
        assert not engine_profile("graphlab").is_async
        assert engine_profile("giraph").cpu_factor > engine_profile(
            "pregel+"
        ).cpu_factor


class TestRunJob:
    def test_every_engine_completes_a_small_job(self, dblp, cluster):
        for name in ENGINE_NAMES:
            engine = create_engine(name, cluster)
            metrics = engine.run_job(bppr_task(dblp, 64), [64.0], seed=1)
            assert metrics.engine == name
            assert metrics.num_rounds > 0
            assert metrics.seconds > 0

    def test_batch_sizes_must_sum_to_workload(self, dblp, cluster):
        engine = create_engine("pregel+", cluster)
        with pytest.raises(BatchingError):
            engine.run_job(bppr_task(dblp, 100), [10.0, 10.0], seed=1)

    def test_empty_batches_rejected(self, dblp, cluster):
        engine = create_engine("pregel+", cluster)
        with pytest.raises(BatchingError):
            engine.run_job(bppr_task(dblp, 100), [], seed=1)

    def test_deterministic_given_seed(self, dblp, cluster):
        engine = create_engine("pregel+", cluster)
        a = engine.run_job(bppr_task(dblp, 256), [128.0, 128.0], seed=5)
        b = engine.run_job(bppr_task(dblp, 256), [128.0, 128.0], seed=5)
        assert a.seconds == b.seconds
        assert a.total_messages == b.total_messages

    def test_more_batches_more_rounds(self, dblp, cluster):
        engine = create_engine("pregel+", cluster)
        one = engine.run_job(bppr_task(dblp, 512), [512.0], seed=1)
        four = engine.run_job(
            bppr_task(dblp, 512), [128.0] * 4, seed=1
        )
        assert four.num_rounds > one.num_rounds

    def test_more_batches_less_congestion(self, dblp, cluster):
        engine = create_engine("pregel+", cluster)
        one = engine.run_job(bppr_task(dblp, 2048), [2048.0], seed=1)
        four = engine.run_job(bppr_task(dblp, 2048), [512.0] * 4, seed=1)
        assert four.messages_per_round < one.messages_per_round

    def test_residual_accumulates_across_batches(self, dblp, cluster):
        engine = create_engine("pregel+", cluster)
        metrics = engine.run_job(
            bppr_task(dblp, 300), [100.0] * 3, seed=1
        )
        residuals = [b.residual_memory_after_bytes for b in metrics.batches]
        assert residuals[0] < residuals[1] < residuals[2]
        assert metrics.batches[1].residual_memory_bytes == residuals[0]

    def test_overload_on_huge_workload(self, dblp, cluster):
        engine = create_engine("pregel+", cluster)
        metrics = engine.run_job(
            bppr_task(dblp, 50000), [50000.0], seed=1
        )
        assert metrics.overloaded
        assert metrics.time_label() == "Overload"

    def test_graphd_never_memory_overloads(self, dblp, cluster):
        engine = create_engine("graphd", cluster)
        metrics = engine.run_job(
            bppr_task(dblp, 16384), [16384.0], seed=1
        )
        # GraphD caps memory; it may be slow (or time out) but never
        # reports a *memory* overload.
        reasons = {b.overload_reason for b in metrics.batches}
        assert "memory" not in reasons

    def test_graphd_spills_to_disk(self, dblp, cluster):
        engine = create_engine("graphd", cluster)
        metrics = engine.run_job(bppr_task(dblp, 1024), [1024.0], seed=1)
        assert metrics.batches[0].spilled_bytes > 0

    def test_in_memory_engine_never_spills(self, dblp, cluster):
        engine = create_engine("pregel+", cluster)
        metrics = engine.run_job(bppr_task(dblp, 1024), [1024.0], seed=1)
        assert metrics.batches[0].spilled_bytes == 0

    def test_wholegraph_no_network_traffic(self, dblp, cluster):
        engine = create_engine("pregel+(wholegraph)", cluster)
        metrics = engine.run_job(bppr_task(dblp, 128), [128.0], seed=1)
        assert metrics.network_messages == 0.0
        assert metrics.aggregation_seconds > 0.0

    def test_broadcast_interface_amplifies_same_workload(self, dblp, cluster):
        # Section 3: under the broadcast-only interface "the
        # implementation of a random walk step has to send out more
        # messages than necessary" — at an equal workload the mirror
        # engine moves *more* wire messages than point-to-point Pregel+.
        plain = create_engine("pregel+", cluster).run_job(
            bppr_task(dblp, 512), [512.0], seed=1
        )
        mirrored = create_engine("pregel+(mirror)", cluster).run_job(
            bppr_task(dblp, 512), [512.0], seed=1
        )
        assert mirrored.network_messages > plain.network_messages

    def test_mirror_at_paper_workload_cheaper_than_pregel_at_its_own(
        self, dblp, cluster
    ):
        # The paper pairs Pregel+(mirror) at W=160 with Pregel+ at
        # W=10240 (Figure 2): the mirror setting moves far less traffic.
        # (2 batches so the Pregel+ run completes rather than hitting
        # the overload cutoff with a truncated message count.)
        plain = create_engine("pregel+", cluster).run_job(
            bppr_task(dblp, 10240), [5120.0, 5120.0], seed=1
        )
        mirrored = create_engine("pregel+(mirror)", cluster).run_job(
            bppr_task(dblp, 160), [160.0], seed=1
        )
        assert not plain.overloaded
        assert mirrored.network_messages < plain.network_messages

    def test_giraph_uses_more_memory_than_pregelplus(self, dblp, cluster):
        giraph = create_engine("giraph", cluster).run_job(
            bppr_task(dblp, 512), [512.0], seed=1
        )
        pregel = create_engine("pregel+", cluster).run_job(
            bppr_task(dblp, 512), [512.0], seed=1
        )
        assert giraph.peak_memory_bytes > pregel.peak_memory_bytes

    def test_async_graphlab_sends_more_than_sync(self, dblp, cluster):
        sync = create_engine("graphlab", cluster).run_job(
            bppr_task(dblp, 256), [256.0], seed=1
        )
        async_ = create_engine("graphlab(async)", cluster).run_job(
            bppr_task(dblp, 256), [256.0], seed=1
        )
        assert async_.network_messages > sync.network_messages


class TestMultiProcessingJob:
    def test_run_with_num_batches(self, dblp, cluster):
        job = MultiProcessingJob("pregel+", cluster)
        metrics = job.run(bppr_task(dblp, 100), num_batches=4, seed=1)
        assert metrics.num_batches == 4
        assert metrics.batch_sizes == [25.0, 25.0, 25.0, 25.0]

    def test_run_with_explicit_schedule(self, dblp, cluster):
        job = MultiProcessingJob("pregel+", cluster)
        metrics = job.run(
            bppr_task(dblp, 100), batch_sizes=[60, 30, 10], seed=1
        )
        assert metrics.batch_sizes == [60.0, 30.0, 10.0]

    def test_both_or_neither_rejected(self, dblp, cluster):
        job = MultiProcessingJob("pregel+", cluster)
        with pytest.raises(BatchingError):
            job.run(bppr_task(dblp, 100))
        with pytest.raises(BatchingError):
            job.run(
                bppr_task(dblp, 100), num_batches=2, batch_sizes=[50, 50]
            )

    def test_schedule_must_sum(self, dblp, cluster):
        job = MultiProcessingJob("pregel+", cluster)
        with pytest.raises(BatchingError):
            job.run(bppr_task(dblp, 100), batch_sizes=[10, 10], seed=1)

    def test_sweep_and_best(self, dblp, cluster):
        job = MultiProcessingJob("pregel+", cluster)
        runs = job.sweep_batches(
            mssp_task(dblp, 32, sample_limit=8), batch_counts=(1, 2, 4)
        )
        assert [m.num_batches for m in runs] == [1, 2, 4]
        best = job.best_batch_count(
            mssp_task(dblp, 32, sample_limit=8), batch_counts=(1, 2, 4)
        )
        assert best in (1, 2, 4)

    def test_engine_by_name_needs_cluster(self):
        with pytest.raises(BatchingError):
            MultiProcessingJob("pregel+")


class TestPrepareMemo:
    """``SimulatedEngine._prepare`` memoises by graph *content*. It
    used to key on ``id(task.graph)``; a whole-graph prep keeps no
    reference to its graph, so once that graph was collected a new
    graph could be handed the same id — and the old partition."""

    @pytest.mark.parametrize("engine_name", ["pregel+(wholegraph)", "pregel+"])
    def test_equal_content_shares_and_different_content_never(
        self, cluster, engine_name
    ):
        from repro.graph.generators import erdos_renyi

        engine = create_engine(engine_name, cluster)
        first = erdos_renyi(60, 3.0, seed=1)
        twin = erdos_renyi(60, 3.0, seed=1)
        other = erdos_renyi(90, 3.0, seed=2)
        assert first is not twin
        assert first.fingerprint == twin.fingerprint != other.fingerprint

        prep = engine._prepare(bppr_task(first, 4.0))
        assert engine._prepare(bppr_task(first, 8.0)) is prep
        assert engine._prepare(bppr_task(twin, 4.0)) is prep
        other_prep = engine._prepare(bppr_task(other, 4.0))
        assert other_prep is not prep
        assert other_prep.partition.owner.shape == (other.num_vertices,)
        assert prep.partition.owner.shape == (first.num_vertices,)
        # No key mentions an object identity that could be recycled.
        assert {key[0] for key in engine._prepared} == {
            first.fingerprint,
            other.fingerprint,
        }
        # A different wire message size still gets its own router.
        assert engine._prepare(mssp_task(first, 4.0)) is not prep
