"""Tests for the scheduler service loop (repro.sched.service).

The load-bearing assertion is byte-identity of the degenerate
schedule: one pre-queued request, a single kind, and the same seed
must reproduce the legacy offline runner's ``JobMetrics`` down to the
serialized bytes (``pack_job``), proving the refactor changed the
architecture and not the simulation.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cluster.cluster import cluster_by_name
from repro.engines.registry import create_engine
from repro.errors import SchedulingError
from repro.graph.datasets import load_dataset
from repro.perf import kernel_pool
from repro.perf.cache import clear_cache
from repro.sched.arrivals import TaskRequest, generate_arrivals
from repro.sched.policy import ServicePolicy
from repro.sched.service import SchedulerService, run_degenerate
from repro.sim.metrics import JobMetrics, pack_job
from repro.tasks.base import make_task

SCALE = 400
#: Overload fraction small enough that 4096 BPPR walks need a
#: multi-batch, front-loaded schedule at this scale.
FRACTION = 0.25
WORKLOAD = 4096.0


@pytest.fixture(scope="module")
def graph():
    return load_dataset("dblp", scale=SCALE)


@pytest.fixture(scope="module")
def engine():
    return create_engine("pregel+", cluster_by_name("galaxy-8", scale=SCALE))


def run_stream(engine, graph, rate=0.6, duration=20, seed=21, **kwargs):
    """One seeded single-kind stream through a fresh service."""
    service = SchedulerService(
        engine,
        graph,
        kinds=("bppr",),
        seed=seed,
        record_rounds=True,
        **kwargs,
    )
    requests = generate_arrivals(
        rate, duration, seed=seed, kinds=("bppr",), units_range=(8, 64)
    )
    return service, service.run(requests, arrival_rate=rate)


class TestDegenerateByteIdentity:
    def test_matches_offline_runner(self, engine, graph):
        schedule, job = run_degenerate(
            engine,
            lambda w: make_task("bppr", graph, w),
            WORKLOAD,
            seed=7,
            overload_fraction=FRACTION,
        )
        assert len(schedule) > 1, "need a multi-batch schedule to compare"
        assert schedule == sorted(schedule, reverse=True)

        service = SchedulerService(
            engine,
            graph,
            kinds=("bppr",),
            seed=7,
            overload_fraction=FRACTION,
            reference_workload=WORKLOAD,
        )
        metrics = service.run([TaskRequest(0, "bppr", WORKLOAD, 0.0)])
        batches = [batch for _, batch in service.executed_batches]
        assert [batch.workload for batch in batches] == schedule
        assert metrics.flushes == 0

        # Reassemble the offline JobMetrics from the service's raw
        # batches and session state, then compare serialized bytes.
        session = service.sessions["bppr"]
        rebuilt = JobMetrics(
            engine=engine.name,
            task="bppr",
            dataset=graph.name,
            cluster=engine.cluster.name,
            num_machines=engine.cluster.num_machines,
            total_workload=WORKLOAD,
            batch_sizes=[batch.workload for batch in batches],
        )
        rebuilt.batches.extend(batches)
        rebuilt.aggregation_seconds = engine._aggregation_seconds(
            session.task, session.residual_bytes
        )
        rebuilt.extras.update(session.cost_model.overuse_totals())
        rebuilt.extras["residual_memory_bytes"] = session.residual_bytes
        ours, theirs = pack_job(rebuilt), pack_job(job)
        assert ours.keys() == theirs.keys()
        for key in ours:
            assert np.array_equal(ours[key], theirs[key]), key


class TestServiceRuns:
    def test_seeded_stream_is_deterministic(self, engine, graph):
        _, first = run_stream(engine, graph)
        _, second = run_stream(engine, graph)
        assert json.dumps(
            first.to_dict(include_latencies=True), sort_keys=True
        ) == json.dumps(second.to_dict(include_latencies=True), sort_keys=True)

    def test_queue_drains_and_latencies_are_complete(self, engine, graph):
        requests = generate_arrivals(
            0.6, 20, seed=21, kinds=("bppr",), units_range=(8, 64)
        )
        service, metrics = run_stream(engine, graph)
        assert metrics.completed_tasks == len(requests)
        assert metrics.completed_units == sum(r.units for r in requests)
        for latency in metrics.latencies:
            assert (
                latency.arrival_seconds
                <= latency.start_seconds
                <= latency.finish_seconds
            )
        percentiles = metrics.latency_percentiles()
        assert percentiles["p50_seconds"] <= percentiles["p99_seconds"]

    def test_admission_invariant_on_batch_log(self, engine, graph):
        _, metrics = run_stream(
            engine, graph, rate=1.2, duration=30, overload_fraction=FRACTION
        )
        assert metrics.batch_log
        for entry in metrics.batch_log:
            if not entry["aborted"]:
                assert entry["projected_bytes"] <= entry["budget_bytes"] * (
                    1 + 1e-9
                )

    def test_backpressure_flushes_under_tight_budget(self, engine, graph):
        service = SchedulerService(
            engine,
            graph,
            kinds=("bppr",),
            seed=3,
            overload_fraction=FRACTION,
            reference_workload=WORKLOAD,
        )
        requests = [
            TaskRequest(0, "bppr", WORKLOAD, 0.0),
            TaskRequest(1, "bppr", WORKLOAD, 0.0),
        ]
        metrics = service.run(requests)
        assert metrics.flushes >= 1
        # pregel+ prices aggregation at zero (point-to-point results);
        # the flush still resets the admission budget.
        assert metrics.flush_seconds >= 0
        assert metrics.completed_tasks == 2

    def test_mixed_kinds_share_one_budget(self, engine, graph):
        service = SchedulerService(
            engine,
            graph,
            kinds=("bppr", "mssp"),
            seed=5,
            task_params={"mssp": {"sample_limit": 8}},
        )
        requests = generate_arrivals(
            0.5, 16, seed=5, kinds=("bppr", "mssp"), units_range=(4, 16)
        )
        metrics = service.run(requests)
        assert metrics.completed_tasks == len(requests)
        kinds_run = {entry["kind"] for entry in metrics.batch_log}
        assert kinds_run == {"bppr", "mssp"}

    def test_requires_at_least_one_kind(self, engine, graph):
        with pytest.raises(SchedulingError):
            SchedulerService(engine, graph, kinds=())


class TestKernelPoolInvariance:
    """Serving under the kernel pool: the sharded kernel rounds change
    where work runs, never a scheduling decision or a reported byte —
    across suspends and resumes too."""

    @pytest.fixture(autouse=True)
    def _fresh_pool(self):
        kernel_pool.reset_kernel_pool()
        yield
        kernel_pool.reset_kernel_pool()

    def _preempting_stream(self, engine, graph):
        clear_cache()
        service = SchedulerService(
            engine,
            graph,
            kinds=("bppr", "bkhs"),
            seed=21,
            record_rounds=True,
            policy=ServicePolicy(
                priority_classes=3,
                aging_seconds=None,
                preempt=True,
                preempt_rule="eager",
            ),
            task_params={"bkhs": {"sample_limit": 16}},
        )
        # Big patient BKHS batches that urgent BPPR requests suspend
        # mid-flight, so suspended state crosses pooled rounds.
        requests = [
            TaskRequest(0, "bkhs", 96.0, 0.0, priority=2),
            TaskRequest(1, "bppr", 8.0, 0.5, priority=0),
            TaskRequest(2, "bkhs", 64.0, 1.0, priority=1),
            TaskRequest(3, "bppr", 16.0, 2.0, priority=0),
        ]
        metrics = service.run(requests)
        return json.dumps(
            metrics.to_dict(include_latencies=True), sort_keys=True
        ), metrics.preemptions

    def test_pooled_serve_matches_serial_byte_for_byte(self, engine, graph):
        serial, preemptions = self._preempting_stream(engine, graph)
        assert preemptions > 0, "no batch was suspended; stream too tame"
        # Force the crossover down so the small test graph shards.
        kernel_pool.configure_kernel_workers(3, min_shard_candidates=1)
        pooled, _ = self._preempting_stream(engine, graph)
        dispatches = kernel_pool.kernel_pool_stats()["sharded_dispatches"]
        assert dispatches > 0, "sharded kernels never ran; test is vacuous"
        assert pooled == serial


class TestStreamingCapAdmission:
    """``--max-ram`` in the serve path: mapped-graph deployments admit
    batches against the streaming budget, so an over-RAM request is
    split across admissions instead of allocating dense kernel state
    past the budget."""

    @pytest.fixture(autouse=True)
    def _restore_streaming(self):
        from repro.graph.csr import configure_streaming

        yield
        configure_streaming(None)

    def test_over_ram_batch_is_split_not_oom(self, engine, graph):
        from repro.graph.csr import configure_streaming
        from repro.sched.service import STREAMING_STATE_BYTES_PER_VERTEX

        cap_units = 6
        per_unit = graph.num_vertices * STREAMING_STATE_BYTES_PER_VERTEX
        configure_streaming(int(cap_units * per_unit))
        service = SchedulerService(engine, graph, kinds=("bppr",), seed=5)
        metrics = service.run([TaskRequest(0, "bppr", 40.0, 0.0)])

        assert metrics.completed_units == 40.0
        assert len(metrics.batch_log) >= 40 / cap_units
        assert all(
            entry["workload"] <= cap_units for entry in metrics.batch_log
        )

    def test_no_budget_means_no_cap(self, engine, graph):
        service = SchedulerService(engine, graph, kinds=("bppr",), seed=5)
        assert service._streaming_unit_cap() is None
