"""Checkpoint/recovery accounting in the simulated engine."""

import dataclasses

import pytest

from repro.batching.executor import MultiProcessingJob
from repro.cluster.cluster import galaxy8
from repro.faults.plan import FaultKind, FaultPlan, mixed_fault_plan
from repro.graph.datasets import load_dataset
from repro.tasks.bppr import bppr_task

WORKLOAD = 1024
BATCHES = 2
SEED = 42


def _job():
    return MultiProcessingJob("pregel+", galaxy8())


def _graph():
    return load_dataset("dblp")


def _crashy_plan():
    return FaultPlan.generate(SEED, 8, crash_rate=0.15)


class TestCheckpointing:
    def test_replay_bounded_by_interval(self):
        plan = _crashy_plan()
        metrics = _job().run(
            bppr_task(_graph(), WORKLOAD),
            num_batches=BATCHES,
            seed=SEED,
            fault_plan=plan,
            checkpoint_every=3,
        )
        assert metrics.crashes > 0
        assert metrics.rounds_replayed <= metrics.crashes * 3
        assert metrics.checkpoints_written > 0
        assert metrics.checkpoint_seconds > 0

    def test_checkpoints_strictly_reduce_time_lost(self):
        plan = _crashy_plan()
        graph = _graph()
        without = _job().run(
            bppr_task(graph, WORKLOAD),
            num_batches=BATCHES,
            seed=SEED,
            fault_plan=plan,
        )
        with_ckpt = _job().run(
            bppr_task(graph, WORKLOAD),
            num_batches=BATCHES,
            seed=SEED,
            fault_plan=plan,
            checkpoint_every=3,
        )
        assert without.crashes == with_ckpt.crashes > 0
        assert with_ckpt.replay_seconds < without.replay_seconds
        assert with_ckpt.time_lost_seconds < without.time_lost_seconds

    def test_zero_faults_checkpointing_is_pure_overhead(self):
        graph = _graph()
        baseline = _job().run(
            bppr_task(graph, WORKLOAD), num_batches=BATCHES, seed=SEED
        )
        ckpt = _job().run(
            bppr_task(graph, WORKLOAD),
            num_batches=BATCHES,
            seed=SEED,
            checkpoint_every=4,
        )
        assert ckpt.crashes == 0 and ckpt.replay_seconds == 0.0
        assert ckpt.checkpoint_seconds > 0
        assert ckpt.seconds == pytest.approx(
            baseline.seconds + ckpt.checkpoint_seconds, rel=1e-9
        )

    def test_faults_do_not_change_algorithm_results(self):
        # Faults cost time but never messages: the underlying vertex
        # program run is identical, so message counts must match.
        plan = mixed_fault_plan(SEED, 8, 0.2)
        graph = _graph()
        clean = _job().run(
            bppr_task(graph, WORKLOAD), num_batches=BATCHES, seed=SEED
        )
        faulty = _job().run(
            bppr_task(graph, WORKLOAD),
            num_batches=BATCHES,
            seed=SEED,
            fault_plan=plan,
            checkpoint_every=4,
        )
        assert faulty.total_messages == clean.total_messages
        assert faulty.num_rounds == clean.num_rounds
        in_horizon = [
            e for e in plan.events if e.round_index < clean.num_rounds
        ]
        non_crash = [e for e in in_horizon if e.kind is not FaultKind.CRASH]
        assert faulty.fault_events == len(non_crash)
        assert faulty.crashes == len(in_horizon) - len(non_crash)
        assert faulty.seconds > clean.seconds

    def test_async_profile_checkpoints_cost_more(self):
        # Chandy-Lamport-style snapshots on the async engine pay the
        # 1.5x factor over a comparable sync barrier flush.
        graph = _graph()
        sync = MultiProcessingJob("giraph", galaxy8()).run(
            bppr_task(graph, WORKLOAD),
            num_batches=BATCHES,
            seed=SEED,
            checkpoint_every=4,
        )
        async_ = MultiProcessingJob("giraph(async)", galaxy8()).run(
            bppr_task(graph, WORKLOAD),
            num_batches=BATCHES,
            seed=SEED,
            checkpoint_every=4,
        )
        assert sync.checkpoints_written > 0
        assert async_.checkpoints_written > 0
        sync_each = sync.checkpoint_seconds / sync.checkpoints_written
        async_each = async_.checkpoint_seconds / async_.checkpoints_written
        assert async_each > sync_each

    def test_fault_log_records_events(self):
        plan = _crashy_plan()
        metrics = _job().run(
            bppr_task(_graph(), WORKLOAD),
            num_batches=BATCHES,
            seed=SEED,
            fault_plan=plan,
            checkpoint_every=3,
        )
        logged = [line for b in metrics.batches for line in b.fault_log]
        assert len(logged) == metrics.fault_events + metrics.crashes
        assert metrics.crashes > 0
        assert any("crash" in line for line in logged)


class TestDeterminism:
    def test_same_plan_seed_byte_identical(self):
        graph = _graph()
        runs = [
            _job().run(
                bppr_task(graph, WORKLOAD),
                num_batches=BATCHES,
                seed=SEED,
                fault_plan=FaultPlan.generate(SEED, 8, crash_rate=0.15),
                checkpoint_every=3,
            )
            for _ in range(2)
        ]
        assert dataclasses.asdict(runs[0]) == dataclasses.asdict(runs[1])
