"""Tests for memory models, the batch planner and the auto-tuner."""

import pytest

from repro.cluster.cluster import galaxy8
from repro.cluster.machine import MachineSpec
from repro.errors import TuningError
from repro.graph.datasets import load_dataset
from repro.tasks.bppr import bppr_task
from repro.tuning.autotuner import AutoTuner
from repro.tuning.memory_model import MemoryCostModel, PowerLawModel
from repro.tuning.planner import plan_batches, validate_schedule
from repro.tuning.trainer import probe_workloads, train_memory_models
from repro.units import MB


@pytest.fixture
def machine():
    return MachineSpec(
        memory_bytes=100 * MB,
        os_reserve_bytes=10 * MB,
        cores=4,
        compute_ops_per_second=1e6,
    )


@pytest.fixture
def linear_model():
    # peak = 10 KB per workload unit + 1 MB; residual = 4 KB per unit.
    return MemoryCostModel(
        peak=PowerLawModel(a=10e3, b=1.0, c=1e6),
        residual=PowerLawModel(a=4e3, b=1.0, c=0.0),
    )


class TestPowerLawModel:
    def test_evaluation(self):
        model = PowerLawModel(a=2.0, b=1.5, c=10.0)
        assert model(4.0) == pytest.approx(2.0 * 8.0 + 10.0)

    def test_invert_round_trip(self):
        model = PowerLawModel(a=2.0, b=1.5, c=10.0)
        for w in (1.0, 5.0, 100.0):
            assert model.invert(model(w)) == pytest.approx(w)

    def test_invert_below_constant_is_zero(self):
        model = PowerLawModel(a=2.0, b=1.0, c=10.0)
        assert model.invert(5.0) == 0.0

    def test_invert_requires_positive_a_b(self):
        with pytest.raises(TuningError):
            PowerLawModel(a=0.0, b=1.0, c=0.0).invert(5.0)

    def test_invert_saturates_for_a_tiny_exponent(self, machine):
        """``(remaining / a) ** 1000`` used to raise a bare
        OverflowError; both callers truncate the answer to units."""
        import sys

        from repro.tuning.planner import IncrementalPlanner

        flat = PowerLawModel(a=1.0, b=1e-3, c=0.0)
        assert flat.invert(5.0) == sys.float_info.max
        assert flat.invert(1.0) == 1.0  # still exact where it is finite
        planner = IncrementalPlanner(
            MemoryCostModel(peak=flat, residual=flat), machine
        )
        assert planner.admissible_workload() == sys.float_info.max
        assert planner.admits(1e12)


class TestPlanner:
    def test_schedule_sums_to_workload(self, linear_model, machine):
        schedule = plan_batches(linear_model, 20000, machine)
        assert sum(schedule) == pytest.approx(20000)

    def test_schedule_decreasing(self, linear_model, machine):
        schedule = plan_batches(linear_model, 20000, machine)
        assert all(a >= b for a, b in zip(schedule, schedule[1:]))
        assert len(schedule) > 1

    def test_light_workload_single_batch(self, linear_model, machine):
        schedule = plan_batches(linear_model, 100, machine)
        assert schedule == [100.0]

    def test_schedule_satisfies_equation_1(self, linear_model, machine):
        schedule = plan_batches(linear_model, 20000, machine)
        assert validate_schedule(schedule, linear_model, machine) is None

    def test_infeasible_budget_raises(self, machine):
        fat_model = MemoryCostModel(
            peak=PowerLawModel(a=1.0, b=1.0, c=1e12),  # constant > memory
            residual=PowerLawModel(a=1.0, b=1.0, c=0.0),
        )
        with pytest.raises(TuningError):
            plan_batches(fat_model, 100, machine)

    def test_invalid_inputs(self, linear_model, machine):
        with pytest.raises(TuningError):
            plan_batches(linear_model, 0, machine)
        with pytest.raises(TuningError):
            plan_batches(linear_model, 10, machine, overload_fraction=0.0)

    def test_validate_flags_violations(self, machine):
        model = MemoryCostModel(
            peak=PowerLawModel(a=1e6, b=1.0, c=0.0),
            residual=PowerLawModel(a=0.0, b=1.0, c=0.0),
        )
        # One batch of 200 units needs 200 MB > 87.5 MB budget.
        assert validate_schedule([200.0], model, machine) == 0


class TestTrainer:
    def test_probe_ladder_below_workload(self):
        ladder = probe_workloads(10240)
        assert ladder == [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]
        assert max(ladder) <= 10240 / 4

    def test_probe_ladder_minimum_points(self):
        assert len(probe_workloads(20)) >= 3

    def test_tiny_workload_rejected(self):
        with pytest.raises(TuningError):
            probe_workloads(4)

    def test_training_fits_positive_models(self):
        graph = load_dataset("dblp", scale=400)
        cluster = galaxy8(scale=400).with_machines(4)
        from repro.engines.registry import create_engine

        engine = create_engine("pregel+", cluster)
        model = train_memory_models(
            engine, lambda w: bppr_task(graph, w), 5120, seed=3
        )
        assert model.peak.a > 0
        assert model.residual.a > 0
        # Peak memory grows ~linearly with BPPR workload.
        assert 0.8 <= model.peak.b <= 1.3


class TestAutoTuner:
    @pytest.fixture(scope="class")
    def tuner(self):
        graph = load_dataset("dblp", scale=400)
        cluster = galaxy8(scale=400).with_machines(4)
        return AutoTuner.for_engine(
            "pregel+", cluster, lambda w: bppr_task(graph, w), seed=3
        )

    def test_training_is_idempotent(self, tuner):
        first = tuner.train(5120)
        second = tuner.train(5120)
        assert first is second

    def test_plan_sums_and_decreases(self, tuner):
        schedule = tuner.plan(6656)
        assert sum(schedule) == pytest.approx(6656)
        assert all(a >= b for a, b in zip(schedule, schedule[1:]))

    def test_heavy_workload_multi_batch(self, tuner):
        assert len(tuner.plan(6656)) >= 2

    def test_infeasible_total_workload_raises(self, tuner):
        # BPPR keeps every walk's endpoint resident, so on 4 machines a
        # big enough *total* workload violates Equation 1 no matter how
        # it is batched — the planner must say so rather than emit a
        # schedule that will overload.
        with pytest.raises(TuningError, match="infeasible"):
            tuner.plan(16384)

    def test_optimized_not_worse_than_full_parallelism(self, tuner):
        report = tuner.run(6656)
        if report.full_parallelism.overloaded:
            assert not report.optimized.overloaded
        else:
            assert (
                report.optimized.seconds
                <= report.full_parallelism.seconds * 1.05
            )

    def test_report_summary_format(self, tuner):
        report = tuner.run(5120)
        text = report.summary()
        assert "Optimized" in text and "Full-Parallelism" in text
