"""Tests for metric roll-ups and the monetary model."""

import pytest

from repro.cluster.cluster import docker32, galaxy8
from repro.sim.metrics import BatchMetrics, JobMetrics, RoundMetrics
from repro.sim.monetary import MonetaryModel, credit_cost, sweep_cost
from repro.units import OVERLOAD_CUTOFF_SECONDS


def make_round(index=0, seconds=1.0, messages=100.0, memory=1e6):
    return RoundMetrics(
        round_index=index,
        network_messages=messages,
        local_messages=messages / 10,
        bottleneck_bytes=messages * 8,
        compute_ops=messages,
        peak_memory_bytes=memory,
        seconds=seconds,
    )


def make_job(batch_specs, engine="pregel+", machines=8):
    job = JobMetrics(
        engine=engine,
        task="bppr",
        dataset="dblp",
        cluster="galaxy-8",
        num_machines=machines,
        total_workload=sum(w for w, _ in batch_specs),
        batch_sizes=[w for w, _ in batch_specs],
    )
    for i, (workload, rounds) in enumerate(batch_specs):
        batch = BatchMetrics(batch_index=i, workload=workload)
        for r in range(rounds):
            batch.rounds.append(make_round(r))
        job.batches.append(batch)
    return job


class TestRollups:
    def test_batch_seconds_includes_startup(self):
        batch = BatchMetrics(batch_index=0, workload=10)
        batch.rounds.append(make_round(seconds=2.0))
        batch.startup_seconds = 3.0
        assert batch.seconds == 5.0

    def test_overloaded_batch_reports_cutoff(self):
        batch = BatchMetrics(batch_index=0, workload=10, overloaded=True)
        batch.rounds.append(make_round(seconds=2.0))
        assert batch.seconds == OVERLOAD_CUTOFF_SECONDS

    def test_job_aggregates(self):
        job = make_job([(10, 3), (10, 2)])
        assert job.num_batches == 2
        assert job.num_rounds == 5
        assert job.seconds == pytest.approx(5.0)
        assert job.total_messages == pytest.approx(5 * 110.0)
        assert job.messages_per_round == pytest.approx(110.0)

    def test_job_overload_propagates(self):
        job = make_job([(10, 2)])
        job.batches[0].overloaded = True
        assert job.overloaded
        assert job.seconds == OVERLOAD_CUTOFF_SECONDS
        assert job.time_label() == "Overload"

    def test_peak_memory_is_max(self):
        job = make_job([(10, 1)])
        rounds = job.batches[0].rounds
        rounds[0] = rounds[0]._replace(peak_memory_bytes=123.0)
        assert job.peak_memory_bytes == 123.0

    def test_summary_mentions_engine(self):
        job = make_job([(10, 1)])
        assert "pregel+" in job.summary()


class TestMonetary:
    def test_rate_decomposition(self):
        model = MonetaryModel(2.0, 1.0, 0.5)
        assert model.rate_per_machine_hour == 3.5

    def test_job_cost_scales_with_time_and_machines(self):
        model = MonetaryModel(2.0, 1.0, 1.0)
        assert model.job_cost(3600, 10) == pytest.approx(40.0)

    def test_credit_cost_uses_cluster_rate(self):
        cluster = docker32()
        job = make_job([(10, 1)], machines=32)
        rounds = job.batches[0].rounds
        rounds[0] = rounds[0]._replace(seconds=3600.0)
        cost = credit_cost(job, cluster)
        assert cost.credits == pytest.approx(
            cluster.credit_rate_per_machine_hour * 32
        )
        assert not cost.lower_bound

    def test_overloaded_marks_lower_bound(self):
        cluster = docker32()
        job = make_job([(10, 1)], machines=32)
        job.batches[0].overloaded = True
        cost = credit_cost(job, cluster)
        assert cost.lower_bound
        assert cost.label().startswith(">$")

    def test_sweep_cost_sums(self):
        cluster = docker32()
        jobs = [make_job([(10, 1)], machines=32) for _ in range(3)]
        for j in jobs:
            j.batches[0].rounds[0] = make_round(seconds=1800.0)
        total = sweep_cost(jobs, cluster)
        single = credit_cost(jobs[0], cluster)
        assert total.credits == pytest.approx(3 * single.credits)

    def test_local_cluster_uses_default_split(self):
        cluster = galaxy8()
        job = make_job([(10, 1)])
        rounds = job.batches[0].rounds
        rounds[0] = rounds[0]._replace(seconds=3600.0)
        cost = credit_cost(job, cluster)
        assert cost.credits == pytest.approx(
            MonetaryModel().rate_per_machine_hour * 8
        )
