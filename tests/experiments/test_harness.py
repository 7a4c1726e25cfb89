"""Tests for the experiment harness (quick mode keeps these fast)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.base import (
    ExperimentConfig,
    ExperimentResult,
    format_table,
)
from repro.experiments.common import (
    full_parallelism_suboptimal,
    non_monotone,
    optimum_batches,
)
from repro.experiments.runner import (
    EXPERIMENTS,
    list_experiments,
    run_experiment,
)
from repro.sim.metrics import BatchMetrics, JobMetrics, RoundMetrics


def fake_run(batches, seconds, overloaded=False):
    job = JobMetrics(
        engine="pregel+",
        task="bppr",
        dataset="dblp",
        cluster="galaxy-8",
        num_machines=8,
        total_workload=100,
        batch_sizes=[100.0 / batches] * batches,
    )
    for i in range(batches):
        batch = BatchMetrics(batch_index=i, workload=100.0 / batches)
        batch.rounds.append(
            RoundMetrics(
                round_index=0,
                network_messages=10,
                local_messages=1,
                bottleneck_bytes=80,
                compute_ops=10,
                peak_memory_bytes=1e6,
                seconds=seconds / batches,
            )
        )
        batch.overloaded = overloaded
        job.batches.append(batch)
    return job


class TestHelpers:
    def test_non_monotone_detection(self):
        runs = [fake_run(1, 100), fake_run(2, 50), fake_run(4, 80)]
        assert non_monotone(runs)
        runs = [fake_run(1, 10), fake_run(2, 20), fake_run(4, 30)]
        assert not non_monotone(runs)

    def test_full_parallelism_suboptimal(self):
        runs = [fake_run(1, 100), fake_run(2, 50)]
        assert full_parallelism_suboptimal(runs)
        runs = [fake_run(1, 10), fake_run(2, 50)]
        assert not full_parallelism_suboptimal(runs)
        runs = [fake_run(1, 10, overloaded=True), fake_run(2, 50)]
        assert full_parallelism_suboptimal(runs)

    def test_optimum_batches(self):
        runs = [
            fake_run(1, 100, overloaded=True),
            fake_run(2, 50),
            fake_run(4, 70),
        ]
        assert optimum_batches(runs) == 2
        assert optimum_batches([fake_run(1, 1, overloaded=True)]) is None


class TestResultRendering:
    @pytest.fixture
    def result(self):
        res = ExperimentResult(
            experiment_id="figX",
            title="Test",
            columns=["a", "b"],
            paper_summary="things happen",
        )
        res.add_row(a=1, b="x")
        res.add_row(a=2.5, b="y")
        res.claim("claim one", True)
        res.claim("claim two", False)
        return res

    def test_text_rendering(self, result):
        text = result.to_text()
        assert "figX" in text
        assert "[HOLDS] claim one" in text
        assert "[DIFFERS] claim two" in text

    def test_markdown_rendering(self, result):
        md = result.to_markdown()
        assert "| a | b |" in md
        assert "claim two" in md

    def test_claim_counters(self, result):
        assert result.claims_held == 1
        assert not result.all_claims_hold()

    def test_format_table_alignment(self):
        table = format_table(
            ["col", "value"], [{"col": "x", "value": 1}]
        )
        lines = table.splitlines()
        assert lines[0].startswith("col")
        assert len(lines) == 3


class TestRunner:
    def test_registry_covers_paper(self):
        assert set(list_experiments()) == {
            "fig2",
            "fig3",
            "fig4",
            "fig6",
            "table2",
            "table3",
            "fig5",
            "fig7",
            "fig8",
            "fig9",
            "table4",
            "fig10",
            "fig11",
            "fig12",
            "faults",
            "ablations",
            "throughput",
        }

    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            run_experiment("fig99")

    def test_experiments_run_in_one_process(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(jobs=2)

    @pytest.mark.parametrize(
        "eid", ["fig2", "fig4", "fig6", "table2", "fig9", "table4"]
    )
    def test_quick_mode_runs(self, eid):
        config = ExperimentConfig(quick=True)
        result = run_experiment(eid, config)
        assert result.experiment_id == eid
        assert result.rows

    def test_quick_fig12(self):
        result = run_experiment("fig12", ExperimentConfig(quick=True))
        assert result.claims[
            "planned schedules decrease monotonically (residual memory)"
        ]


class TestFullExperimentsHoldClaims:
    """The calibration anchors at full fidelity (slower, still < 30 s)."""

    def test_fig4_optima_match_paper(self):
        result = run_experiment("fig4")
        assert result.all_claims_hold(), result.claims
        by_workload = {row["workload"]: row for row in result.rows}
        assert by_workload[1024]["optimum"] == 1
        assert by_workload[10240]["optimum"] == 2
        assert by_workload[12288]["optimum"] == 4

    def test_fig6_congestion_shape(self):
        result = run_experiment("fig6")
        assert result.all_claims_hold(), result.claims

    def test_table2_memory_shape(self):
        result = run_experiment("table2")
        assert result.all_claims_hold(), result.claims

    def test_table3_disk_shape(self):
        result = run_experiment("table3")
        assert result.all_claims_hold(), result.claims
