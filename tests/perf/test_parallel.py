"""Parallel fan-out: determinism vs the serial loop, fallback, jobs."""

import dataclasses
import functools

import pytest

from repro.cluster.cluster import galaxy8
from repro.experiments.base import ExperimentConfig
from repro.experiments.common import sweep_batches, task_for
from repro.experiments.runner import run_experiment
from repro.graph.datasets import load_dataset
from repro.perf import parallel
from repro.perf.parallel import parallel_map, parallel_map_fork, resolve_jobs

#: Small stand-in scale for fast sweeps.
SCALE = 4000


def _square(x):
    """Module-level (picklable) worker for ``parallel_map``."""
    return x * x


class TestResolveJobs:
    def test_values(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1  # cpu count

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestMemoryBudgetedWorkers:
    """``--jobs 0``: the usable CPUs, capped by MemTotal / 512 MiB."""

    BUDGET = parallel.WORKER_MEMORY_BYTES

    @pytest.fixture(autouse=True)
    def _four_cpus(self, monkeypatch):
        monkeypatch.setattr(
            parallel.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
            raising=False,
        )

    def meminfo(self, tmp_path, total_bytes):
        path = tmp_path / "meminfo"
        path.write_text(
            f"MemTotal:       {total_bytes // 1024} kB\n"
            "MemFree:         1024 kB\n"
        )
        return str(path)

    def test_memory_caps_workers(self, tmp_path):
        # 4 CPUs but DRAM for 2 workers.
        path = self.meminfo(tmp_path, 2 * self.BUDGET)
        assert parallel.budgeted_worker_count(path) == 2

    def test_cpus_cap_workers(self, tmp_path):
        path = self.meminfo(tmp_path, 8 * self.BUDGET)
        assert parallel.budgeted_worker_count(path) == 4

    def test_unknown_memory_caps_by_cpus_alone(self, tmp_path):
        missing = str(tmp_path / "no-meminfo")
        assert parallel.budgeted_worker_count(missing) == 4
        garbled = tmp_path / "garbled"
        garbled.write_text("MemTotal: lots kB\n")
        assert parallel.budgeted_worker_count(str(garbled)) == 4

    def test_never_returns_zero(self, tmp_path):
        path = self.meminfo(tmp_path, self.BUDGET // 2)
        assert parallel.budgeted_worker_count(path) == 1

    def test_without_affinity_counts_cpus(self, tmp_path, monkeypatch):
        monkeypatch.delattr(parallel.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 3)
        path = self.meminfo(tmp_path, 8 * self.BUDGET)
        assert parallel.budgeted_worker_count(path) == 3

    def test_resolve_jobs_zero_consults_budget(self, tmp_path, monkeypatch):
        path = self.meminfo(tmp_path, 2 * self.BUDGET)
        monkeypatch.setattr(
            parallel,
            "budgeted_worker_count",
            functools.partial(parallel.budgeted_worker_count, path),
        )
        assert resolve_jobs(0) == 2
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3


class TestParallelMap:
    def test_preserves_order(self):
        args = [(i,) for i in range(7)]
        assert parallel_map(_square, args, jobs=2) == [
            i * i for i in range(7)
        ]

    def test_serial_path(self):
        args = [(i,) for i in range(4)]
        assert parallel_map(_square, args, jobs=1) == [0, 1, 4, 9]

    def test_fork_closures(self):
        base = 10
        result = parallel_map_fork(lambda i: base + i, 5, jobs=2)
        assert result == [10, 11, 12, 13, 14]

    def test_unpicklable_falls_back_to_serial(self):
        # Lambdas cannot cross a spawn/pickle boundary; parallel_map
        # must still produce the right answer via the serial loop (and
        # warn, rather than silently degrade — see test_parallel_faults).
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            result = parallel_map(lambda x: x + 1, [(1,), (2,)], jobs=2)
        assert result == [2, 3]


class TestSweepDeterminism:
    def test_sweep_batches_parallel_identical(self):
        graph = load_dataset("web-st", scale=SCALE)
        cluster = galaxy8(scale=SCALE)
        factory = lambda: task_for(graph, "bppr", 64.0, quick=True)
        serial = sweep_batches(
            "pregel+", cluster, factory, [1, 2, 4], seed=7
        )
        fanned = sweep_batches(
            "pregel+", cluster, factory, [1, 2, 4], seed=7, jobs=2
        )
        assert [dataclasses.asdict(m) for m in serial] == [
            dataclasses.asdict(m) for m in fanned
        ]

    def test_experiment_parallel_identical(self):
        serial = run_experiment(
            "fig8", ExperimentConfig(quick=True, scale=SCALE, jobs=1)
        )
        fanned = run_experiment(
            "fig8", ExperimentConfig(quick=True, scale=SCALE, jobs=2)
        )
        assert serial.to_markdown() == fanned.to_markdown()
