"""End-to-end auto-tuner: train → fit → plan → execute (Section 5).

:class:`AutoTuner` bundles the pipeline for one (engine, cluster, task
family) and produces a :class:`TuningReport` comparing the Optimized
schedule against Full-Parallelism — the comparison Figure 12 plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cluster.cluster import ClusterSpec
from repro.engines.base import SimulatedEngine
from repro.engines.registry import create_engine
from repro.rng import SeedLike
from repro.sim.metrics import JobMetrics
from repro.tuning.calibrate import Calibrator
from repro.tuning.memory_model import MemoryCostModel
from repro.tuning.planner import DEFAULT_OVERLOAD_FRACTION, plan_batches
from repro.tuning.trainer import TaskFactory


@dataclass
class TuningReport:
    """Everything one tuned run produced."""

    workload: float
    schedule: List[float]
    optimized: JobMetrics
    full_parallelism: JobMetrics
    model: MemoryCostModel

    @property
    def speedup(self) -> float:
        """Full-Parallelism time over Optimized time (>1 = tuning wins)."""
        if self.optimized.seconds == 0:
            return float("inf")
        return self.full_parallelism.seconds / self.optimized.seconds

    def summary(self) -> str:
        """One-line Optimized-vs-Full-Parallelism comparison."""
        sched = ", ".join(f"{w:.0f}" for w in self.schedule)
        return (
            f"W={self.workload:g}: Optimized [{sched}] -> "
            f"{self.optimized.time_label()} vs Full-Parallelism "
            f"{self.full_parallelism.time_label()} "
            f"(speedup {self.speedup:.2f}x)"
        )


@dataclass
class AutoTuner:
    """Train once, plan and run many workloads (the training is
    "affordable because it is done only once")."""

    engine: SimulatedEngine
    task_factory: TaskFactory
    overload_fraction: float = DEFAULT_OVERLOAD_FRACTION
    seed: SeedLike = None
    _model: Optional[MemoryCostModel] = field(default=None, repr=False)

    @classmethod
    def for_engine(
        cls,
        engine_name: str,
        cluster: ClusterSpec,
        task_factory: TaskFactory,
        overload_fraction: float = DEFAULT_OVERLOAD_FRACTION,
        seed: SeedLike = None,
    ) -> "AutoTuner":
        return cls(
            engine=create_engine(engine_name, cluster),
            task_factory=task_factory,
            overload_fraction=overload_fraction,
            seed=seed,
        )

    def train(self, reference_workload: float) -> MemoryCostModel:
        """Run the probe ladder and fit the memory models (idempotent).

        The probe runs are a :class:`~repro.tuning.calibrate.Calibrator`'s
        first tells; the fit is bit-identical to the legacy one-shot
        trainer.
        """
        if self._model is None:
            self._model = Calibrator.train(
                self.engine,
                self.task_factory,
                reference_workload,
                seed=self.seed,
            ).model
        return self._model

    def plan(self, workload: float) -> List[float]:
        """Compute the Optimized schedule for ``workload``."""
        model = self.train(workload)
        return plan_batches(
            model,
            workload,
            self.engine.cluster.scaled_machine,
            overload_fraction=self.overload_fraction,
        )

    def run(self, workload: float) -> TuningReport:
        """Plan and execute ``workload``; also run the Full-Parallelism
        baseline for the Figure-12 comparison.
        """
        schedule = self.plan(workload)
        task = self.task_factory(workload)
        optimized = self.engine.run_job(task, schedule, seed=self.seed)
        baseline_task = self.task_factory(workload)
        baseline = self.engine.run_job(
            baseline_task, [float(workload)], seed=self.seed
        )
        model = self.train(workload)
        return TuningReport(
            workload=workload,
            schedule=schedule,
            optimized=optimized,
            full_parallelism=baseline,
            model=model,
        )
