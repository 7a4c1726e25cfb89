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
from repro.faults.recovery import OverloadRecovery
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
    training_seconds: float

    @property
    def speedup(self) -> float:
        """Full-Parallelism time over Optimized time (>1 = tuning wins)."""
        if self.optimized.seconds == 0:
            return float("inf")
        return self.full_parallelism.seconds / self.optimized.seconds

    @property
    def retry_history(self) -> List[dict]:
        """Overload-recovery attempts the optimized run needed (the
        closed loop: a mispredicted schedule is aborted and re-split
        rather than reported at the cutoff)."""
        return self.optimized.retry_history

    def summary(self) -> str:
        """One-line Optimized-vs-Full-Parallelism comparison."""
        sched = ", ".join(f"{w:.0f}" for w in self.schedule)
        retries = (
            f", {len(self.retry_history)} overload retries"
            if self.retry_history
            else ""
        )
        return (
            f"W={self.workload:g}: Optimized [{sched}] -> "
            f"{self.optimized.time_label()} vs Full-Parallelism "
            f"{self.full_parallelism.time_label()} "
            f"(speedup {self.speedup:.2f}x{retries})"
        )


@dataclass
class AutoTuner:
    """Train once, plan and run many workloads (the training is
    "affordable because it is done only once")."""

    engine: SimulatedEngine
    task_factory: TaskFactory
    overload_fraction: float = DEFAULT_OVERLOAD_FRACTION
    seed: SeedLike = None
    recovery: Optional[OverloadRecovery] = None
    _model: Optional[MemoryCostModel] = field(default=None, repr=False)
    _training_seconds: float = field(default=0.0, repr=False)

    @classmethod
    def for_engine(
        cls,
        engine_name: str,
        cluster: ClusterSpec,
        task_factory: TaskFactory,
        overload_fraction: float = DEFAULT_OVERLOAD_FRACTION,
        seed: SeedLike = None,
        recovery: Optional[OverloadRecovery] = None,
    ) -> "AutoTuner":
        return cls(
            engine=create_engine(engine_name, cluster),
            task_factory=task_factory,
            overload_fraction=overload_fraction,
            seed=seed,
            recovery=recovery,
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

        With a ``recovery`` policy set, the optimized schedule runs
        through :meth:`MultiProcessingJob.run_with_recovery`: if the
        planner's memory model underestimated and a batch still
        overloads, the batch is aborted and the remainder re-split
        instead of stamping the run at the cutoff. The attempts land in
        ``TuningReport.retry_history``.
        """
        schedule = self.plan(workload)
        if self.recovery is not None:
            from repro.batching.executor import MultiProcessingJob

            optimized = MultiProcessingJob(self.engine).run_with_recovery(
                self.task_factory,
                workload,
                batch_sizes=schedule,
                seed=self.seed,
                recovery=self.recovery,
            )
        else:
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
            training_seconds=self._training_seconds,
        )
