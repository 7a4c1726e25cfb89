"""The multi-processing job executor.

Convenience layer gluing task, engine, cluster and batching scheme
together — the entry point most examples and experiments use:

    job = MultiProcessingJob(engine="pregel+", cluster=galaxy8())
    metrics = job.run(bppr_task(graph, 10240), num_batches=4)

Batches run sequentially through the engine; results roll up into
:class:`~repro.sim.metrics.JobMetrics`.

:meth:`MultiProcessingJob.run_with_recovery` adds the closed loop: an
OVERLOADED batch is aborted (paying the elapsed time plus an abort
overhead instead of the 6000 s cutoff stamp), the remaining workload is
re-split into smaller front-loaded batches per the
:class:`~repro.faults.recovery.OverloadRecovery` policy, and every
attempt is recorded in ``JobMetrics.retry_history``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

from repro.batching.schemes import (
    doubling_batch_counts,
    equal_batches,
    explicit_batches,
)
from repro.cluster.cluster import ClusterSpec
from repro.engines.base import SimulatedEngine
from repro.engines.registry import create_engine
from repro.errors import BatchingError, RecoveryError
from repro.faults.plan import FaultPlan
from repro.faults.recovery import OverloadRecovery
from repro.rng import SeedLike
from repro.sim.metrics import BatchMetrics, JobMetrics
from repro.tasks.base import TaskSpec


class MultiProcessingJob:
    """A (engine, cluster) pair ready to run batched jobs."""

    def __init__(
        self,
        engine: Union[str, SimulatedEngine],
        cluster: Optional[ClusterSpec] = None,
    ) -> None:
        if isinstance(engine, SimulatedEngine):
            self.engine = engine
        else:
            if cluster is None:
                raise BatchingError(
                    "cluster is required when engine is given by name"
                )
            self.engine = create_engine(engine, cluster)

    def run(
        self,
        task: TaskSpec,
        num_batches: Optional[int] = None,
        batch_sizes: Optional[Sequence[float]] = None,
        seed: SeedLike = None,
        fault_plan: Optional[FaultPlan] = None,
        checkpoint_every: Optional[int] = None,
        on_overload: str = "report",
    ) -> JobMetrics:
        """Run ``task`` with either ``num_batches`` equal batches or an
        explicit ``batch_sizes`` schedule (exactly one must be given).

        ``fault_plan``/``checkpoint_every``/``on_overload`` pass through
        to :meth:`SimulatedEngine.run_job` (fault injection, Pregel
        checkpointing, strict overload handling).
        """
        if (num_batches is None) == (batch_sizes is None):
            raise BatchingError(
                "specify exactly one of num_batches or batch_sizes"
            )
        if num_batches is not None:
            sizes = equal_batches(task.workload, num_batches)
        else:
            sizes = explicit_batches(batch_sizes)
            total = sum(sizes)
            if abs(total - task.workload) > 1e-6 * max(task.workload, 1.0):
                raise BatchingError(
                    f"schedule sums to {total:g}, task workload is "
                    f"{task.workload:g}"
                )
        return self.engine.run_job(
            task,
            sizes,
            seed=seed,
            fault_plan=fault_plan,
            checkpoint_every=checkpoint_every,
            on_overload=on_overload,
        )

    def run_with_recovery(
        self,
        task_factory: Callable[[float], TaskSpec],
        workload: float,
        num_batches: Optional[int] = None,
        batch_sizes: Optional[Sequence[float]] = None,
        seed: SeedLike = None,
        recovery: Optional[OverloadRecovery] = None,
        fault_plan: Optional[FaultPlan] = None,
        checkpoint_every: Optional[int] = None,
    ) -> JobMetrics:
        """Run ``workload`` with graceful overload degradation.

        The initial schedule comes from ``num_batches`` equal batches or
        an explicit ``batch_sizes`` list (default: one batch, i.e.
        Full-Parallelism). Whenever a batch OVERLOADS, it is aborted —
        its metrics keep the real elapsed time plus the policy's abort
        overhead instead of the 6000 s cutoff — and the remaining
        workload (the aborted batch's units included) is re-split into
        smaller front-loaded batches and retried, carrying the residual
        memory of the batches that did complete. Each attempt is
        recorded in the returned ``JobMetrics.retry_history``.

        Raises :class:`~repro.errors.RecoveryError` (with the history
        attached) once ``recovery.max_retries`` re-splits have been
        exhausted.

        ``task_factory`` must build a task for any positive workload —
        retries run the engine on the *remaining* units only, so
        completed batches are never re-executed.
        """
        recovery = recovery or OverloadRecovery()
        if workload <= 0:
            raise BatchingError("workload must be positive")
        if num_batches is not None and batch_sizes is not None:
            raise BatchingError(
                "specify at most one of num_batches or batch_sizes"
            )
        if batch_sizes is not None:
            sizes = explicit_batches(batch_sizes)
            total = sum(sizes)
            if abs(total - workload) > 1e-6 * max(workload, 1.0):
                raise BatchingError(
                    f"schedule sums to {total:g}, workload is {workload:g}"
                )
        else:
            sizes = equal_batches(workload, num_batches or 1)

        done_batches: List[BatchMetrics] = []
        history: List[dict] = []
        residual = 0.0
        final_job: Optional[JobMetrics] = None
        while True:
            task = task_factory(sum(sizes))
            job = self.engine.run_job(
                task,
                sizes,
                seed=seed,
                fault_plan=fault_plan,
                checkpoint_every=checkpoint_every,
                initial_residual_bytes=residual,
            )
            if not job.overloaded:
                final_job = job
                break
            failed_index = next(
                i for i, b in enumerate(job.batches) if b.overloaded
            )
            completed = job.batches[:failed_index]
            failed = job.batches[failed_index]
            failed.aborted = True
            failed.abort_seconds = recovery.abort_overhead_seconds
            # The aborted batch's partial results are discarded; it
            # leaves no residual behind.
            failed.residual_memory_after_bytes = failed.residual_memory_bytes
            done_batches.extend(completed)
            done_batches.append(failed)
            residual = failed.residual_memory_bytes
            remaining = failed.workload + sum(sizes[failed_index + 1 :])
            attempt = {
                "attempt": len(history) + 1,
                "schedule": [float(s) for s in sizes],
                "failed_batch_workload": float(failed.workload),
                "reason": failed.overload_reason,
                "seconds_lost": float(failed.seconds),
                "remaining_workload": float(remaining),
            }
            history.append(attempt)
            if len(history) > recovery.max_retries:
                raise RecoveryError(
                    f"overload recovery exhausted {recovery.max_retries} "
                    f"retries with {remaining:g} units unprocessed "
                    f"(last failure: {failed.overload_reason})",
                    history=history,
                )
            sizes = recovery.resplit(remaining, failed.workload)
            attempt["resplit"] = [float(s) for s in sizes]

        # Stitch the attempts into one job record: aborted batches stay
        # in the trace (their time counts), re-indexed sequentially.
        final_job.batches = done_batches + final_job.batches
        for index, batch in enumerate(final_job.batches):
            batch.batch_index = index
        final_job.batch_sizes = [b.workload for b in final_job.batches]
        final_job.total_workload = float(workload)
        final_job.retry_history = history
        final_job.extras["overload_retries"] = float(len(history))
        return final_job

    def sweep_batches(
        self,
        task: TaskSpec,
        batch_counts: Optional[Sequence[int]] = None,
        seed: SeedLike = None,
    ) -> List[JobMetrics]:
        """Run the task at each batch count (default: the paper's
        doubling axis {1, 2, 4, 8, 16}) and return one metrics object
        per setting."""
        counts = (
            list(batch_counts)
            if batch_counts is not None
            else doubling_batch_counts(task.workload)
        )
        return [
            self.run(task, num_batches=count, seed=seed) for count in counts
        ]

    def best_batch_count(
        self,
        task: TaskSpec,
        batch_counts: Optional[Sequence[int]] = None,
        seed: SeedLike = None,
    ) -> int:
        """Batch count with the lowest simulated time on the sweep axis."""
        runs = self.sweep_batches(task, batch_counts=batch_counts, seed=seed)
        best = min(runs, key=lambda m: (m.overloaded, m.seconds))
        return best.num_batches


def run_job(
    engine: Union[str, SimulatedEngine],
    cluster: Optional[ClusterSpec],
    task: TaskSpec,
    num_batches: Optional[int] = None,
    batch_sizes: Optional[Sequence[float]] = None,
    seed: SeedLike = None,
) -> JobMetrics:
    """One-shot convenience wrapper around :class:`MultiProcessingJob`."""
    return MultiProcessingJob(engine, cluster).run(
        task, num_batches=num_batches, batch_sizes=batch_sizes, seed=seed
    )
