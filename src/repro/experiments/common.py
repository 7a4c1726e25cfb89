"""Helpers shared by the experiment modules."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.batching.executor import MultiProcessingJob
from repro.cluster.cluster import ClusterSpec
from repro.experiments.base import DOUBLING_BATCHES, ExperimentConfig
from repro.graph.csr import Graph
from repro.graph.datasets import load_dataset
from repro.sim.metrics import JobMetrics
from repro.tasks.base import TaskSpec, make_task


def dataset(config: ExperimentConfig, name: str) -> Graph:
    """Load a paper dataset at the experiment's scale."""
    return load_dataset(name, scale=config.scale)


def batch_axis(
    config: ExperimentConfig, workload: float, full=DOUBLING_BATCHES
) -> List[int]:
    """The figure's batch axis, truncated for quick mode and so no batch
    is empty."""
    axis = [b for b in full if b <= workload]
    if config.quick:
        axis = [b for b in axis if b in (1, 4, 16)] or axis[:1]
    return axis


def sweep_batches(
    engine_name: str,
    cluster: ClusterSpec,
    task_factory: Callable[[], TaskSpec],
    batch_counts: Sequence[int],
    seed: int,
) -> List[JobMetrics]:
    """Run one task under each batch count on one engine/cluster."""
    job = MultiProcessingJob(engine_name, cluster)
    return [
        job.run(task_factory(), num_batches=count, seed=seed)
        for count in batch_counts
    ]


def task_for(
    graph: Graph,
    task_name: str,
    workload: float,
    quick: bool = False,
    **params,
) -> TaskSpec:
    """Build a benchmark task with experiment-friendly defaults.

    Source-driven tasks get a sampling cap so sweeps stay fast; quick
    mode lowers it further.
    """
    if task_name in ("mssp", "bkhs"):
        params.setdefault("sample_limit", 16 if quick else 48)
    return make_task(task_name, graph, workload, **params)


def runs_by_batch(
    runs: Sequence[JobMetrics],
) -> Dict[int, JobMetrics]:
    """Index a sweep's runs by their batch count."""
    return {m.num_batches: m for m in runs}


def non_monotone(runs: Sequence[JobMetrics]) -> bool:
    """True when running time is not monotonically increasing with the
    batch count — i.e. Full-Parallelism is not optimal (overloaded runs
    count as slowest).

    Ranking compares ``(overloaded, seconds)`` so a finite run that
    happens to land exactly on the overload cutoff still ranks below an
    overloaded run instead of tying with it.
    """
    ordered = sorted(runs, key=lambda m: m.num_batches)
    ranks = [(m.overloaded, m.seconds) for m in ordered]
    return any(later < earlier for earlier, later in zip(ranks, ranks[1:]))


def full_parallelism_suboptimal(runs: Sequence[JobMetrics]) -> bool:
    """True when some multi-batch setting beats the 1-batch run."""
    ordered = {m.num_batches: m for m in runs}
    if 1 not in ordered:
        return False
    one = ordered[1]
    rest = [m for b, m in ordered.items() if b > 1]
    if not rest:
        return False
    best_rest = min(rest, key=lambda m: (m.overloaded, m.seconds))
    if one.overloaded and not best_rest.overloaded:
        return True
    return best_rest.seconds < one.seconds


def optimum_batches(runs: Sequence[JobMetrics]) -> Optional[int]:
    """Batch count of the fastest non-overloaded run."""
    finite = [m for m in runs if not m.overloaded]
    if not finite:
        return None
    return min(finite, key=lambda m: m.seconds).num_batches


def label_times(runs: Sequence[JobMetrics]) -> Dict[str, str]:
    """Column dict {"b=k": time label} for a batch sweep row."""
    return {f"b={m.num_batches}": m.time_label() for m in runs}


def settings_tuple(workload: float, machines: int, what: str) -> str:
    """The paper's "(Workload, #Machines, X)" legend string."""
    return f"({workload:g},{machines},{what})"
