"""Experiment registry and batch runner."""

from __future__ import annotations

import sys
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.experiments import (
    ablations,
    faults,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    table2,
    table3,
    table4,
    throughput,
)
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.perf.parallel import parallel_map, resolve_jobs

#: id -> run callable, in the paper's presentation order.
EXPERIMENTS: Dict[str, Callable[[ExperimentConfig], ExperimentResult]] = {
    "fig2": fig2.run,
    "fig3": fig3.run,
    "fig4": fig4.run,
    "fig6": fig6.run,
    "table2": table2.run,
    "table3": table3.run,
    "fig5": fig5.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "table4": table4.run,
    "fig10": fig10.run,
    "fig11": fig11.run,
    "fig12": fig12.run,
    "faults": faults.run,
    "ablations": ablations.run,
    "throughput": throughput.run,
}


def list_experiments() -> List[str]:
    """Experiment ids in the paper's presentation order."""
    return list(EXPERIMENTS)


def run_experiment(
    experiment_id: str, config: Optional[ExperimentConfig] = None
) -> ExperimentResult:
    """Run one experiment by id ("fig2", "table3", ...)."""
    key = experiment_id.strip().lower()
    if key not in EXPERIMENTS:
        known = ", ".join(EXPERIMENTS)
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        )
    return EXPERIMENTS[key](config or ExperimentConfig())


def experiment_datasets(
    ids: Iterable[str], config: ExperimentConfig
) -> Tuple[str, ...]:
    """Distinct dataset names the given experiments will load, in first-
    use order. Modules declare theirs via a ``datasets_used(config)``
    hook; everything else defaults to DBLP."""
    names: List[str] = []
    for eid in ids:
        run_fn = EXPERIMENTS.get(eid.strip().lower())
        if run_fn is None:
            continue
        module = sys.modules[run_fn.__module__]
        hook = getattr(module, "datasets_used", None)
        used = hook(config) if hook is not None else ("dblp",)
        names.extend(name for name in used if name not in names)
    return tuple(names)


def _shared_graph_pool_args(
    ids: List[str], config: ExperimentConfig, workers: int
) -> dict:
    """Prebuild the experiments' datasets and export them into shared
    memory, returning the pool initializer kwargs for ``parallel_map``.

    Each distinct graph crosses to the workers at most once (as a
    zero-copy segment); an export failure just means workers rebuild
    from the artifact cache, so this never gates correctness.
    """
    if workers <= 1 or len(ids) <= 1:
        return {}
    from repro.graph.datasets import load_dataset
    from repro.perf import shm

    registry = shm.get_registry()
    for name in experiment_datasets(ids, config):
        graph = load_dataset(name, scale=config.scale)
        registry.export(("dataset", name, config.scale, None), graph)
    table = registry.handle_table()
    if not table:
        return {}
    return {
        "initializer": shm.install_worker_table,
        "initargs": (table,),
    }


def run_all(
    config: Optional[ExperimentConfig] = None,
    only: Optional[Iterable[str]] = None,
    jobs: Optional[int] = None,
) -> List[ExperimentResult]:
    """Run every (or the selected) experiment and return the results.

    ``jobs`` (default: ``config.jobs``) fans experiments out over
    worker processes; order and content of the returned results are
    identical to the serial loop. With multiple workers, the datasets
    the selected experiments need are prebuilt once and shipped to the
    pool via shared memory (:mod:`repro.perf.shm`).
    """
    config = config or ExperimentConfig()
    if jobs is None:
        jobs = config.jobs
    ids = list(only) if only is not None else list(EXPERIMENTS)
    pool_args = _shared_graph_pool_args(ids, config, resolve_jobs(jobs))
    return parallel_map(
        run_experiment, [(eid, config) for eid in ids], jobs=jobs, **pool_args
    )
