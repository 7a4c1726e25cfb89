"""Experiment registry and batch runner."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

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
from repro.perf.parallel import parallel_map

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


def run_all(
    config: Optional[ExperimentConfig] = None,
    only: Optional[Iterable[str]] = None,
    jobs: Optional[int] = None,
) -> List[ExperimentResult]:
    """Run every (or the selected) experiment and return the results.

    ``jobs`` (default: ``config.jobs``) fans experiments out over
    worker processes; order and content of the returned results are
    identical to the serial loop. A worker gets each graph from its own
    artifact cache: inherited through fork, opened from the cache
    directory, or built.
    """
    config = config or ExperimentConfig()
    if jobs is None:
        jobs = config.jobs
    ids = list(only) if only is not None else list(EXPERIMENTS)
    return parallel_map(
        run_experiment, [(eid, config) for eid in ids], jobs=jobs
    )
