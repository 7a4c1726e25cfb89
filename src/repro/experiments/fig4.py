"""Figure 4 — the optimal batch count grows with the workload.

BPPR on DBLP, Pregel+, Galaxy-8 at workloads 1024 / 10240 / 12288. The
paper's optima on the doubling axis: 1-batch, 2-batch and 4-batch
respectively.
"""

from __future__ import annotations

from repro.cluster.cluster import galaxy8
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.experiments.common import (
    batch_axis,
    dataset,
    label_times,
    optimum_batches,
    sweep_batches,
    task_for,
)

EXPERIMENT_ID = "fig4"
TITLE = "Optimal batching is workload-dependent (DBLP, Galaxy-8)"

WORKLOADS = (1024, 10240, 12288)

#: The paper's optima per workload on the doubling axis.
PAPER_OPTIMA = {1024: 1, 10240: 2, 12288: 4}


def run(config: ExperimentConfig = ExperimentConfig()) -> ExperimentResult:
    """Run the experiment and check its paper claims."""
    graph = dataset(config, "dblp")
    cluster = galaxy8(scale=config.scale)
    axis = batch_axis(config, min(WORKLOADS))
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        columns=["workload"]
        + [f"b={b}" for b in axis]
        + ["optimum", "paper optimum"],
        paper_summary=(
            "a higher amount of workload tends to require more batches to "
            "reach the optimal performance (1024->1, 10240->2, 12288->4)"
        ),
    )
    optima = {}
    for workload in WORKLOADS:
        runs = sweep_batches(
            "pregel+",
            cluster,
            lambda w=workload: task_for(graph, "bppr", w, config.quick),
            batch_axis(config, workload),
            config.seed,
        )
        best = optimum_batches(runs)
        optima[workload] = best
        row = {"workload": workload}
        row.update(label_times(runs))
        row["optimum"] = best or "overload"
        row["paper optimum"] = PAPER_OPTIMA[workload]
        result.add_row(**row)

    ordered = [optima[w] for w in WORKLOADS if optima[w] is not None]
    result.claim(
        "optimal batch count is non-decreasing in the workload",
        all(a <= b for a, b in zip(ordered, ordered[1:])),
    )
    result.claim(
        "light workload (1024) is best at Full-Parallelism",
        optima.get(1024) == 1,
    )
    result.claim(
        "heavy workload (12288) needs more batches than 10240",
        (optima.get(12288) or 99) >= (optima.get(10240) or 0),
    )
    return result
