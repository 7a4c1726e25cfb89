"""Figure 10 — the whole-graph access mode (Section 4.9).

Every machine holds the entire graph; the workload (not the graph) is
partitioned, computation is communication-free, and a final aggregation
step merges the per-machine partial results (the stacked upper bar).
Paper findings checked: the mode overloads more easily at low batch
counts (whole graph resident per machine) but, once the workload is
properly divided, it can beat the default partitioned setting.
"""

from __future__ import annotations

from repro.cluster.cluster import galaxy27
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.experiments.common import (
    batch_axis,
    dataset,
    label_times,
    optimum_batches,
    sweep_batches,
    task_for,
)

EXPERIMENT_ID = "fig10"
TITLE = "Whole-graph access mode vs default partitioning (Fig 5c settings)"

SETTINGS = ((8, 10240), (16, 20480), (27, 34560))


def run(config: ExperimentConfig = ExperimentConfig()) -> ExperimentResult:
    """Run the experiment and check its paper claims."""
    graph = dataset(config, "dblp")
    base_cluster = galaxy27(scale=config.scale)
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        columns=["setting", "mode"]
        + [f"b={b}" for b in batch_axis(config, 16)]
        + ["optimum", "aggregation"],
        paper_summary=(
            "whole-graph mode more easily overloads if the workload is not "
            "properly divided, but with a proper batch setting it can even "
            "beat the default"
        ),
    )

    settings = SETTINGS if not config.quick else SETTINGS[-1:]
    wins = []
    for machines, workload in settings:
        cluster = base_cluster.with_machines(machines)
        axis = batch_axis(config, workload)
        whole_runs = sweep_batches(
            "pregel+(wholegraph)",
            cluster,
            lambda w=workload: task_for(graph, "bppr", w, config.quick),
            axis,
            config.seed,
        )
        default_runs = sweep_batches(
            "pregel+",
            cluster,
            lambda w=workload: task_for(graph, "bppr", w, config.quick),
            axis,
            config.seed,
        )
        for mode, runs in (("whole-graph", whole_runs), ("default", default_runs)):
            row = {
                "setting": f"({workload:g},{machines})",
                "mode": mode,
            }
            row.update(label_times(runs))
            row["optimum"] = optimum_batches(runs) or "overload"
            agg = runs[0].aggregation_seconds
            row["aggregation"] = f"{agg:.1f}s" if agg else "-"
            result.add_row(**row)

        best_whole = min(
            (m for m in whole_runs if not m.overloaded),
            key=lambda m: m.seconds,
            default=None,
        )
        best_default = min(
            (m for m in default_runs if not m.overloaded),
            key=lambda m: m.seconds,
            default=None,
        )
        if best_whole and best_default:
            wins.append(best_whole.seconds < best_default.seconds)

    result.claim(
        "a well-batched whole-graph mode beats the default in some setting",
        any(wins),
    )
    return result
