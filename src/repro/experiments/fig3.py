"""Figure 3 — batch sweeps on Galaxy-8: vary task, dataset, machines,
system (panels a-d).

Each panel sweeps the doubling batch axis for the legend's
(workload, machines, X) settings; the summary sub-figure's claim is that
most curves are *not* monotone in the batch count (only (512, 8, Orkut)
is monotone in the paper).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cluster.cluster import galaxy8
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.experiments.common import (
    batch_axis,
    dataset,
    label_times,
    non_monotone,
    optimum_batches,
    sweep_batches,
    task_for,
)

EXPERIMENT_ID = "fig3"
TITLE = "Batch sweeps on Galaxy-8 (vary task / dataset / machines / system)"

#: Panel (a): default DBLP + Pregel+, vary the task.
PANEL_A: List[Tuple[str, float]] = [
    ("bppr", 12288),
    ("mssp", 4096),
    ("bkhs", 65536),
]

#: Panel (b): default BPPR + Pregel+, vary the dataset.
PANEL_B: List[Tuple[str, float]] = [
    ("dblp", 10240),
    ("web-st", 20480),
    ("orkut", 512),
]

#: Panel (c): default DBLP + BPPR + Pregel+, vary machines.
PANEL_C: List[Tuple[int, float]] = [(2, 2048), (4, 5120), (8, 10240)]

#: Panel (d): default DBLP + BPPR, vary the system.
PANEL_D: List[Tuple[str, float]] = [
    ("pregel+", 10240),
    ("giraph(async)", 1024),
    ("pregel+(mirror)", 160),
    ("graphd", 2048),
    ("graphlab", 20480),
    ("giraph", 2048),
]


def run(config: ExperimentConfig = ExperimentConfig()) -> ExperimentResult:
    """Run the experiment and check its paper claims."""
    cluster = galaxy8(scale=config.scale)
    dblp = dataset(config, "dblp")
    axis_cols = [f"b={b}" for b in batch_axis(config, 160)]
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        columns=["panel", "setting"] + axis_cols + ["optimum"],
        paper_summary=(
            "Running times are mostly not increasing with the number of "
            "batches; only (512, 8, Orkut) is monotone"
        ),
    )

    non_monotone_count = 0
    total = 0
    monotone_orkut = False

    def record(panel: str, setting: str, runs) -> None:
        nonlocal non_monotone_count, total, monotone_orkut
        row = {"panel": panel, "setting": setting}
        row.update(label_times(runs))
        row["optimum"] = optimum_batches(runs) or "overload"
        result.add_row(**row)
        total += 1
        if non_monotone(runs):
            non_monotone_count += 1
        elif "orkut" in setting:
            monotone_orkut = True

    for task_name, workload in PANEL_A if not config.quick else PANEL_A[:2]:
        runs = sweep_batches(
            "pregel+",
            cluster,
            lambda t=task_name, w=workload: task_for(dblp, t, w, config.quick),
            batch_axis(config, workload),
            config.seed,
        )
        record("a:task", f"({workload:g},8,{task_name.upper()})", runs)

    for ds_name, workload in PANEL_B if not config.quick else PANEL_B[:2]:
        graph = dataset(config, ds_name)
        runs = sweep_batches(
            "pregel+",
            cluster,
            lambda g=graph, w=workload: task_for(g, "bppr", w, config.quick),
            batch_axis(config, workload),
            config.seed,
        )
        record("b:dataset", f"({workload:g},8,{ds_name})", runs)

    for machines, workload in PANEL_C if not config.quick else PANEL_C[-1:]:
        runs = sweep_batches(
            "pregel+",
            cluster.with_machines(machines),
            lambda w=workload: task_for(dblp, "bppr", w, config.quick),
            batch_axis(config, workload),
            config.seed,
        )
        record("c:machines", f"({workload:g},{machines},Pregel+)", runs)

    for engine, workload in PANEL_D if not config.quick else PANEL_D[:2]:
        runs = sweep_batches(
            engine,
            cluster,
            lambda w=workload: task_for(dblp, "bppr", w, config.quick),
            batch_axis(config, workload),
            config.seed,
        )
        record("d:system", f"({workload:g},8,{engine})", runs)

    result.claim(
        "most settings are not monotone in the batch count",
        non_monotone_count >= total / 2,
    )
    result.notes = (
        f"{non_monotone_count}/{total} settings non-monotone"
        + ("; Orkut monotone as in the paper" if monotone_orkut else "")
    )
    return result
