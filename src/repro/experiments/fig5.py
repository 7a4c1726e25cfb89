"""Figure 5 — the Galaxy-27 versions of the Figure 3 sweeps.

Larger cluster, larger workloads, plus the billion-edge graphs (Twitter,
Friendster). The summary sub-figure's claim: (128, 27, Twitter) and
(16, 27, Friendster) are monotone (Full-Parallelism optimal, residual
memory dominates), the rest are not.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cluster.cluster import galaxy27
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

EXPERIMENT_ID = "fig5"
TITLE = "Batch sweeps on Galaxy-27 (vary task / dataset / machines / system)"

PANEL_A: List[Tuple[str, float]] = [
    ("bppr", 34560),
    ("mssp", 3456),
    ("bkhs", 25600),
]
PANEL_B: List[Tuple[str, float]] = [
    ("dblp", 34560),
    ("orkut", 3000),
    ("web-st", 69120),
    ("livejournal", 8192),
    ("friendster", 16),
    ("twitter", 128),
]
PANEL_C: List[Tuple[int, float]] = [(8, 10240), (16, 20480), (27, 34560)]
PANEL_D: List[Tuple[str, float]] = [
    ("pregel+", 34560),
    ("giraph(async)", 6400),
    ("pregel+(mirror)", 256),
    ("giraph", 6400),
    ("graphd", 5120),
    ("graphlab", 1600),
]


def run(config: ExperimentConfig = ExperimentConfig()) -> ExperimentResult:
    """Run the experiment and check its paper claims."""
    cluster = galaxy27(scale=config.scale)
    dblp = dataset(config, "dblp")
    axis_cols = [f"b={b}" for b in batch_axis(config, 16)]
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        columns=["panel", "setting"] + axis_cols + ["optimum"],
        paper_summary=(
            "most settings non-monotone; Twitter (128) and Friendster (16) "
            "monotone because residual memory favours Full-Parallelism"
        ),
    )

    non_monotone_count = 0
    total = 0
    big_graph_monotone = {}

    def record(panel: str, setting: str, runs, big_graph: str = "") -> None:
        nonlocal non_monotone_count, total
        row = {"panel": panel, "setting": setting}
        row.update(label_times(runs))
        row["optimum"] = optimum_batches(runs) or "overload"
        result.add_row(**row)
        total += 1
        is_nm = non_monotone(runs)
        if is_nm:
            non_monotone_count += 1
        if big_graph:
            big_graph_monotone[big_graph] = not is_nm

    panel_a = PANEL_A if not config.quick else PANEL_A[:1]
    for task_name, workload in panel_a:
        runs = sweep_batches(
            "pregel+",
            cluster,
            lambda t=task_name, w=workload: task_for(dblp, t, w, config.quick),
            batch_axis(config, workload),
            config.seed,
            jobs=config.jobs,
        )
        record("a:task", f"({workload:g},27,{task_name.upper()})", runs)

    panel_b = PANEL_B if not config.quick else PANEL_B[:2]
    for ds_name, workload in panel_b:
        graph = dataset(config, ds_name)
        runs = sweep_batches(
            "pregel+",
            cluster,
            lambda g=graph, w=workload: task_for(g, "bppr", w, config.quick),
            batch_axis(config, workload),
            config.seed,
            jobs=config.jobs,
        )
        big = ds_name if ds_name in ("twitter", "friendster") else ""
        record("b:dataset", f"({workload:g},27,{ds_name})", runs, big)

    panel_c = PANEL_C if not config.quick else PANEL_C[-1:]
    for machines, workload in panel_c:
        runs = sweep_batches(
            "pregel+",
            cluster.with_machines(machines),
            lambda w=workload: task_for(dblp, "bppr", w, config.quick),
            batch_axis(config, workload),
            config.seed,
            jobs=config.jobs,
        )
        record("c:machines", f"({workload:g},{machines},Pregel+)", runs)

    panel_d = PANEL_D if not config.quick else PANEL_D[:2]
    for engine, workload in panel_d:
        runs = sweep_batches(
            engine,
            cluster,
            lambda w=workload: task_for(dblp, "bppr", w, config.quick),
            batch_axis(config, workload),
            config.seed,
            jobs=config.jobs,
        )
        record("d:system", f"({workload:g},27,{engine})", runs)

    result.claim(
        "most settings are not monotone in the batch count",
        non_monotone_count >= total / 2,
    )
    if "twitter" in big_graph_monotone:
        result.claim(
            "Twitter (128 walks) is monotone: Full-Parallelism optimal",
            big_graph_monotone["twitter"],
        )
    result.notes = f"{non_monotone_count}/{total} settings non-monotone"
    return result
