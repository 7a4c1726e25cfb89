"""Figure 7 — performance and monetary cost in the cloud (Docker-32).

The Figure 3-style sweeps on the Docker-32 cluster, each x-axis group
priced in credits (sum over the group's settings). Overloaded runs are
charged at the cutoff and marked ``>$X`` as lower bounds. Checked
claims: an ill-chosen batch count wastes significant money, and the
per-group optimum cost is well below the worst setting.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cluster.cluster import docker32
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.experiments.common import (
    batch_axis,
    dataset,
    sweep_batches,
    task_for,
)
from repro.sim.monetary import credit_cost, sweep_cost

EXPERIMENT_ID = "fig7"
TITLE = "Performance and monetary cost in the cloud (Docker-32)"

PANEL_A: List[Tuple[str, float]] = [
    ("bppr", 40960),
    ("mssp", 4096),
    ("bkhs", 8192),
]
PANEL_B: List[Tuple[str, float]] = [
    ("dblp", 40960),
    ("orkut", 4096),
    ("web-st", 81920),
    ("twitter", 128),
]
PANEL_C: List[Tuple[int, float]] = [(8, 10240), (16, 20480), (32, 40960)]
PANEL_D: List[Tuple[str, float]] = [
    ("pregel+", 40960),
    ("graphd", 4096),
    ("giraph", 8192),
    ("pregel+(mirror)", 160),
]


def run(config: ExperimentConfig = ExperimentConfig()) -> ExperimentResult:
    """Run the experiment and check its paper claims."""
    cluster = docker32(scale=config.scale)
    dblp = dataset(config, "dblp")
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        columns=["panel", "batches", "group cost", "settings (time each)"],
        paper_summary=(
            "ill-set batch counts cost far more than the optimum (e.g. "
            "panel b: >$153 at 1 batch and >$168 at 16 vs $94 optimal); "
            "optimising the batch scheme is a cloud budget optimisation"
        ),
    )

    def sweep_panel(panel_name, settings, run_fn):
        axis = batch_axis(config, min(w for _, w in settings))
        per_batch_cost = {}
        per_setting_best = []
        for batches in axis:
            group_runs = []
            for key, workload in settings:
                metrics = run_fn(key, workload, batches)
                group_runs.append(metrics)
            cost = sweep_cost(group_runs, cluster)
            per_batch_cost[batches] = cost
            result.add_row(
                panel=panel_name,
                batches=batches,
                **{"group cost": cost.label()},
                **{
                    "settings (time each)": "; ".join(
                        f"{m.total_workload:g}:{m.time_label()}"
                        for m in group_runs
                    )
                },
            )
        # Optimal cost if each setting is tuned individually.
        for key, workload in settings:
            runs = [run_fn(key, workload, b) for b in axis]
            costs = [credit_cost(m, cluster) for m in runs]
            per_setting_best.append(min(costs, key=lambda c: c.credits))
        optimal = sum(c.credits for c in per_setting_best)
        return per_batch_cost, optimal

    cache = {}

    def run_task(task_name, workload, batches):
        key = ("task", task_name, workload, batches)
        if key not in cache:
            cache[key] = sweep_batches(
                "pregel+",
                cluster,
                lambda: task_for(dblp, task_name, workload, config.quick),
                [batches],
                config.seed,
            )[0]
        return cache[key]

    def run_dataset(ds_name, workload, batches):
        key = ("ds", ds_name, workload, batches)
        if key not in cache:
            graph = dataset(config, ds_name)
            cache[key] = sweep_batches(
                "pregel+",
                cluster,
                lambda: task_for(graph, "bppr", workload, config.quick),
                [batches],
                config.seed,
            )[0]
        return cache[key]

    def run_machines(machines, workload, batches):
        key = ("m", machines, workload, batches)
        if key not in cache:
            cache[key] = sweep_batches(
                "pregel+",
                cluster.with_machines(machines),
                lambda: task_for(dblp, "bppr", workload, config.quick),
                [batches],
                config.seed,
            )[0]
        return cache[key]

    def run_engine(engine, workload, batches):
        key = ("e", engine, workload, batches)
        if key not in cache:
            cache[key] = sweep_batches(
                engine,
                cluster,
                lambda: task_for(dblp, "bppr", workload, config.quick),
                [batches],
                config.seed,
            )[0]
        return cache[key]

    panels = [
        ("a:task", PANEL_A if not config.quick else PANEL_A[:1], run_task),
        ("b:dataset", PANEL_B if not config.quick else PANEL_B[:1], run_dataset),
        ("c:machines", PANEL_C if not config.quick else PANEL_C[-1:], run_machines),
        ("d:system", PANEL_D if not config.quick else PANEL_D[:2], run_engine),
    ]
    for panel_name, settings, run_fn in panels:
        per_batch, optimal = sweep_panel(panel_name, settings, run_fn)
        worst = max(per_batch.values(), key=lambda c: c.credits)
        best_group = min(per_batch.values(), key=lambda c: c.credits)
        result.claim(
            f"{panel_name}: tuning batches saves money "
            f"(worst {worst.label()} vs best group {best_group.label()} "
            f"vs per-setting optimum ${optimal:.0f})",
            worst.credits > 1.15 * best_group.credits
            and optimal <= best_group.credits + 1e-9,
        )
    return result
