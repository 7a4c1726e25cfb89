"""Table 3 — batches vs disk utilisation vs network (GraphD, Galaxy-27).

GraphD on DBLP with workload 2048 across batch counts 1..128. Paper
findings checked:

* small batch counts saturate the disk (>100 % utilisation, long I/O
  queues, non-zero I/O overuse time);
* utilisation drops to a stable background (~27 %) once per-batch spill
  fits the disk, and stays flat as batches grow further;
* the total-time optimum sits right where utilisation first drops below
  100 % (4 batches in the paper);
* past the optimum, round-synchronisation overheads dominate and total
  time grows again;
* network overuse decreases monotonically with batches but does not
  explain the optimum (the disk does).
"""

from __future__ import annotations

from repro.cluster.cluster import galaxy27
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.experiments.common import dataset, sweep_batches, task_for
from repro.units import format_seconds

EXPERIMENT_ID = "table3"
TITLE = "#Batches vs disk utilisation vs network (GraphD, Galaxy-27, W=2048)"

BATCHES = (1, 2, 4, 8, 16, 32, 64, 128)
WORKLOAD = 2048


def run(config: ExperimentConfig = ExperimentConfig()) -> ExperimentResult:
    """Run the experiment and check its paper claims."""
    graph = dataset(config, "dblp")
    cluster = galaxy27(scale=config.scale)
    batches = BATCHES if not config.quick else (1, 4, 32)

    runs = sweep_batches(
        "graphd",
        cluster,
        lambda: task_for(graph, "bppr", WORKLOAD, config.quick),
        batches,
        config.seed,
    )

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        columns=[
            "batches",
            "net overuse",
            "io overuse",
            "max disk util",
            "io queue",
            "total time",
        ],
        paper_summary=(
            "totals 285/236/201/220/260/337/429/632 s for b=1..128; "
            "util >100 % at b=1,2 then ~27 % flat; queue 20256 -> ~20"
        ),
    )
    by_batch = {}
    for metrics in runs:
        by_batch[metrics.num_batches] = metrics
        util = metrics.max_disk_utilization
        result.add_row(
            batches=metrics.num_batches,
            **{
                "net overuse": format_seconds(
                    metrics.network_overuse_seconds
                ),
                "io overuse": format_seconds(metrics.io_overuse_seconds),
                "max disk util": (
                    f">{min(util, 9.99) * 100:.0f}%"
                    if util >= 1.0
                    else f"{util * 100:.0f}%"
                ),
                "io queue": f"{metrics.mean_io_queue_length:.0f}",
                "total time": metrics.time_label(),
            },
        )

    if not config.quick:
        result.claim(
            "1-batch saturates the disk (>100% utilisation)",
            by_batch[1].max_disk_utilization >= 1.0,
        )
        result.claim(
            "utilisation falls below 100% by 4 batches and stays low",
            by_batch[4].max_disk_utilization < 1.0
            and by_batch[128].max_disk_utilization < 1.0,
        )
        optimum = min(runs, key=lambda m: m.seconds).num_batches
        result.claim(
            "the time optimum sits at the utilisation drop (2-8 batches)",
            optimum in (2, 4, 8),
        )
        result.claim(
            "time grows again past the optimum (sync overheads)",
            by_batch[128].seconds > by_batch[8].seconds,
        )
        result.claim(
            "I/O queue collapses once the disk is unsaturated",
            by_batch[1].mean_io_queue_length
            > 20 * by_batch[4].mean_io_queue_length,
        )
        result.claim(
            "network overuse decreases with batches",
            by_batch[1].network_overuse_seconds
            > by_batch[128].network_overuse_seconds,
        )
    return result
