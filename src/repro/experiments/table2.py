"""Table 2 — (workload, batches) vs memory / time / network overuse.

BPPR on DBLP with 4 and 8 machines, workloads {1024, 4096, 12288} and
batch counts {1, 2, 4}. Paper findings checked here:

* more batches -> lower per-machine memory;
* more machines -> lower per-machine memory;
* heavy workloads overflow small clusters at low batch counts
  (12288 on 4 machines overflows at every batch count shown; on 8
  machines only multi-batch settings finish);
* the optimum sits where memory approaches (but stays under) the usable
  capacity, and network-overuse variation is secondary.
"""

from __future__ import annotations

from repro.cluster.cluster import galaxy8
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.experiments.common import dataset, sweep_batches, task_for
from repro.units import format_bytes, format_seconds

EXPERIMENT_ID = "table2"
TITLE = "(workload, #batches) vs per-machine memory/time/network overuse"

WORKLOADS = (1024, 4096, 12288)
BATCHES = (1, 2, 4)
MACHINE_COUNTS = (4, 8)


def run(config: ExperimentConfig = ExperimentConfig()) -> ExperimentResult:
    """Run the experiment and check its paper claims."""
    graph = dataset(config, "dblp")
    machine_counts = MACHINE_COUNTS if not config.quick else (8,)
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        columns=[
            "workload",
            "batches",
            "machines",
            "memory",
            "memory(real-equiv)",
            "time",
            "net overuse",
        ],
        paper_summary=(
            "e.g. (1024, 8m): 2.1GB/3.4min; (4096, 4m): 15.0GB/30min at "
            "1 batch falling to 9.6GB at 4 batches; (12288, 4m): Overflow "
            "everywhere, (12288, 8m): overload only at 1 batch"
        ),
    )

    memory = {}
    for machines in machine_counts:
        cluster = galaxy8(scale=config.scale).with_machines(machines)
        for workload in WORKLOADS:
            runs = sweep_batches(
                "pregel+",
                cluster,
                lambda w=workload: task_for(graph, "bppr", w, config.quick),
                BATCHES,
                config.seed,
            )
            for metrics in runs:
                key = (workload, metrics.num_batches, machines)
                memory[key] = metrics.peak_memory_bytes
                result.add_row(
                    workload=workload,
                    batches=metrics.num_batches,
                    machines=machines,
                    memory=format_bytes(metrics.peak_memory_bytes),
                    **{
                        "memory(real-equiv)": format_bytes(
                            metrics.peak_memory_bytes * config.scale
                        )
                    },
                    time=metrics.time_label(),
                    **{
                        "net overuse": format_seconds(
                            metrics.network_overuse_seconds
                        )
                    },
                )

    if not config.quick:
        result.claim(
            "more batches reduce per-machine memory (4096, 4 machines)",
            memory[(4096, 1, 4)]
            > memory[(4096, 2, 4)]
            > memory[(4096, 4, 4)],
        )
        result.claim(
            "more machines reduce per-machine memory (4096, 1 batch)",
            memory[(4096, 1, 8)] < memory[(4096, 1, 4)],
        )
        result.claim(
            "memory grows ~linearly with workload (1024 -> 12288, 8m, 1b)",
            8.0
            <= memory[(12288, 1, 8)] / memory[(1024, 1, 8)]
            <= 16.0,
        )
    return result
