"""EXPERIMENTS.md generation: paper-vs-measured for every table/figure."""

from __future__ import annotations

import time
from pathlib import Path
from typing import Optional

from repro.experiments.base import ExperimentConfig
from repro.experiments.runner import EXPERIMENTS, run_experiment

HEADER = """# EXPERIMENTS — paper vs measured

Generated by ``vcrepro report`` (or ``pytest benchmarks/``). Every
table and figure of the paper's evaluation section is regenerated by
the simulation at scale 1/{scale} (dataset node counts and cluster
capacities divided by the same factor, which preserves the
memory-pressure and congestion ratios that drive every result).

Reading guide:

* *times* are simulated seconds on the modelled testbeds; the paper's
  6000 s overload cutoff applies identically ("Overload" cells);
* *message counts* are simulation-scale — divide the paper's counts by
  the scale factor to compare; ratios are directly comparable;
* each experiment lists the paper's qualitative **claims** and whether
  the reproduction measured them (HOLDS/DIFFERS). The reproduction
  targets *shapes* — who wins, by what factor, where crossovers fall —
  not the authors' absolute wall-clock numbers.

"""


def write_experiments_markdown(
    output: str = "EXPERIMENTS.md",
    config: Optional[ExperimentConfig] = None,
) -> Path:
    """Run every experiment and write the Markdown report."""
    config = config or ExperimentConfig()
    parts = [HEADER.format(scale=config.scale)]
    total_claims = 0
    total_held = 0
    for eid in EXPERIMENTS:
        start = time.time()
        result = run_experiment(eid, config)
        elapsed = time.time() - start
        total_claims += len(result.claims)
        total_held += result.claims_held
        parts.append(result.to_markdown())
        parts.append(f"*Regenerated in {elapsed:.1f} s.*\n")
    summary = (
        f"\n## Summary\n\n{total_held}/{total_claims} paper claims "
        "reproduced across "
        f"{len(EXPERIMENTS)} experiments.\n"
    )
    parts.insert(1, summary)
    path = Path(output)
    path.write_text("\n".join(parts), encoding="utf-8")
    return path
