"""Shared experiment plumbing: configs, result tables, formatting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.graph.datasets import DEFAULT_SCALE
from repro.rng import DEFAULT_SEED

#: The doubling batch axis used throughout the paper's figures.
DOUBLING_BATCHES = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment run.

    ``scale`` divides dataset node counts and cluster capacities alike;
    ``quick`` shrinks sweeps (fewer batch counts / machine counts) for
    smoke tests, keeping the headline comparison intact. ``preempt``
    extends the throughput experiment with the FIFO-versus-preemptive
    serving comparison (``vcrepro experiment throughput --preempt``);
    ``multi_tenant`` adds the single-tenant-versus-multi-tenant A/B
    (tenant quotas, Table-4 engine routing, and the content-keyed
    result cache; ``vcrepro experiment throughput --multi-tenant``).
    ``calibrate`` adds the static-versus-calibrated serving A/B
    (online ask-tell cost-model refits on a deadline-bearing stream;
    ``vcrepro experiment throughput --calibrate``).

    ``jobs`` is accepted only as ``1``: every experiment runs in this
    process. The field is kept for the layered benchmark's
    ``report_quick`` workload, which still builds
    ``ExperimentConfig(quick=True, jobs=1, seed=...)``; ROADMAP item 2
    removes it together with that caller.
    """

    scale: int = DEFAULT_SCALE
    seed: int = DEFAULT_SEED
    quick: bool = False
    jobs: int = 1
    preempt: bool = False
    multi_tenant: bool = False
    calibrate: bool = False

    def __post_init__(self) -> None:
        if self.jobs != 1:
            raise ConfigurationError(
                "jobs must be 1 (experiments run in one process), "
                f"got {self.jobs!r}"
            )


@dataclass
class ExperimentResult:
    """A reproduced figure/table: rows of measurements plus context.

    ``rows`` are dictionaries sharing ``columns`` as keys. ``claims``
    records the paper's qualitative claims this experiment checks, each
    mapped to a bool measured outcome (filled by ``check()`` logic in
    the experiment module).
    """

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    paper_summary: str = ""
    notes: str = ""
    claims: Dict[str, bool] = field(default_factory=dict)
    #: side-channel payloads (e.g. the throughput experiment's
    #: resilience counters) that callers persist outside the table.
    extras: Dict[str, Any] = field(default_factory=dict)

    def add_row(self, **values: Any) -> None:
        """Append one table row (column -> value)."""
        self.rows.append(values)

    def claim(self, description: str, holds: bool) -> None:
        """Record one qualitative paper claim and whether we measured it."""
        self.claims[description] = bool(holds)

    @property
    def claims_held(self) -> int:
        return sum(1 for v in self.claims.values() if v)

    def all_claims_hold(self) -> bool:
        """True when every recorded paper claim was measured to hold."""
        return all(self.claims.values()) if self.claims else True

    def to_text(self) -> str:
        """Render the result as an aligned text table with claim list."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        if self.paper_summary:
            lines.append(f"paper: {self.paper_summary}")
        lines.append(format_table(self.columns, self.rows))
        if self.claims:
            lines.append("claims:")
            for text, holds in self.claims.items():
                status = "HOLDS" if holds else "DIFFERS"
                lines.append(f"  [{status}] {text}")
        if self.notes:
            lines.append(f"notes: {self.notes}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """Render the result as Markdown (used for EXPERIMENTS.md)."""
        lines = [f"### {self.experiment_id}: {self.title}", ""]
        if self.paper_summary:
            lines += [f"*Paper:* {self.paper_summary}", ""]
        header = "| " + " | ".join(self.columns) + " |"
        divider = "|" + "|".join("---" for _ in self.columns) + "|"
        lines += [header, divider]
        for row in self.rows:
            lines.append(
                "| "
                + " | ".join(_cell(row.get(col, "")) for col in self.columns)
                + " |"
            )
        if self.claims:
            lines.append("")
            for text, holds in self.claims.items():
                mark = "✅" if holds else "⚠️"
                lines.append(f"- {mark} {text}")
        if self.notes:
            lines += ["", f"*Notes:* {self.notes}"]
        lines.append("")
        return "\n".join(lines)


def _cell(value: Any) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.3g}"
    return str(value)


def format_table(
    columns: Sequence[str], rows: Sequence[Dict[str, Any]]
) -> str:
    """Plain-text aligned table."""
    widths = {col: len(col) for col in columns}
    rendered: List[Dict[str, str]] = []
    for row in rows:
        out = {col: _cell(row.get(col, "")) for col in columns}
        rendered.append(out)
        for col in columns:
            widths[col] = max(widths[col], len(out[col]))
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    sep = "  ".join("-" * widths[col] for col in columns)
    body = [
        "  ".join(row[col].ljust(widths[col]) for col in columns)
        for row in rendered
    ]
    return "\n".join([header, sep] + body)


def time_cell(metrics) -> str:
    """Time string the way the paper prints it."""
    return metrics.time_label()


def best_finite_batch(
    runs: Sequence, batch_counts: Optional[Sequence[int]] = None
) -> Optional[int]:
    """Batch count of the fastest non-overloaded run, or None."""
    finite = [m for m in runs if not m.overloaded]
    if not finite:
        return None
    best = min(finite, key=lambda m: m.seconds)
    return best.num_batches
