"""Lightweight phase-timing instrumentation.

The library accumulates wall-clock spans per *phase* — ``graph-gen``,
``partition``, ``mirror-plan``, ``kernel``, ``cost-model``, plus one
span per experiment — into a process-global table with near-zero
overhead (one ``perf_counter`` pair per span). ``vcrepro report``
surfaces the table and dumps it as ``BENCH_perf.json`` so successive
PRs accumulate a performance trajectory to regress against.

Hot paths use the raw :func:`add` accumulator instead of the
:func:`span` context manager; the engine's round loop sums its two
phases in locals and books them once per batch (``count`` = rounds).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.perf import memory

__all__ = [
    "PhaseTotal",
    "add",
    "span",
    "snapshot",
    "reset",
    "render_table",
    "write_json",
]


@dataclass
class PhaseTotal:
    """Accumulated wall-clock total of one phase."""

    seconds: float = 0.0
    count: int = 0

    def to_dict(self) -> Dict[str, float]:
        """Plain-dict form for snapshots and ``BENCH_perf.json``."""
        return {"seconds": self.seconds, "count": self.count}


#: phase name -> accumulated total (process-global).
_TIMINGS: Dict[str, PhaseTotal] = {}


def add(name: str, seconds: float, count: int = 1) -> None:
    """Accumulate ``seconds`` under phase ``name`` (hot-path entry point)."""
    total = _TIMINGS.get(name)
    if total is None:
        total = _TIMINGS[name] = PhaseTotal()
    total.seconds += seconds
    total.count += count
    # Piggyback the per-phase RSS high-water sampling on the timing
    # ticks: the throttle inside note_phase keeps this off the hot
    # path (one /proc read per SAMPLE_EVERY calls per phase).
    memory.note_phase(name, sampled=True)


@contextmanager
def span(name: str) -> Iterator[None]:
    """Time the enclosed block and accumulate it under phase ``name``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        add(name, time.perf_counter() - start)


def snapshot() -> Dict[str, Dict[str, float]]:
    """Copy of the accumulated phase table ({name: {seconds, count}})."""
    return {name: total.to_dict() for name, total in _TIMINGS.items()}


def reset() -> None:
    """Drop all accumulated spans (tests and fresh CLI invocations)."""
    _TIMINGS.clear()


def render_table(
    timings: Optional[Dict[str, Dict[str, float]]] = None,
    subphases: bool = True,
) -> str:
    """Aligned text table of phase totals, slowest first.

    Dotted names (``kernel.expand``, ``kernel.reduce``, ...) are
    sub-phases of their prefix; ``subphases=False`` hides them for the
    compact top-level view (``vcrepro report`` without ``--phases``).
    """
    data = timings if timings is not None else snapshot()
    if not subphases:
        data = {name: total for name, total in data.items() if "." not in name}
    if not data:
        return "(no timing spans recorded)"
    rows = sorted(data.items(), key=lambda kv: -kv[1]["seconds"])
    width = max(len(name) for name, _ in rows)
    lines = [f"{'phase'.ljust(width)}  {'seconds':>9}  {'count':>8}"]
    lines.append(f"{'-' * width}  {'-' * 9}  {'-' * 8}")
    for name, total in rows:
        lines.append(
            f"{name.ljust(width)}  {total['seconds']:>9.3f}"
            f"  {int(total['count']):>8d}"
        )
    return "\n".join(lines)


def write_json(path: str, extra: Optional[dict] = None) -> str:
    """Write the phase table (plus ``extra`` metadata) as JSON to ``path``."""
    payload = dict(extra or {})
    payload["phases"] = snapshot()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
