"""Peak-RSS accounting for reports and the out-of-core benchmarks.

The out-of-core pipeline (:mod:`repro.graph.build`, the block-streaming
kernels in :mod:`repro.graph.csr`) exists to bound resident memory, so
the reports have to *show* resident memory or the claim is
unverifiable. This module keeps two signals, both cheap enough to
leave on:

* the process-lifetime peak RSS from ``resource.getrusage`` — the
  kernel-maintained high-water mark, free to read;
* a per-phase high-water mark sampled from ``/proc/self/statm`` each
  time a phase timer fires (:func:`repro.perf.timings.add` calls
  :func:`note_phase`; sampling is throttled so hot kernel timers cost
  one ~1µs read every :data:`SAMPLE_EVERY` calls).

Everything degrades to ``None``/zero off Linux (no ``/proc``) or
without the :mod:`resource` module — gated, never crashing.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

try:  # pragma: no cover - absent only on non-POSIX platforms
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

__all__ = [
    "SAMPLE_EVERY",
    "rss_bytes",
    "peak_rss_bytes",
    "note_phase",
    "record_state_spill",
    "memory_stats",
    "reset_memory_state",
]

#: Throttle for sampled :func:`note_phase` calls: the kernel timers fire
#: tens of thousands of times per report run; reading ``statm`` on every
#: 64th call keeps the per-phase high-water marks honest (RSS moves on
#: allocation boundaries, not per-call) at ~0.1% of the naive cost.
SAMPLE_EVERY = 64

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096

#: Per-phase RSS high-water marks (phase name -> bytes) plus the
#: throttle counters driving the sampled reads.
_PHASES: Dict[str, int] = {}
_TICKS: Dict[str, int] = {}

#: Dense kernel-state matrices spilled to mapped scratch files under the
#: ``--max-ram`` budget (:func:`repro.tasks.base.alloc_state_matrix`).
_STATE_SPILLS: Dict[str, int] = {"count": 0, "bytes": 0}


def rss_bytes() -> Optional[int]:
    """Current resident set size, or ``None`` where ``/proc`` is absent."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            fields = fh.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return None


def peak_rss_bytes() -> Optional[int]:
    """Process-lifetime peak RSS (``ru_maxrss``), or ``None``.

    Linux reports ``ru_maxrss`` in kilobytes; macOS in bytes — both are
    monotone high-water marks, and the reports only compare like with
    like, so the Linux convention (×1024) is applied unconditionally on
    non-Darwin platforms.
    """
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak <= 0:
        return None
    import sys

    if sys.platform == "darwin":  # pragma: no cover - macOS units
        return int(peak)
    return int(peak) * 1024


def note_phase(name: str, sampled: bool = False) -> None:
    """Fold the current RSS into ``name``'s high-water mark.

    ``sampled=True`` is the hot-path form used by the timing
    accumulators: only every :data:`SAMPLE_EVERY`-th call per phase
    actually reads ``statm``.
    """
    if sampled:
        tick = _TICKS.get(name, 0)
        _TICKS[name] = tick + 1
        if tick % SAMPLE_EVERY:
            return
    current = rss_bytes()
    if current is None:
        return
    if current > _PHASES.get(name, 0):
        _PHASES[name] = current


def record_state_spill(nbytes: int) -> None:
    """Count one dense state matrix spilled to a mapped scratch file."""
    _STATE_SPILLS["count"] += 1
    _STATE_SPILLS["bytes"] += int(nbytes)


def memory_stats() -> Dict[str, object]:
    """The ``"memory"`` section of ``vcrepro report`` / BENCH_perf.json."""
    return {
        "peak_rss_bytes": peak_rss_bytes(),
        "current_rss_bytes": rss_bytes(),
        "state_spills": dict(_STATE_SPILLS),
        "phase_high_water_bytes": dict(sorted(_PHASES.items())),
    }


def reset_memory_state() -> None:
    """Forget phase marks and spill counts (tests, CLI startup).

    The lifetime ``ru_maxrss`` is kernel state and cannot be reset.
    """
    _PHASES.clear()
    _TICKS.clear()
    _STATE_SPILLS["count"] = 0
    _STATE_SPILLS["bytes"] = 0
