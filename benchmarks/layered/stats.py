"""Order statistics and the regression verdict shared by every mode.

Pure standard library: the orchestrator imports this module without
``repro`` or numpy on the path.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: A percentile is only reported with at least this many samples
#: beyond it (choosing-metrics guide, section 1).
MIN_SAMPLES_BEYOND = 10

#: "Every sample of one side beats every sample of the other" resolves a
#: noisy comparison only from this many samples a side (by chance: 1 in
#: 252 at five a side, 1 in 20 at three).
MIN_SAMPLES_TO_DOMINATE = 5


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them; a single sample is its own quartiles."""
    data = [float(v) for v in values]
    if not data:
        raise ValueError("no samples")
    if len(data) == 1:
        return data[0], data[0], data[0]
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 when the
    median is 0, which only an all-zero sample produces)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def supported_percentile(samples: int, wanted: float) -> float:
    """The highest percentile ``<= wanted`` that keeps
    :data:`MIN_SAMPLES_BEYOND` samples beyond it; 50 at the least, so a
    tiny sample still reports its median."""
    if samples <= 0:
        raise ValueError("no samples")
    limit = (100 * (samples - MIN_SAMPLES_BEYOND)) // samples  # whole percentiles
    return max(50.0, min(float(wanted), float(limit)))


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile by linear interpolation (the definition
    ``repro.sim.metrics.percentile`` uses for latency tables)."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(values: Sequence[float], wanted: float) -> Tuple[float, float]:
    """``(value, percentile_used)``: the wanted percentile when the
    sample supports it, else the highest one that does."""
    used = supported_percentile(len(values), wanted)
    return percentile(values, used), used


# ----------------------------------------------------------------------
# Regression verdicts
# ----------------------------------------------------------------------
def worse_by(better: str, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base`` as a share of ``base``
    (negative when it improved)."""
    if base == 0:
        return 0.0 if new == 0 else math.inf
    delta = (new - base) / abs(base)
    return delta if better == "lower" else -delta


def verdict(
    better: str,
    bound: float,
    base: Sequence[float],
    new: Sequence[float],
    floor: float = 0.0,
) -> Dict[str, object]:
    """Compare two sample sets of one metric on one workload.

    ``worse`` needs the medians to differ by more than ``bound`` (a
    share of the base median) *and* more than ``floor`` (absolute, the
    issue's "and > 0.1 s" clause); ``better`` is the mirror image.
    Where either side's inter-quartile spread exceeds the bound — or is
    unknown, with fewer than three samples of a value that varies — the
    comparison is ``unresolved``, never ``within``, unless every sample
    of one side beats every sample of the other (five or more a side).
    """
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    share = worse_by(better, bmed, nmed)
    absolute = abs(nmed - bmed)
    constant = len(set(base) | set(new)) == 1
    few = min(len(base), len(new)) < 3 and not constant
    noisy = few or max(spread(base), spread(new)) > bound
    enough = min(len(base), len(new)) >= MIN_SAMPLES_TO_DOMINATE
    if better == "lower":
        all_better = enough and max(new) < min(base)
        all_worse = enough and min(new) > max(base)
    else:
        all_better = enough and min(new) > max(base)
        all_worse = enough and max(new) < min(base)
    if share > bound and absolute > floor:
        label = "worse" if (not noisy or all_worse) else "unresolved"
    elif share < -bound and absolute > floor:
        label = "better" if (not noisy or all_better) else "unresolved"
    else:
        label = "unresolved" if noisy else "within"
    return {
        "verdict": label,
        "base": {"q1": bq1, "median": bmed, "q3": bq3, "n": len(base)},
        "new": {"q1": nq1, "median": nmed, "q3": nq3, "n": len(new)},
        "ratio": (nmed / bmed) if bmed else None,
        "worse_by": share,
    }


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """``{median, q1, q3, n, spread}`` of one metric's samples."""
    q1, median, q3 = quartiles(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": spread(values),
    }


def format_table(rows: List[Sequence[object]], header: Optional[Sequence[str]] = None) -> str:
    """Left-aligned text table."""
    table = [list(map(str, header))] if header else []
    table += [list(map(str, row)) for row in rows]
    if not table:
        return ""
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    if header:
        lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)
