"""Graceful overload degradation: abort, re-split, retry.

Instead of only stamping the paper's 6000 s cutoff on an OVERLOADED
batch, :class:`OverloadRecovery` describes how the batching executor
reacts: the failing batch is aborted as soon as overload is detected
(paying only the time actually elapsed plus an abort overhead), the
remaining workload is re-split into smaller *front-loaded* batches
(earlier batches larger, per Section 4.5: residual memory grows with
processed workload, so the headroom shrinks batch by batch), and the
attempt is recorded in the job's retry history — turning the tuner into
a closed loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.errors import ConfigurationError

#: Hard cap on how many batches a re-split may produce per attempt.
MAX_RESPLIT_BATCHES = 64


def front_loaded_split(
    workload: float, num_batches: int, decay: float = 0.7
) -> List[float]:
    """Split ``workload`` into ``num_batches`` geometrically decreasing
    batches (weights ``decay**i``).

    Integer workloads stay integral via largest-remainder rounding, and
    every batch holds at least one unit. ``decay=1.0`` degenerates to
    equal batches.
    """
    if workload <= 0:
        raise ConfigurationError("workload must be positive")
    if num_batches < 1:
        raise ConfigurationError("num_batches must be at least 1")
    if not 0.0 < decay <= 1.0:
        raise ConfigurationError("decay must be in (0, 1]")
    integral = float(workload).is_integer()
    if integral and num_batches > workload:
        num_batches = int(workload)
    weights = [decay**i for i in range(num_batches)]
    total_weight = sum(weights)
    shares = [workload * w / total_weight for w in weights]
    if not integral:
        return shares
    # Largest-remainder rounding with a floor of one unit per batch.
    floors = [max(1, int(s)) for s in shares]
    remainder = int(workload) - sum(floors)
    if remainder < 0:
        # Floors overshot (tiny tail batches rounded up to 1): take the
        # excess back from the front, which holds the largest batches.
        for i in range(num_batches):
            give = min(floors[i] - 1, -remainder)
            floors[i] -= give
            remainder += give
            if remainder == 0:
                break
    else:
        order = sorted(
            range(num_batches),
            key=lambda i: shares[i] - int(shares[i]),
            reverse=True,
        )
        for step in range(remainder):
            floors[order[step % num_batches]] += 1
    return [float(f) for f in floors]


@dataclass(frozen=True)
class OverloadRecovery:
    """Policy for retrying an overloaded multi-processing job.

    Attributes
    ----------
    max_retries:
        how many re-split attempts are allowed before the executor gives
        up with a :class:`~repro.errors.RecoveryError`.
    split_factor:
        the failing batch's workload is divided by this factor to set
        the target batch size of the re-split (2 = halve, matching the
        paper's doubling batch axis).
    decay:
        front-loading decay of the re-split schedule (see
        :func:`front_loaded_split`).
    abort_overhead_seconds:
        fixed cost of detecting the overload and tearing the batch down
        (buffer teardown, result discard) charged to the aborted batch.
    """

    max_retries: int = 3
    split_factor: int = 2
    decay: float = 0.7
    abort_overhead_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        if self.split_factor < 2:
            raise ConfigurationError("split_factor must be at least 2")
        if not 0.0 < self.decay <= 1.0:
            raise ConfigurationError("decay must be in (0, 1]")
        if self.abort_overhead_seconds < 0:
            raise ConfigurationError(
                "abort_overhead_seconds must be non-negative"
            )

    def resplit(
        self, remaining_workload: float, failed_batch_workload: float
    ) -> List[float]:
        """Schedule for the workload left after an aborted batch.

        The target batch size is the failed batch's workload divided by
        ``split_factor``; the remaining workload (which includes the
        failed batch's units) is cut into that many front-loaded pieces.
        """
        if remaining_workload <= 0:
            raise ConfigurationError("remaining workload must be positive")
        if failed_batch_workload <= 0:
            raise ConfigurationError("failed batch workload must be positive")
        target = max(failed_batch_workload / self.split_factor, 1.0)
        count = int(math.ceil(remaining_workload / target))
        count = max(self.split_factor, count)
        count = min(count, MAX_RESPLIT_BATCHES)
        if float(remaining_workload).is_integer():
            count = min(count, int(remaining_workload))
        return front_loaded_split(remaining_workload, count, decay=self.decay)
