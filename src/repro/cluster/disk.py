"""Disk model for out-of-core engines (GraphD).

Section 4.4 of the paper shows GraphD's performance is governed by *disk
utilisation*: when per-round spill traffic saturates the disk (100 %
utilisation), messages queue and latency explodes; once the batch count
is large enough that utilisation drops below 100 %, further batching only
adds round-synchronisation overhead (Table 3). :class:`DiskModel`
reproduces those quantities: busy time, utilisation (reported as the
demand ratio, so saturated rounds read as ">100 %" exactly like the
paper's Table 3), overuse duration, and I/O queue length.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import MB


@dataclass(frozen=True)
class DiskSpec:
    """Static disk parameters.

    ``kind`` is cosmetic ("hdd"/"ssd"); behaviour differences come from
    ``bandwidth_bytes_per_second`` and ``seek_overhead_seconds`` (per
    spill burst, modelling head movement on HDDs).
    """

    bandwidth_bytes_per_second: float
    seek_overhead_seconds: float = 0.0
    kind: str = "hdd"

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_second <= 0:
            raise ConfigurationError("disk bandwidth must be positive")
        if self.seek_overhead_seconds < 0:
            raise ConfigurationError("seek overhead must be non-negative")


#: 7200 rpm HDD of the Galaxy machines: ~170 MB/s sequential streaming
#: (GraphD's spill pattern is long sequential writes and read-backs).
GALAXY_HDD = DiskSpec(
    bandwidth_bytes_per_second=170 * MB, seek_overhead_seconds=0.008, kind="hdd"
)

#: SATA SSD of the Docker-32 nodes: ~450 MB/s, negligible seeks.
DOCKER_SSD = DiskSpec(
    bandwidth_bytes_per_second=450 * MB, seek_overhead_seconds=0.0001, kind="ssd"
)


@dataclass
class RoundDiskUsage:
    """Disk activity of one machine in one round.

    ``demand_ratio`` is busy time over the round's non-disk time: values
    above 1.0 mean the round produces spill faster than the disk drains
    it — the paper's "> 100 %" utilisation state.
    """

    busy_seconds: float
    round_seconds: float
    spilled_bytes: float
    queue_length: float
    demand_ratio: float

    @property
    def utilization(self) -> float:
        """Utilisation as Table 3 reports it (may exceed 1.0)."""
        return self.demand_ratio

    @property
    def saturated(self) -> bool:
        return self.demand_ratio >= 1.0


@dataclass
class DiskModel:
    """Accumulates disk activity across rounds for one machine.

    ``saturation_penalty_exponent`` controls how sharply latency grows
    once demanded bandwidth exceeds what the disk provides; Table 3's
    jump from 201 s (27 % util) to 285 s (>100 % util, queue 20256)
    calibrates it. Rounds fold into running aggregates as they are
    priced: no per-round history.
    """

    spec: DiskSpec
    saturation_penalty_exponent: float = 1.35

    def __post_init__(self) -> None:
        self.reset()

    def round_time(
        self, spilled_bytes: float, other_seconds: float, message_bytes: float
    ) -> RoundDiskUsage:
        """Compute one round's disk usage.

        Parameters
        ----------
        spilled_bytes:
            message bytes streamed through the disk this round.
        other_seconds:
            non-disk time of the round (compute + network + barrier);
            disk I/O overlaps with it.
        message_bytes:
            average message size, used to report queue length in
            *messages* as Table 3 does.

        Returns the usage record (also folded into the aggregates). The
        caller adds ``round_seconds - other_seconds`` — the
        non-overlapped disk time, inflated by the saturation penalty —
        to the round time.
        """
        if spilled_bytes <= 0:
            # Idle disk: nothing any aggregate counts.
            return RoundDiskUsage(
                0.0, max(other_seconds, 1e-12), 0.0, 0.0, 0.0
            )
        busy = (
            spilled_bytes / self.spec.bandwidth_bytes_per_second
            + self.spec.seek_overhead_seconds
        )
        # Demand ratio > 1 means the round generates spill faster than the
        # disk drains it; the excess waits in the I/O queue.
        demand_ratio = busy / max(other_seconds, 1e-9)
        if demand_ratio > 1.0:
            overflow = busy - other_seconds
            penalty = overflow * (
                demand_ratio ** (self.saturation_penalty_exponent - 1.0)
            )
            round_seconds = other_seconds + overflow + penalty
            backlog_bytes = overflow * self.spec.bandwidth_bytes_per_second
            queue_length = backlog_bytes / max(message_bytes, 1.0)
        else:
            round_seconds = max(other_seconds, busy)
            # Light load: the queue holds roughly what is in flight.
            queue_length = demand_ratio * 64.0
        usage = RoundDiskUsage(
            busy_seconds=busy,
            round_seconds=round_seconds,
            spilled_bytes=spilled_bytes,
            queue_length=queue_length,
            demand_ratio=demand_ratio,
        )
        if usage.saturated:
            self._overuse_seconds += round_seconds
        self._max_utilization = max(self._max_utilization, demand_ratio)
        self._active_rounds += 1
        self._queue_length += queue_length
        self._spilled_bytes += spilled_bytes
        return usage

    # ------------------------------------------------------------------
    # Aggregates (Table 3 columns)
    # ------------------------------------------------------------------
    def overuse_seconds(self) -> float:
        """Total duration spent at 100 % utilisation ("Overuse Time I/O")."""
        return self._overuse_seconds

    def max_utilization(self) -> float:
        """Peak per-round demand ratio across the run (may exceed 1.0)."""
        return self._max_utilization

    def total_spilled_bytes(self) -> float:
        """Bytes streamed through the disk across all rounds."""
        return self._spilled_bytes

    def reset(self) -> None:
        """Clear the accumulated aggregates."""
        # Integer zero, as ``sum`` over no rounds gave: a run that never
        # saturates the disk packs ``0``, and job payloads keep the byte.
        self._overuse_seconds = 0
        self._max_utilization = 0.0
        self._active_rounds = 0
        self._queue_length = 0.0
        self._spilled_bytes = 0
