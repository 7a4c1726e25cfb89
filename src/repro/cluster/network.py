"""Network model: bandwidth, the congestion knee, and overuse accounting.

Figure 6 of the paper shows the defining nonlinearity of multi-processing:
message volume scales linearly with workload (63.7M → 633.2M per round for
a 10× workload increase) while running time scales *super*-linearly
(173.3 s → 6641.5 s) — "a certain congestion threshold is met". The model
here is a piecewise transfer function: below the per-machine, per-round
congestion threshold, transfer time is volume / bandwidth; above it, an
additional superlinear penalty term models TCP incast, buffer exhaustion
and serialisation queues. Tables 2 and 3 additionally report *network
overuse time* — the duration the link spends at maximum bandwidth — which
the model tracks per round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.units import GB, MB


@dataclass(frozen=True)
class NetworkSpec:
    """Static link parameters (per machine).

    Attributes
    ----------
    bandwidth_bytes_per_second:
        effective full-duplex NIC goodput available to the VC-system.
    congestion_threshold_bytes:
        *per-machine* contribution to the per-round traffic the fabric
        sustains before collective queueing effects (incast, switch
        buffer exhaustion) kick in; the cost model multiplies by the
        machine count to obtain the cluster-wide knee. Already divided
        by the simulation scale, like machine memory.
    knee_exponent:
        exponent of the superlinear penalty past the threshold; Figure 6
        (~38x time for ~10x messages at the 1-batch setting) calibrates
        the default together with ``knee_coefficient``.
    knee_coefficient:
        multiplier of the penalty term.
    """

    bandwidth_bytes_per_second: float
    congestion_threshold_bytes: float
    knee_exponent: float = 2.0
    knee_coefficient: float = 1.0

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_second <= 0:
            raise ConfigurationError("network bandwidth must be positive")
        if self.congestion_threshold_bytes <= 0:
            raise ConfigurationError("congestion threshold must be positive")
        if self.knee_exponent < 1.0:
            raise ConfigurationError("knee exponent must be >= 1")
        if self.knee_coefficient < 0:
            raise ConfigurationError("knee coefficient must be >= 0")

    def scaled(self, scale: float) -> "NetworkSpec":
        """Divide volume-like quantities by the simulation scale."""
        if scale <= 0:
            raise ConfigurationError("scale must be positive")
        return NetworkSpec(
            bandwidth_bytes_per_second=self.bandwidth_bytes_per_second / scale,
            congestion_threshold_bytes=self.congestion_threshold_bytes / scale,
            knee_exponent=self.knee_exponent,
            knee_coefficient=self.knee_coefficient,
        )


#: Gigabit Ethernet of the Galaxy clusters. Bandwidth is the *effective
#: goodput* for VC-system message traffic (small messages, many peers),
#: roughly a third of line rate. The cluster-wide knee at 20 GB/round is
#: triangulated from the paper: DBLP W=10240 at 1 batch (~37 GB/round
#: cluster-wide) runs 3.65x over its transfer baseline (Figure 6), at
#: 2 batches (~19 GB) it is baseline-linear, and Table 2's (4096, 4
#: machines, 1 batch) at ~15 GB stays linear too.
GALAXY_NETWORK = NetworkSpec(
    bandwidth_bytes_per_second=45 * MB,
    congestion_threshold_bytes=2.5 * GB,
    knee_exponent=1.0,
    knee_coefficient=11.0,
)

#: 10 GbE fabric of the Docker-32 cloud (shared tenancy keeps effective
#: goodput well below line rate; deeper switch buffers push the knee up).
DOCKER_NETWORK = NetworkSpec(
    bandwidth_bytes_per_second=90 * MB,
    congestion_threshold_bytes=3.0 * GB,
    knee_exponent=1.0,
    knee_coefficient=11.0,
)


@dataclass
class RoundNetworkUsage:
    """Network activity of one machine in one round."""

    transfer_seconds: float
    penalty_seconds: float
    bytes_moved: float
    saturated: bool
    #: this round's share of :meth:`NetworkModel.overuse_seconds`.
    overuse_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.transfer_seconds + self.penalty_seconds


@dataclass
class NetworkModel:
    """Accumulates network activity across rounds for the bottleneck
    machine of each round (the synchronous barrier waits for it).

    Pricing a round (:meth:`price`, pure) is apart from booking it
    (:meth:`book`), so a caller may book a usage it priced earlier.
    Booked rounds fold into running totals: no per-round history.
    """

    spec: NetworkSpec
    num_machines: int = 1

    def __post_init__(self) -> None:
        self.reset()

    @property
    def cluster_threshold_bytes(self) -> float:
        """Cluster-wide congestion knee (per-machine budget x machines)."""
        return self.spec.congestion_threshold_bytes * self.num_machines

    def price(
        self, bytes_moved: float, cluster_bytes: Optional[float] = None
    ) -> RoundNetworkUsage:
        """Time to move ``bytes_moved`` through one machine's link.

        The base cost is linear in the bottleneck machine's bytes. The
        congestion penalty is governed by ``cluster_bytes`` — the round's
        *total* network traffic — because the collapse is a fabric-level
        effect (incast, switch buffers): once the cluster-wide volume
        exceeds the threshold, the bottleneck link pays
        ``coeff · base_time · excess_ratio^knee`` extra.

        The round's overuse share is the duration its link spends at
        maximum bandwidth ("Overuse Time Network"): any round that
        actually moves bytes runs the link flat-out for its transfer
        portion, so a saturated round counts in full and an unsaturated
        one in proportion to its load, matching how the paper's
        monitors sample bandwidth caps.
        """
        if bytes_moved <= 0:
            return RoundNetworkUsage(0.0, 0.0, 0.0, False)
        if cluster_bytes is None:
            cluster_bytes = bytes_moved
        base = bytes_moved / self.spec.bandwidth_bytes_per_second
        threshold = self.cluster_threshold_bytes
        if cluster_bytes > threshold:
            excess_ratio = (cluster_bytes - threshold) / threshold
            penalty = (
                self.spec.knee_coefficient
                * base
                * (excess_ratio ** self.spec.knee_exponent)
            )
            saturated = True
            overuse = base + penalty
        else:
            penalty = 0.0
            saturated = False
            overuse = base * min(1.0, cluster_bytes / threshold)
        return RoundNetworkUsage(
            transfer_seconds=base,
            penalty_seconds=penalty,
            bytes_moved=bytes_moved,
            saturated=saturated,
            overuse_seconds=overuse,
        )

    def book(self, usage: RoundNetworkUsage) -> None:
        """Fold one priced round into the running totals."""
        self._overuse_seconds += usage.overuse_seconds
        self._total_bytes += usage.bytes_moved

    def round_time(
        self, bytes_moved: float, cluster_bytes: Optional[float] = None
    ) -> RoundNetworkUsage:
        """Price one round and book it."""
        usage = self.price(bytes_moved, cluster_bytes)
        self.book(usage)
        return usage

    def overuse_seconds(self) -> float:
        """Duration spent at maximum bandwidth ("Overuse Time Network")."""
        return self._overuse_seconds

    def total_bytes(self) -> float:
        """Bytes moved by the bottleneck machine across all rounds."""
        return self._total_bytes

    def reset(self) -> None:
        """Clear the accumulated totals."""
        self._overuse_seconds = 0.0
        self._total_bytes = 0
