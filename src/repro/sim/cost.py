"""The round-time composition model.

Engines execute the real algorithms, then describe each communication
round as a :class:`RoundLoad` (bottleneck-machine message counts, bytes,
compute work, memory peak, spill volume). :class:`CostModel` turns one
load into a :class:`RoundCost`:

``t = (t_compute + t_network + t_overhead) * thrash + t_disk + t_barrier``

with the network congestion knee (:mod:`repro.cluster.network`), disk
saturation (:mod:`repro.cluster.disk`), the paging thrash multiplier
(:mod:`repro.sim.overload`), and a per-round fixed overhead plus a
synchronisation barrier that grows with the machine count — the term that
makes *too many* batches slow (Table 3 rows past the optimum; "the
running time can increase because of the round-synchronization
overheads").

Pricing runs in two stages (DESIGN.md §10.2): everything left of
``* thrash`` follows from the load alone (:meth:`CostModel.demand`, a
record a caller may keep and hand back); the rest depends on the memory
the round lands on, which only :meth:`CostModel.round_cost` sees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.disk import DiskModel, DiskSpec
from repro.cluster.machine import MachineSpec
from repro.cluster.network import NetworkModel, NetworkSpec, RoundNetworkUsage
from repro.errors import ConfigurationError
from repro.sim.overload import MemoryState, OverloadPolicy, classify_memory


@dataclass(frozen=True)
class RoundLoad:
    """What one communication round demands of the bottleneck machine."""

    #: messages crossing the network cluster-wide this round.
    network_messages: float
    #: messages delivered machine-locally this round (no network cost).
    local_messages: float
    #: network bytes in+out at the most loaded machine.
    bottleneck_bytes: float
    #: compute work units at the most loaded machine.
    compute_ops: float
    #: peak memory the round itself needs at the most loaded machine
    #: (Equation 1's in-flight term); the residual memory it lands on
    #: is :meth:`CostModel.round_cost`'s ``residual_bytes``.
    peak_memory_bytes: float
    #: bytes streamed through the disk at the most loaded machine.
    spilled_bytes: float = 0.0
    #: average serialized message size (for queue-length reporting).
    message_bytes: float = 16.0
    #: total network bytes moved cluster-wide this round (drives the
    #: fabric-level congestion knee).
    cluster_bytes: float = 0.0
    #: identical sub-steps the round runs as (superstep splitting): the
    #: other fields describe one, the cost is ``splits`` times one's.
    splits: int = 1


@dataclass(frozen=True)
class RoundDemand:
    """Stage 1 of a round's price: a :class:`RoundLoad` and the cost
    terms it alone decides — the same wherever the round lands in
    memory, so a caller may price once and land many times."""

    load: RoundLoad
    compute_seconds: float
    #: the priced (not yet booked) network transfer.
    network: RoundNetworkUsage
    #: ``compute + network + per-round overhead``, before thrash.
    worked_seconds: float


@dataclass
class RoundCost:
    """Simulated time of one round, decomposed."""

    seconds: float
    compute_seconds: float
    network_seconds: float
    disk_seconds: float
    barrier_seconds: float
    overhead_seconds: float
    thrash_multiplier: float
    memory_state: MemoryState
    disk_utilization: float = 0.0
    io_queue_length: float = 0.0
    network_saturated: bool = False
    #: the load's own peak plus the residual memory it landed on.
    peak_memory_bytes: float = 0.0

    @property
    def overloaded(self) -> bool:
        return self.memory_state is MemoryState.OVERLOADED


@dataclass
class CostModel:
    """Engine + cluster flavoured time model.

    Parameters
    ----------
    machine:
        scaled machine spec of the target cluster.
    network_spec:
        scaled network spec of the target cluster.
    disk_spec:
        scaled disk spec; only consulted when rounds spill bytes.
    num_machines:
        cluster size (drives the barrier term).
    cpu_factor:
        language/runtime multiplier on compute time (C++ 1.0, JVM ~2.4).
    barrier_base_seconds / barrier_per_machine_seconds:
        synchronisation barrier cost per round; zero for fully
        asynchronous engines.
    per_round_overhead_seconds:
        fixed per-round dispatch cost (superstep setup, RPC fan-out).
    overload_policy:
        paging penalty shape.
    memory_capped:
        out-of-core engines bound their memory use explicitly and
        therefore never thrash or overload on memory (GraphD); they pay
        disk time instead.
    """

    machine: MachineSpec
    network_spec: NetworkSpec
    disk_spec: Optional[DiskSpec] = None
    num_machines: int = 1
    cpu_factor: float = 1.0
    barrier_base_seconds: float = 0.05
    barrier_per_machine_seconds: float = 0.012
    per_round_overhead_seconds: float = 0.02
    overload_policy: OverloadPolicy = field(default_factory=OverloadPolicy)
    memory_capped: bool = False

    def __post_init__(self) -> None:
        if self.num_machines <= 0:
            raise ConfigurationError("num_machines must be positive")
        if self.cpu_factor <= 0:
            raise ConfigurationError("cpu_factor must be positive")
        self._network = NetworkModel(self.network_spec, num_machines=self.num_machines)
        self._disk = DiskModel(self.disk_spec) if self.disk_spec else None

    # ------------------------------------------------------------------
    @property
    def network_model(self) -> NetworkModel:
        return self._network

    @property
    def disk_model(self) -> Optional[DiskModel]:
        return self._disk

    def barrier_seconds(self) -> float:
        """Per-round synchronisation barrier cost."""
        return (
            self.barrier_base_seconds
            + self.barrier_per_machine_seconds * self.num_machines
        )

    def compute_seconds(self, compute_ops: float) -> float:
        """Time for the bottleneck machine's local computation."""
        throughput = (
            self.machine.cores * self.machine.compute_ops_per_second
        ) / self.cpu_factor
        return compute_ops / throughput

    def demand(self, load: RoundLoad) -> RoundDemand:
        """Stage 1: price what ``load`` demands, wherever it lands.

        Pure — reads neither ``load.peak_memory_bytes`` nor any
        accumulated state, and books nothing.
        """
        compute = self.compute_seconds(load.compute_ops)
        network = self._network.price(load.bottleneck_bytes, load.cluster_bytes)
        worked = (
            compute + network.total_seconds + self.per_round_overhead_seconds
        )
        return RoundDemand(load, compute, network, worked)

    def round_cost(
        self,
        load: RoundLoad,
        demand: Optional[RoundDemand] = None,
        residual_bytes: float = 0.0,
    ) -> RoundCost:
        """Price one round. See the module docstring for the composition.

        ``demand`` is ``self.demand(load)`` when the caller kept it from
        an earlier pricing of the same load (computed here otherwise).
        ``residual_bytes`` is the per-machine residual memory the round
        lands on: Equation 1's sum of the two decides the memory state.
        """
        if demand is None:
            demand = self.demand(load)
        network = demand.network
        self._network.book(network)
        barrier = self.barrier_seconds()
        peak = load.peak_memory_bytes + residual_bytes

        if self.memory_capped:
            state = MemoryState.OK
            thrash = 1.0
        else:
            state = classify_memory(peak, self.machine)
            thrash = self.overload_policy.thrash_multiplier(peak, self.machine)

        worked = demand.worked_seconds * thrash

        disk_seconds = 0.0
        disk_utilization = 0.0
        io_queue = 0.0
        if self._disk is not None and load.spilled_bytes > 0:
            usage = self._disk.round_time(
                load.spilled_bytes,
                other_seconds=worked + barrier,
                message_bytes=load.message_bytes,
            )
            disk_seconds = max(0.0, usage.round_seconds - (worked + barrier))
            disk_utilization = usage.utilization
            io_queue = usage.queue_length

        # The finished sub-step, ``splits`` times over. Positional, in
        # field order: this runs once per simulated round, and keyword
        # binding is a third of the call.
        splits = load.splits
        return RoundCost(
            (worked + barrier + disk_seconds) * splits,
            demand.compute_seconds * splits,
            network.total_seconds * splits,
            disk_seconds * splits,
            barrier * splits,
            self.per_round_overhead_seconds * splits,
            thrash,
            state,
            disk_utilization,
            io_queue,
            network.saturated,
            peak,
        )

    def overuse_totals(self) -> dict:
        """Network/IO overuse durations accumulated so far (Table 2/3)."""
        totals = {
            "network_overuse_seconds": self._network.overuse_seconds(),
            "io_overuse_seconds": 0.0,
        }
        if self._disk is not None:
            totals["io_overuse_seconds"] = self._disk.overuse_seconds()
        return totals

    def reset(self) -> None:
        """Clear accumulated per-round state between batches/jobs."""
        self._network.reset()
        if self._disk is not None:
            self._disk.reset()
