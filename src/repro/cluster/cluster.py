"""Cluster specifications and the paper's three testbed presets.

A :class:`ClusterSpec` bundles machine count, machine/disk/network specs
and the simulation ``scale``. The scale divides every *capacity-like*
quantity (memory, congestion threshold, bandwidth) by the same factor the
dataset node counts are divided by, so a workload number from the paper
(e.g. 10240 walks per node on DBLP with 8 machines) exercises the same
capacity ratios in simulation as on the real testbed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.cluster.disk import DOCKER_SSD, GALAXY_HDD, DiskSpec
from repro.cluster.machine import DOCKER_MACHINE, GALAXY_MACHINE, MachineSpec
from repro.cluster.network import DOCKER_NETWORK, GALAXY_NETWORK, NetworkSpec
from repro.errors import ConfigurationError
from repro.graph.datasets import DEFAULT_SCALE


@dataclass(frozen=True)
class ClusterSpec:
    """A simulated cluster.

    ``machine`` and ``network`` are stored *unscaled* (paper units); the
    ``scaled_machine`` / ``scaled_network`` properties apply ``scale``.
    Disk bandwidth is left unscaled deliberately: spill volume scales
    with the graph, so dividing volume by ``scale`` while keeping
    bandwidth constant would break the disk-utilisation ratios — instead
    the disk bandwidth is scaled too, via ``scaled_disk``.
    """

    name: str
    num_machines: int
    machine: MachineSpec
    disk: DiskSpec
    network: NetworkSpec
    scale: float = DEFAULT_SCALE
    kind: str = "local"
    #: cloud cost rate in credits per machine-hour; None for local clusters.
    credit_rate_per_machine_hour: Optional[float] = None

    def __post_init__(self) -> None:
        if self.num_machines <= 0:
            raise ConfigurationError("num_machines must be positive")
        if self.scale <= 0:
            raise ConfigurationError("scale must be positive")

    @property
    def scaled_machine(self) -> MachineSpec:
        return self.machine.scaled(self.scale)

    @property
    def scaled_network(self) -> NetworkSpec:
        return self.network.scaled(self.scale)

    @property
    def scaled_disk(self) -> DiskSpec:
        return DiskSpec(
            bandwidth_bytes_per_second=self.disk.bandwidth_bytes_per_second
            / self.scale,
            seek_overhead_seconds=self.disk.seek_overhead_seconds,
            kind=self.disk.kind,
        )

    @property
    def total_memory_bytes(self) -> float:
        """Cluster-wide scaled memory."""
        return self.num_machines * self.scaled_machine.memory_bytes

    def with_machines(self, num_machines: int) -> "ClusterSpec":
        """Same cluster with a different machine count (Fig 3c/5c/7c sweeps)."""
        return replace(self, num_machines=num_machines)

    def describe(self) -> str:
        """Human-readable one-liner for logs and examples."""
        machine = self.scaled_machine
        return (
            f"{self.name}: {self.num_machines} machines x "
            f"{machine.memory_bytes / 2**30:.3f} GiB (scaled 1/{self.scale:g}), "
            f"{machine.cores} cores, disk={self.disk.kind}"
        )


def galaxy8(scale: float = DEFAULT_SCALE) -> ClusterSpec:
    """The paper's Galaxy-8: 8 local machines, 16 GB, i7-3770, HDD."""
    return ClusterSpec(
        name="galaxy-8",
        num_machines=8,
        machine=GALAXY_MACHINE,
        disk=GALAXY_HDD,
        network=GALAXY_NETWORK,
        scale=scale,
        kind="local",
    )


def galaxy27(scale: float = DEFAULT_SCALE) -> ClusterSpec:
    """The paper's Galaxy-27: 27 machines with the Galaxy-8 spec."""
    return ClusterSpec(
        name="galaxy-27",
        num_machines=27,
        machine=GALAXY_MACHINE,
        disk=GALAXY_HDD,
        network=GALAXY_NETWORK,
        scale=scale,
        kind="local",
    )


def docker32(scale: float = DEFAULT_SCALE) -> ClusterSpec:
    """The paper's Docker-32: 32 cloud nodes, 16 GB, Xeon E5-2637v2, SSD.

    The credit rate is calibrated against Figure 7's dollar captions
    (e.g. 32 machines for ~1600 s at the optimum of Fig 7a cost $57).
    """
    return ClusterSpec(
        name="docker-32",
        num_machines=32,
        machine=DOCKER_MACHINE,
        disk=DOCKER_SSD,
        network=DOCKER_NETWORK,
        scale=scale,
        kind="cloud",
        credit_rate_per_machine_hour=4.0,
    )


def custom_cluster(
    num_machines: int,
    memory_gb: float = 16.0,
    cores: int = 8,
    disk: Optional[DiskSpec] = None,
    network: Optional[NetworkSpec] = None,
    scale: float = DEFAULT_SCALE,
    name: Optional[str] = None,
) -> ClusterSpec:
    """Build an ad-hoc local cluster for examples and what-if studies."""
    machine = MachineSpec(
        memory_bytes=memory_gb * 2**30,
        os_reserve_bytes=min(2.0, memory_gb / 8) * 2**30,
        cores=cores,
        compute_ops_per_second=GALAXY_MACHINE.compute_ops_per_second,
    )
    return ClusterSpec(
        name=name or f"custom-{num_machines}",
        num_machines=num_machines,
        machine=machine,
        disk=disk or GALAXY_HDD,
        network=network or GALAXY_NETWORK,
        scale=scale,
        kind="local",
    )


PRESETS = {
    "galaxy-8": galaxy8,
    "galaxy-27": galaxy27,
    "docker-32": docker32,
}


def cluster_by_name(name: str, scale: float = DEFAULT_SCALE) -> ClusterSpec:
    """Look up a preset cluster by its paper name (case-insensitive)."""
    key = name.strip().lower()
    if key not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ConfigurationError(f"unknown cluster {name!r}; known: {known}")
    return PRESETS[key](scale=scale)
