"""Graph partitioning across simulated machines.

The paper keeps each system's default partitioner: Pregel+/Giraph/GraphD
hash vertices to workers; GraphLab performs an edge partition (vertex
cut). Both are implemented here behind one :class:`Partition` value type
that records, for every vertex, its owner machine, plus the per-machine
vertex/arc tallies the memory model needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import Graph, _merge_reduce, row_blocks
from repro.perf import timings
from repro.perf.cache import get_cache

#: Multiplicative hashing constant (Knuth); spreads consecutive ids.
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


@dataclass(frozen=True)
class Partition:
    """Assignment of a graph's vertices to ``num_machines`` machines.

    Attributes
    ----------
    owner:
        ``int64`` array of length n: machine id owning each vertex.
    num_machines:
        machine count.
    vertices_per_machine:
        vertex tally per machine.
    arcs_per_machine:
        out-arc tally per machine (arcs owned by the source's machine).
    cut_arcs:
        number of arcs whose endpoints live on different machines —
        exactly the arcs that become network messages.
    replication_factor:
        for vertex-cut partitions, the average number of machine replicas
        per vertex (1.0 for hash partitions).
    strategy:
        partitioner name, for reports.
    """

    owner: np.ndarray
    num_machines: int
    vertices_per_machine: np.ndarray
    arcs_per_machine: np.ndarray
    cut_arcs: int
    replication_factor: float = 1.0
    strategy: str = "hash"

    @property
    def cut_fraction(self) -> float:
        """Fraction of arcs crossing machines (drives network volume)."""
        total = int(self.arcs_per_machine.sum())
        return self.cut_arcs / total if total else 0.0

    def validate(self, graph: Graph) -> None:
        """Check internal consistency against ``graph`` (used by tests)."""
        if self.owner.size != graph.num_vertices:
            raise PartitionError("owner array does not match graph size")
        if self.owner.size and (
            self.owner.min() < 0 or self.owner.max() >= self.num_machines
        ):
            raise PartitionError("owner id out of machine range")
        if int(self.vertices_per_machine.sum()) != graph.num_vertices:
            raise PartitionError("vertex tallies do not cover the graph")
        if int(self.arcs_per_machine.sum()) != graph.num_arcs:
            raise PartitionError("arc tallies do not cover the graph")


def _finish(
    graph: Graph,
    owner: np.ndarray,
    num_machines: int,
    strategy: str,
    replication_factor: float = 1.0,
) -> Partition:
    """Compute the per-machine tallies shared by all vertex partitioners.

    The cut-arc count runs over the graph's CSR row blocks
    (:func:`repro.graph.csr.row_blocks` — one block unless the graph
    streams), so the two per-arc owner arrays are never larger than a
    block; per-block cut counts are exact integers, so any cut sums to
    the same count.
    """
    vertices_per_machine = np.bincount(owner, minlength=num_machines)
    degrees = np.diff(graph.indptr)
    arcs_per_machine = np.bincount(
        owner, weights=degrees, minlength=num_machines
    ).astype(np.int64)
    cut_arcs = 0
    for lo, hi, a, b in row_blocks(graph):
        blk_dst_owner = owner[graph.indices[a:b]]
        blk_src_owner = np.repeat(owner[lo:hi], degrees[lo:hi])
        cut_arcs += int(np.count_nonzero(blk_src_owner != blk_dst_owner))
    return Partition(
        owner=owner,
        num_machines=num_machines,
        vertices_per_machine=vertices_per_machine,
        arcs_per_machine=arcs_per_machine,
        cut_arcs=cut_arcs,
        replication_factor=replication_factor,
        strategy=strategy,
    )


def hash_partition(graph: Graph, num_machines: int) -> Partition:
    """Pregel+-style random hash of vertex ids onto machines."""
    if num_machines <= 0:
        raise PartitionError("num_machines must be positive")
    ids = np.arange(graph.num_vertices, dtype=np.uint64)
    hashed = (ids * _HASH_MULT) >> np.uint64(32)
    owner = (hashed % np.uint64(num_machines)).astype(np.int64)
    return _finish(graph, owner, num_machines, "hash")


def range_partition(graph: Graph, num_machines: int) -> Partition:
    """Contiguous id ranges per machine (locality-preserving baseline)."""
    if num_machines <= 0:
        raise PartitionError("num_machines must be positive")
    n = graph.num_vertices
    owner = np.minimum(
        (np.arange(n, dtype=np.int64) * num_machines) // max(n, 1),
        num_machines - 1,
    )
    return _finish(graph, owner, num_machines, "range")


def edge_partition(graph: Graph, num_machines: int) -> Partition:
    """GraphLab-style edge partition (vertex cut), approximated.

    Arcs are hashed to machines; a vertex is replicated on every machine
    holding one of its arcs, and its *owner* (master replica) is the
    machine holding most of them. The replication factor feeds the memory
    model; messages between master and replicas travel the network.
    """
    if num_machines <= 0:
        raise PartitionError("num_machines must be positive")
    n = graph.num_vertices
    if graph.num_arcs == 0:
        owner = np.zeros(n, dtype=np.int64)
        return _finish(graph, owner, num_machines, "edge-cut")
    # Replica presence matrix footprint: count distinct (vertex, machine)
    # pairs among arc endpoints, one CSR row block at a time, folding
    # the per-block (unique key, count) runs with an exact integer
    # merge — the fold of per-block uniques equals one global
    # ``np.unique(..., return_counts=True)`` bit for bit, and a graph
    # that streams keeps at most O(n · machines) accumulated pairs
    # resident instead of the 2m endpoint keys.
    degrees = np.diff(graph.indptr)
    unique_pairs = np.empty(0, dtype=np.int64)
    pair_counts = np.empty(0, dtype=np.int64)
    for lo, hi, a, b in row_blocks(graph):
        blk_src = np.repeat(
            np.arange(lo, hi, dtype=np.int64), degrees[lo:hi]
        )
        arc_ids = np.arange(a, b, dtype=np.uint64)
        blk_machine = (
            ((arc_ids * _HASH_MULT) >> np.uint64(33)) % np.uint64(num_machines)
        ).astype(np.int64)
        keys = np.concatenate([blk_src, graph.indices[a:b]]) * np.int64(
            num_machines
        ) + np.concatenate([blk_machine, blk_machine])
        blk_unique, blk_counts = np.unique(keys, return_counts=True)
        if unique_pairs.size == 0:
            unique_pairs, pair_counts = blk_unique, blk_counts
        else:
            unique_pairs, pair_counts = _merge_reduce(
                unique_pairs, pair_counts, blk_unique, blk_counts, np.add
            )
    # Isolated vertices have no incident arcs but still hold one master
    # replica each. ``unique_pairs`` is sorted, so distinct touched
    # vertices are the distinct pair prefixes.
    pair_vertex_sorted = unique_pairs // num_machines
    touched = (
        int(np.count_nonzero(np.diff(pair_vertex_sorted))) + 1
        if pair_vertex_sorted.size
        else 0
    )
    isolated = n - touched
    replication_factor = (unique_pairs.size + isolated) / n

    # Master replica: machine with most incident arcs per vertex.
    pair_vertex = unique_pairs // num_machines
    pair_machine = unique_pairs % num_machines
    owner = np.zeros(n, dtype=np.int64)
    best = np.zeros(n, dtype=np.int64)
    # unique_pairs is sorted, so groups by vertex are contiguous.
    np.maximum.at(best, pair_vertex, pair_counts)
    is_best = pair_counts == best[pair_vertex]
    owner[pair_vertex[is_best][::-1]] = pair_machine[is_best][::-1]

    return _finish(graph, owner, num_machines, "edge-cut", replication_factor)


_STRATEGIES = {
    "hash": hash_partition,
    "range": range_partition,
    "edge-cut": edge_partition,
}


def partition_graph(
    graph: Graph, num_machines: int, strategy: str = "hash"
) -> Partition:
    """Partition ``graph`` with the named strategy (hash/range/edge-cut).

    Results are memoised in the shared artifact cache keyed by the
    graph's content fingerprint, so every engine bound to the same
    (graph, machine count, strategy) triple reuses one partition. All
    partitioners are pure functions of that key, and :class:`Partition`
    is frozen, so sharing is safe.
    """
    try:
        fn = _STRATEGIES[strategy]
    except KeyError:
        known = ", ".join(sorted(_STRATEGIES))
        raise PartitionError(
            f"unknown partition strategy {strategy!r}; known: {known}"
        ) from None
    if num_machines <= 0:
        raise PartitionError("num_machines must be positive")

    def build() -> Partition:
        with timings.span("partition"):
            return fn(graph, num_machines)

    return get_cache().get_or_build(
        ("partition", graph.fingerprint, int(num_machines), strategy), build
    )
