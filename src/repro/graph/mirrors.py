"""Mirroring plans for Pregel+(mirror).

Pregel+'s mirroring mechanism (Section 2.2 of the paper) copies each
high-degree vertex onto every machine that holds at least one of its
neighbours; the copies ("mirrors") forward messages locally. The effect
on network traffic: a broadcast from a mirrored vertex costs one message
per *mirror machine* instead of one per neighbour, flattening the skew of
hub vertices. :class:`MirrorPlan` precomputes, per vertex, the number of
remote machines its broadcast must reach under a given partition, both
with and without mirroring, so engines can account message volumes with
one vectorised lookup.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.csr import Graph, row_blocks, sorted_unique
from repro.graph.partition import Partition
from repro.perf import timings
from repro.perf.cache import get_cache

#: Default degree above which Pregel+ creates mirrors. The Pregel+ paper
#: tunes this per graph; the commonly cited effective threshold is around
#: the average degree times a small constant.
DEFAULT_DEGREE_THRESHOLD = 100


@dataclass(frozen=True)
class MirrorPlan:
    """Precomputed routing costs for a graph under a partition.

    Attributes
    ----------
    mirrored:
        boolean mask of vertices that have mirrors (degree > threshold).
    remote_machines:
        per-vertex count of *other* machines containing ≥1 neighbour —
        the network messages one broadcast costs for a mirrored vertex.
    remote_neighbors:
        per-vertex count of neighbours on other machines — the network
        messages one broadcast costs for an unmirrored vertex.
    local_neighbors:
        per-vertex count of neighbours co-located with the vertex.
    degree_threshold:
        threshold used to build the plan.
    num_mirrors:
        total mirror copies created (Σ remote_machines over mirrored
        vertices); adds to per-machine state memory.
    """

    mirrored: np.ndarray
    remote_machines: np.ndarray
    remote_neighbors: np.ndarray
    local_neighbors: np.ndarray
    degree_threshold: int
    num_mirrors: int

    @property
    def num_mirrored_vertices(self) -> int:
        return int(np.count_nonzero(self.mirrored))

    def broadcast_network_messages(self) -> np.ndarray:
        """Per-vertex network message count for one broadcast round.

        Mirrored vertices pay one message per remote mirror machine;
        unmirrored vertices pay one per remote neighbour.
        """
        return np.where(
            self.mirrored, self.remote_machines, self.remote_neighbors
        )

    def skew_reduction(self) -> float:
        """Total broadcast traffic saved by mirroring, as a fraction.

        Compares network messages for one all-vertex broadcast with and
        without mirroring. Returns 0.0 for graphs with no mirrored
        vertices.
        """
        without = float(self.remote_neighbors.sum())
        if without == 0.0:
            return 0.0
        with_mirrors = float(self.broadcast_network_messages().sum())
        return 1.0 - with_mirrors / without


def build_mirror_plan(
    graph: Graph,
    partition: Partition,
    degree_threshold: int = DEFAULT_DEGREE_THRESHOLD,
) -> MirrorPlan:
    """Build a :class:`MirrorPlan` for ``graph`` under ``partition``.

    Memoised in the shared artifact cache, keyed by the graph's content
    fingerprint plus a digest of the partition's owner array (not the
    strategy name, so hand-built partitions can never collide).
    """
    if degree_threshold < 0:
        raise ConfigurationError("degree_threshold must be non-negative")
    owner_digest = hashlib.blake2b(
        partition.owner.tobytes(), digest_size=16
    ).hexdigest()

    def build() -> MirrorPlan:
        with timings.span("mirror-plan"):
            return _build_mirror_plan(graph, partition, degree_threshold)

    return get_cache().get_or_build(
        (
            "mirror-plan",
            graph.fingerprint,
            owner_digest,
            int(partition.num_machines),
            int(degree_threshold),
        ),
        build,
    )


def _build_mirror_plan(
    graph: Graph,
    partition: Partition,
    degree_threshold: int,
) -> MirrorPlan:
    n = graph.num_vertices
    degrees = np.diff(graph.indptr)
    owner = partition.owner
    num_machines = partition.num_machines

    # One CSR row block at a time (a single block unless the graph
    # streams), so no per-arc array outgrows a block. Any cut gives the
    # same plan: per-block remote counts are exact integers, and the
    # (src, dst_owner) pair sets of different blocks are *disjoint* —
    # blocks partition the source rows — so per-block uniques add up to
    # exactly the global unique-pair tally.
    remote_neighbors = np.zeros(n, dtype=np.int64)
    remote_machines = np.zeros(n, dtype=np.int64)
    for lo, hi, a, b in row_blocks(graph):
        blk_src = np.repeat(np.arange(lo, hi, dtype=np.int64), degrees[lo:hi])
        blk_dst_owner = owner[graph.indices[a:b]]
        is_remote = blk_dst_owner != owner[blk_src]
        remote_neighbors[lo:hi] += np.bincount(
            blk_src[is_remote] - lo, minlength=hi - lo
        )
        # Distinct remote machines per source: the unique
        # (src, dst_owner) pairs among the remote arcs.
        remote_pairs = (
            blk_src[is_remote] * np.int64(num_machines)
            + blk_dst_owner[is_remote]
        )
        unique_pairs = sorted_unique(remote_pairs)
        remote_machines[lo:hi] += np.bincount(
            (unique_pairs // num_machines).astype(np.int64) - lo,
            minlength=hi - lo,
        )
    local_neighbors = degrees - remote_neighbors

    mirrored = degrees > degree_threshold
    num_mirrors = int(remote_machines[mirrored].sum())
    return MirrorPlan(
        mirrored=mirrored,
        remote_machines=remote_machines,
        remote_neighbors=remote_neighbors,
        local_neighbors=local_neighbors,
        degree_threshold=degree_threshold,
        num_mirrors=num_mirrors,
    )
