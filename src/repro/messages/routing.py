"""Routing policies: how emitted messages split into network vs local.

All routers consume the same input — the ids of vertices that emitted
this round and how many messages (or broadcast blocks) each emitted — and
return a :class:`RoutedMessages` record. They are built once per
(graph, partition) pair from a :class:`~repro.graph.mirrors.MirrorPlan`,
which precomputes each vertex's remote-neighbour and remote-machine
counts.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.graph.csr import Graph
from repro.graph.mirrors import MirrorPlan


@dataclass(frozen=True)
class RoutedMessages:
    """Outcome of routing one round's emissions.

    Attributes
    ----------
    network_messages:
        messages that cross machine boundaries (count).
    local_messages:
        messages delivered within a machine (no network cost, but they
        still occupy receive buffers).
    delivered_messages:
        messages arriving at receive sides after any broadcast fan-out —
        what receive buffers and compute work scale with. Equals
        ``network + local`` for point-to-point routing; exceeds it under
        broadcast, where one wire message fans out to many neighbours.
    """

    network_messages: float
    local_messages: float
    delivered_messages: float

    @property
    def wire_messages(self) -> float:
        return self.network_messages + self.local_messages


class MessageRouter(ABC):
    """Strategy object converting per-vertex emissions into routed counts."""

    #: serialized bytes of one wire message under this routing scheme.
    message_bytes: float = 16.0
    #: whether the engine routing through this router combines messages
    #: sharing (source, target) before sending — set by the engine that
    #: builds it; a kernel estimates combined counts only when it does.
    combining: bool = False

    @abstractmethod
    def route(
        self, vertex_ids: np.ndarray, emissions: np.ndarray
    ) -> RoutedMessages:
        """Route ``emissions[i]`` messages emitted by ``vertex_ids[i]``."""


class PointToPointRouter(MessageRouter):
    """Each message travels its own arc (Pregel, Giraph, GraphD, GraphLab).

    A message from vertex ``v`` crosses the network with probability
    ``remote_neighbors(v) / degree(v)`` — exact for uniformly random
    neighbour choices (BPPR walks) and the right expectation for
    all-neighbour fan-outs (MSSP/BKHS relaxations, where ``emissions``
    already counts one message per out-arc).
    """

    def __init__(
        self, graph: Graph, plan: MirrorPlan, message_bytes: float = 16.0
    ) -> None:
        degrees = np.diff(graph.indptr).astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            remote_fraction = np.where(
                degrees > 0, plan.remote_neighbors / degrees, 0.0
            )
        self._remote_fraction = remote_fraction
        self.message_bytes = message_bytes

    def route(
        self, vertex_ids: np.ndarray, emissions: np.ndarray
    ) -> RoutedMessages:
        emissions = np.asarray(emissions, dtype=np.float64)
        remote = float((emissions * self._remote_fraction[vertex_ids]).sum())
        total = float(emissions.sum())
        return RoutedMessages(
            network_messages=remote,
            local_messages=total - remote,
            delivered_messages=total,
        )


class BroadcastRouter(MessageRouter):
    """Pregel+(mirror) broadcast routing.

    ``emissions[i]`` counts broadcast *blocks* sent by vertex
    ``vertex_ids[i]`` (one block per unit task group per round). A block
    from a mirrored vertex costs one wire message per remote mirror
    machine; from an unmirrored vertex, one per remote neighbour — plus a
    local delivery per co-located neighbour either way. Every block is
    ultimately delivered to all ``degree(v)`` neighbours, which is what
    receive buffers see.
    """

    def __init__(
        self, graph: Graph, plan: MirrorPlan, message_bytes: float = 24.0
    ) -> None:
        self._network_cost = plan.broadcast_network_messages().astype(
            np.float64
        )
        self._local_cost = plan.local_neighbors.astype(np.float64)
        self._fanout = np.diff(graph.indptr).astype(np.float64)
        self.message_bytes = message_bytes

    def route(
        self, vertex_ids: np.ndarray, emissions: np.ndarray
    ) -> RoutedMessages:
        emissions = np.asarray(emissions, dtype=np.float64)
        network = float((emissions * self._network_cost[vertex_ids]).sum())
        local = float((emissions * self._local_cost[vertex_ids]).sum())
        delivered = float((emissions * self._fanout[vertex_ids]).sum())
        return RoutedMessages(
            network_messages=network,
            local_messages=local,
            delivered_messages=delivered,
        )
