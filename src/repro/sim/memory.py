"""Per-machine memory footprint accounting.

The paper's memory-bound analysis (Section 4.3, Table 2) decomposes
run-time memory into: graph state, message buffers (send + receive), task
state for the in-flight batch, and *residual memory* — intermediate
results of earlier batches kept for final aggregation (Section 4.5/4.7).
:class:`MemoryModel` composes those terms from engine-specific byte
constants; the engines feed it per-round message counts and it returns a
:class:`MemoryBreakdown` whose ``total`` drives the overload policy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class MemoryBreakdown:
    """Byte-level decomposition of one machine's peak memory in a round."""

    graph_bytes: float
    buffer_bytes: float
    task_state_bytes: float
    residual_bytes: float

    @property
    def total(self) -> float:
        return (
            self.graph_bytes
            + self.buffer_bytes
            + self.task_state_bytes
            + self.residual_bytes
        )


@dataclass(frozen=True)
class MemoryModel:
    """Engine-flavoured memory constants.

    Attributes
    ----------
    vertex_state_bytes:
        bytes per resident vertex (id, value, halted flag, adjacency
        pointers).
    arc_bytes:
        bytes per resident arc (its neighbour id).
    message_bytes:
        serialized size of one in-flight message.
    buffer_overhead:
        multiplier on message buffers for serialization slack and the
        double-buffering of send + receive queues.
    object_overhead:
        language-level object overhead: ~1.0 for C++ engines, ~2.2 for
        JVM engines before Facebook's byte-array serialization work
        (Section 2.2 notes Giraph "optimized memory consumption by
        serializing the edges and messages"; we model stock Giraph).
    """

    vertex_state_bytes: float = 64.0
    arc_bytes: float = 8.0
    message_bytes: float = 16.0
    buffer_overhead: float = 2.0
    object_overhead: float = 1.0

    def __post_init__(self) -> None:
        for name in (
            "vertex_state_bytes",
            "arc_bytes",
            "message_bytes",
            "buffer_overhead",
            "object_overhead",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")

    def graph_bytes(self, vertices: float, arcs: float) -> float:
        """Resident graph state for one machine's partition."""
        return (
            vertices * self.vertex_state_bytes + arcs * self.arc_bytes
        ) * self.object_overhead

    def buffer_bytes(
        self,
        messages_in: float,
        messages_out: float,
        message_bytes: float = None,
    ) -> float:
        """Send + receive buffer footprint for one round.

        ``message_bytes`` defaults to the engine constant but is usually
        overridden with the task's actual wire-message size.
        """
        size = self.message_bytes if message_bytes is None else message_bytes
        return (
            (messages_in + messages_out)
            * size
            * self.buffer_overhead
            * self.object_overhead
        )

    def breakdown(
        self,
        vertices: float,
        arcs: float,
        messages_in: float,
        messages_out: float,
        task_state_bytes: float = 0.0,
        residual_bytes: float = 0.0,
        message_bytes: float = None,
    ) -> MemoryBreakdown:
        """Compose a full per-machine breakdown for one round."""
        return MemoryBreakdown(
            graph_bytes=self.graph_bytes(vertices, arcs),
            buffer_bytes=self.buffer_bytes(
                messages_in, messages_out, message_bytes
            ),
            task_state_bytes=task_state_bytes * self.object_overhead,
            residual_bytes=residual_bytes,
        )
