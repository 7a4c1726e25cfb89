"""An honest, single-process Pregel: real message passing, vote-to-halt.

This is the library's pedagogical and validation engine. It implements
the vertex-centric programming model of Section 2.1 *literally*: a user
writes a :class:`VertexProgram` whose ``compute(ctx, messages)`` runs
once per active vertex per superstep, reads incoming messages, mutates
the vertex value, sends messages, and votes to halt. Supersteps proceed
until every vertex is halted and no messages are in flight — exactly
Pregel's termination rule.

It executes everything for real in one process (no simulation, no cost
model) and is deliberately simple rather than fast; the test-suite uses
it to cross-validate the vectorised task kernels on small graphs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.errors import EngineError
from repro.graph.csr import Graph

#: Optional commutative combiner applied to messages per destination.
Combiner = Callable[[Any, Any], Any]


@dataclass
class VertexContext:
    """Per-vertex view handed to ``compute``: state plus send/halt APIs."""

    vertex_id: int
    superstep: int
    graph: Graph = field(repr=False)
    value: Any = None
    _outbox: List = field(default_factory=list, repr=False)
    _halted: bool = False
    _aggregates: Dict[str, Any] = field(default_factory=dict, repr=False)

    def neighbors(self) -> np.ndarray:
        """Out-neighbour ids of this vertex."""
        return self.graph.neighbors(self.vertex_id)

    def send(self, target: int, message: Any) -> None:
        """Send ``message`` to vertex ``target``, delivered next superstep."""
        if not 0 <= target < self.graph.num_vertices:
            raise EngineError(f"send target {target} out of range")
        self._outbox.append((target, message))

    def send_to_neighbors(self, message: Any) -> None:
        """Broadcast ``message`` to every out-neighbour."""
        for target in self.neighbors():
            self._outbox.append((int(target), message))

    def vote_to_halt(self) -> None:
        """Become inactive until a message re-activates this vertex."""
        self._halted = True

    def aggregate(self, name: str, value: Any) -> None:
        """Contribute ``value`` to the named global aggregator."""
        self._aggregates[name] = value


class VertexProgram(ABC):
    """User-defined vertex logic (the paper's ``compute(v)``)."""

    #: optional message combiner (e.g. ``min`` for shortest paths).
    combiner: Optional[Combiner] = None

    @abstractmethod
    def initial_value(self, vertex_id: int, graph: Graph) -> Any:
        """Initial vertex value before superstep 0."""

    @abstractmethod
    def compute(self, ctx: VertexContext, messages: List[Any]) -> None:
        """One superstep of vertex logic; runs only on active vertices."""

    def aggregate_reduce(self, name: str, values: List[Any]) -> Any:
        """Reduce aggregator contributions (default: sum)."""
        return sum(values)


@dataclass
class SuperstepStats:
    """Bookkeeping for one superstep of the reference engine."""

    superstep: int
    active_vertices: int
    messages_sent: int
    messages_after_combining: int


@dataclass
class ReferenceRun:
    """Result of a reference-engine execution."""

    values: List[Any]
    supersteps: int
    stats: List[SuperstepStats]
    aggregates_history: List[Dict[str, Any]]

    @property
    def total_messages(self) -> int:
        return sum(s.messages_sent for s in self.stats)


class LocalPregelEngine:
    """Runs a :class:`VertexProgram` to completion on one process."""

    def __init__(self, graph: Graph, max_supersteps: int = 10_000) -> None:
        self.graph = graph
        self.max_supersteps = int(max_supersteps)

    def run(
        self,
        program: VertexProgram,
        initial_active: Optional[Iterable[int]] = None,
    ) -> ReferenceRun:
        """Execute ``program`` until global quiescence.

        ``initial_active`` restricts which vertices run in superstep 0
        (default: all). A halted vertex is re-activated by any incoming
        message, per the Pregel semantics.
        """
        graph = self.graph
        n = graph.num_vertices
        values: List[Any] = [
            program.initial_value(v, graph) for v in range(n)
        ]
        halted = [False] * n
        if initial_active is not None:
            halted = [True] * n
            for v in initial_active:
                halted[int(v)] = False

        inbox: Dict[int, List[Any]] = defaultdict(list)
        stats: List[SuperstepStats] = []
        aggregates_history: List[Dict[str, Any]] = []

        for superstep in range(self.max_supersteps):
            active = [
                v for v in range(n) if not halted[v] or v in inbox
            ]
            if not active:
                return ReferenceRun(
                    values=values,
                    supersteps=superstep,
                    stats=stats,
                    aggregates_history=aggregates_history,
                )

            outbox: Dict[int, List[Any]] = defaultdict(list)
            raw_sent = 0
            contributions: Dict[str, List[Any]] = defaultdict(list)
            for v in active:
                ctx = VertexContext(
                    vertex_id=v,
                    superstep=superstep,
                    graph=graph,
                    value=values[v],
                )
                program.compute(ctx, inbox.get(v, []))
                values[v] = ctx.value
                halted[v] = ctx._halted
                raw_sent += len(ctx._outbox)
                for target, message in ctx._outbox:
                    outbox[target].append(message)
                for name, contribution in ctx._aggregates.items():
                    contributions[name].append(contribution)

            if program.combiner is not None:
                combined: Dict[int, List[Any]] = {}
                for target, msgs in outbox.items():
                    merged = msgs[0]
                    for msg in msgs[1:]:
                        merged = program.combiner(merged, msg)
                    combined[target] = [merged]
                outbox = combined
            after = sum(len(m) for m in outbox.values())

            aggregates_history.append(
                {
                    name: program.aggregate_reduce(name, vals)
                    for name, vals in contributions.items()
                }
            )
            stats.append(
                SuperstepStats(
                    superstep=superstep,
                    active_vertices=len(active),
                    messages_sent=raw_sent,
                    messages_after_combining=after,
                )
            )
            inbox = outbox

        raise EngineError(
            f"program did not converge within {self.max_supersteps} supersteps"
        )
