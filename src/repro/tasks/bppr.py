"""Batch Personalized PageRank (BPPR) kernels.

The paper's BPPR (Sections 2.3, 3) runs ``W`` α-decay random walks from
*every* vertex and estimates ``PPR(s, u)`` as the fraction of ``s``'s
walks that stop at ``u``. Two kernels implement it:

* **expected** (default) — deterministic propagation of walk *mass*:
  each round a fraction α of the in-flight mass stops and the remainder
  splits uniformly over out-neighbours. Message counts equal the
  expected counts of the Monte-Carlo process, and the resulting
  estimates equal exact PPR up to the termination tail, so large paper
  workloads (W = 12288 walks per node) are simulated in seconds. This
  is also *exactly* the generalized fractional walk the paper's
  Pregel-Mirror implementation uses ("the random walk is fractionalized
  according to the number of neighbors"), so the mirror engine shares
  the kernel with broadcast routing.

* **montecarlo** — honest per-walk sampling with a seeded RNG, used by
  tests and small examples to validate the estimator's semantics.

Per-source tracking (``track_sources=True``) maintains the full
(source × vertex) mass matrix and returns true PPR estimates; untracked
mode propagates the aggregate mass vector — message/memory counts are
identical, which is all the cost experiments need.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

import numpy as np

from repro.errors import TaskError
from repro.graph.csr import (
    Graph,
    propagate_mass,
    segment_sum,
    segment_sum_sharded,
)
from repro.messages.combine import combined_walk_messages
from repro.messages.routing import (
    BroadcastRouter,
    MessageRouter,
    RoutedMessages,
)
from repro.perf import kernel_pool, timings
from repro.tasks.base import (
    RoundSummary,
    TaskKernel,
    TaskSpec,
    alloc_state_matrix,
)

#: The α-decay parameter; 0.15 is the PageRank-standard choice.
DEFAULT_ALPHA = 0.15

#: Expected-mode rounds end once the surviving cluster-wide walk mass
#: drops below this (less than one walk outstanding).
MASS_EPSILON = 1.0

#: Bytes to record one terminated walk's ending node (Section 5: "we
#: need to store the ending nodes of every random walk computed in each
#: batch"): an 8-byte node id plus amortised list overhead.
RESIDUAL_RECORD_BYTES = 12.0

#: Bytes of in-flight bookkeeping per active walk beyond the message
#: buffers. In Pregel-style BPPR a walk *is* its message, so the buffers
#: (already accounted by the engine) carry the whole in-flight state.
WALK_STATE_BYTES = 0.0


class BPPRKernel(TaskKernel):
    """One batch of BPPR: ``workload`` α-decay walks from every vertex."""

    def __init__(
        self,
        graph: Graph,
        router: MessageRouter,
        rng: np.random.Generator,
        alpha: float = DEFAULT_ALPHA,
        mode: str = "expected",
        track_sources: bool = False,
        max_rounds: int = 10_000,
    ) -> None:
        super().__init__(graph, router)
        if not 0.0 < alpha < 1.0:
            raise TaskError("alpha must lie strictly between 0 and 1")
        if mode not in ("expected", "montecarlo"):
            raise TaskError(f"unknown BPPR mode {mode!r}")
        if mode == "montecarlo" and not track_sources:
            # Walkers carry their source anyway; tracking is free.
            track_sources = True
        self.alpha = float(alpha)
        self.mode = mode
        self.track_sources = bool(track_sources)
        self.max_rounds = int(max_rounds)
        self.rng = rng
        self._degrees = graph.degrees.astype(np.float64)
        self._dangling = self._degrees == 0
        # Per-vertex constants of every round: the stopping fraction (α,
        # or all of it on a dangling vertex), its complement, and the
        # degrees a moving share divides by — 1 where nothing moves.
        self._stop = np.where(self._dangling, 1.0, self.alpha)
        self._keep = 1.0 - self._stop
        self._safe_degrees = np.where(self._dangling, 1.0, self._degrees)
        # What the engine's router consumes, and whether the engine
        # combines (SimulatedEngine._prepare sets ``router.combining``):
        # a round builds only that operand and estimates the combined
        # count only for a combining engine.
        self._broadcast = isinstance(router, BroadcastRouter)
        self._combining = router.combining
        self._stops_total = 0.0
        nonzero = self._degrees[self._degrees > 0]
        self._avg_degree = float(nonzero.mean()) if nonzero.size else 1.0

    def _distinct_sources_estimate(self) -> float:
        """Expected distinct walk *sources* present at a vertex this round.

        Walks reaching ``v`` at round ``r`` started within ``r - 1`` hops,
        so the source diversity grows like the neighbourhood size,
        ``d_avg^(r-1)``, saturating at ``n``. This bounds both the entry
        count of a broadcast block (mirror mode) and the effectiveness of
        (source, target) message combining (GraphLab sync).
        """
        n = self.graph.num_vertices
        growth = max(self._avg_degree, 1.0) ** max(self._round - 1, 0)
        return float(min(float(n), growth))

    def replay_key(self):
        """The untracked expected-mass batch is deterministic: it never
        touches ``self.rng`` and its state is two private vectors.

        Exact class only — :class:`~repro.tasks.bppr_query.BPPRQueryKernel`
        runs this very mode but samples its sources from the session
        RNG, so an inherited key would replay batch 1's sources for
        every later batch. Monte-Carlo draws per walk; tracked mode is
        just as deterministic but holds n x n matrices that an
        unfinished tape would pin, and no sweep batches it.
        """
        if (
            type(self) is BPPRKernel
            and self.mode == "expected"
            and not self.track_sources
        ):
            return (self.alpha, self.max_rounds, self._workload)
        return None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _initialise(self, workload: float) -> None:
        n = self.graph.num_vertices
        if self.mode == "expected":
            if self.track_sources:
                if n > 4096:
                    raise TaskError(
                        "track_sources builds an n x n mass matrix; use it "
                        "on graphs with at most 4096 vertices"
                    )
                # mass[s, v]: in-flight walk mass from source s at vertex v.
                self._mass = np.zeros((n, n), dtype=np.float64)
                np.fill_diagonal(self._mass, workload)
                self._stopped = np.zeros((n, n), dtype=np.float64)
            else:
                self._mass_vec = np.full(n, workload, dtype=np.float64)
                self._stopped_vec = np.zeros(n, dtype=np.float64)
                # Tail fast-forward state: once the mass direction
                # stabilises (power iteration converged to the dominant
                # eigenvector), rounds only rescale by a fixed decay.
                self._stable_direction = None
                self._stable_rounds = 0
                self._decay = None
                self._cached_routed = None
                self._cached_combined = None
                self._cached_active_count = 0
        else:
            per_node = int(round(workload))
            if per_node != workload:
                raise TaskError(
                    "montecarlo mode needs an integer walks-per-node workload"
                )
            total = n * per_node
            self._cur = np.repeat(
                np.arange(n, dtype=np.int64), per_node
            )
            self._src = self._cur.copy()
            self._alive = np.ones(total, dtype=bool)
            self._stop_counts = alloc_state_matrix((n, n), np.float64)

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def _advance(self) -> RoundSummary:
        if self.mode == "expected":
            return self._advance_expected()
        return self._advance_montecarlo()

    def _advance_expected(self) -> RoundSummary:
        if not self.track_sources and self._decay is not None:
            return self._advance_stabilized()
        if self.track_sources:
            mass_per_vertex = self._mass.sum(axis=0)
        else:
            mass_per_vertex = self._mass_vec

        # Stop phase: α of everything, plus all mass stranded on
        # dangling vertices (a walk with no out-edge terminates).
        stopping = mass_per_vertex * self._stop
        moving_per_vertex = mass_per_vertex * self._keep
        self._stops_total += float(stopping.sum())

        active = np.flatnonzero(moving_per_vertex > 0)
        sources = self._distinct_sources_estimate()
        routed = self._route_walks(active, moving_per_vertex[active], sources)
        combined = self._combined_estimate(moving_per_vertex, active, sources)

        # Move phase: uniform split over out-neighbours, one column
        # of A^T's operand per tracked source. A dangling vertex moves
        # exactly 0, so dividing it by 1 leaves its share 0.
        tick = perf_counter()
        if self.track_sources:
            self._stopped += self._mass * self._stop[None, :]
            moving = self._mass * self._keep[None, :]
            share = moving / self._safe_degrees
            self._mass = propagate_mass(self.graph, share.T).T
            remaining = float(self._mass.sum())
        else:
            self._stopped_vec += stopping
            share = moving_per_vertex / self._safe_degrees
            self._mass_vec = propagate_mass(self.graph, share)
            remaining = float(self._mass_vec.sum())
        timings.add("kernel.reduce", perf_counter() - tick)

        if not self.track_sources:
            self._maybe_stabilize(routed, combined, active.size, remaining)

        done = remaining < MASS_EPSILON or self._round >= self.max_rounds
        return RoundSummary(
            routed=routed,
            compute_ops=routed.delivered_messages + active.size,
            task_state_bytes=remaining * WALK_STATE_BYTES,
            active_vertices=float(active.size),
            done=done,
            combined_messages=combined,
        )

    def _route_walks(
        self, active: np.ndarray, emitting: np.ndarray, sources: float
    ) -> RoutedMessages:
        """Route the walk messages ``emitting[i]`` of vertex
        ``active[i]``. A broadcast block carries one entry per distinct
        source with walks at the vertex (Section 3's common message
        lists, per source, how many walk fractions each neighbour
        receives); point-to-point routing sends every walk."""
        if self._broadcast:
            return self.router.route(active, np.minimum(emitting, sources))
        return self.router.route(active, emitting)

    def _maybe_stabilize(
        self,
        routed,
        combined: Optional[float],
        active_count: int,
        total: float,
    ) -> None:
        """Detect convergence of the mass direction (untracked mode).

        The expected-mass recurrence is a damped power iteration; once
        the normalized mass vector stops changing, every further round
        is the previous one scaled by a constant decay factor, so the
        kernel caches one round's accounting and fast-forwards.
        ``total`` is the mass vector's sum, which the round has taken.
        """
        if total <= 0:
            return
        direction = self._mass_vec / total
        if self._stable_direction is not None:
            drift = float(
                np.abs(direction - self._stable_direction).sum()
            )
            if drift < 1e-9:
                self._stable_rounds += 1
            else:
                self._stable_rounds = 0
            if self._stable_rounds >= 2 and self._previous_total > 0:
                self._decay = total / self._previous_total
                self._cached_routed = routed
                self._cached_combined = combined
                self._cached_active_count = active_count
                # Exact stationary stop distribution: stops per vertex
                # are mass times the stopping fraction, normalized.
                raw = self._mass_vec * self._stop
                raw_sum = float(raw.sum())
                self._stable_stop_dist = (
                    raw / raw_sum if raw_sum > 0 else direction
                )
                self._stabilize_round = self._round
        self._stable_direction = direction
        self._previous_total = total

    def _advance_stabilized(self) -> RoundSummary:
        """Fast-forward one tail round by pure rescaling (no O(m) work)."""
        decay = self._decay
        stops = float(self._mass_vec.sum()) * (1.0 - decay)
        self._stops_total += stops
        self._stopped_vec += self._stable_stop_dist * stops
        self._mass_vec *= decay

        cached = self._cached_routed
        scale = decay ** (self._round - self._stabilize_round)
        routed = RoutedMessages(
            network_messages=cached.network_messages * scale,
            local_messages=cached.local_messages * scale,
            delivered_messages=cached.delivered_messages * scale,
        )
        remaining = float(self._mass_vec.sum())
        done = remaining < MASS_EPSILON or self._round >= self.max_rounds
        return RoundSummary(
            routed=routed,
            compute_ops=routed.delivered_messages
            + self._cached_active_count,
            task_state_bytes=remaining * WALK_STATE_BYTES,
            active_vertices=float(self._cached_active_count),
            done=done,
            combined_messages=(
                None
                if self._cached_combined is None
                else self._cached_combined * scale
            ),
        )

    def _advance_montecarlo(self) -> RoundSummary:
        graph = self.graph
        alive_idx = np.flatnonzero(self._alive)
        cur = self._cur[alive_idx]

        # Stop phase: α-coin per walk, plus forced stops at danglings.
        stop_draw = self.rng.random(alive_idx.size) < self.alpha
        stop_mask = stop_draw | self._dangling[cur]
        stopping = alive_idx[stop_mask]
        if stopping.size:
            # Segment reduction instead of an unbuffered scatter-add:
            # per-cell counts are exact integers, so summation
            # order cannot change the result — which also licenses the
            # sharded variant below (shard partial counts sum exactly).
            tick = perf_counter()
            shards = (
                kernel_pool.choose_shards(stopping.size)
                if kernel_pool.kernel_workers() > 1
                else 1
            )
            if shards > 1:
                stop_rows, stop_cols, stop_sums = segment_sum_sharded(
                    self._src[stopping],
                    self._cur[stopping],
                    np.ones(stopping.size, dtype=np.float64),
                    self.graph.num_vertices,
                    shards,
                )
            else:
                stop_rows, stop_cols, stop_sums = segment_sum(
                    self._src[stopping],
                    self._cur[stopping],
                    np.ones(stopping.size, dtype=np.float64),
                    self.graph.num_vertices,
                )
            self._stop_counts[stop_rows, stop_cols] += stop_sums
            timings.add("kernel.reduce", perf_counter() - tick)
        self._alive[stopping] = False
        self._stops_total += float(stopping.size)

        # Move phase: surviving walks jump to a uniform out-neighbour.
        moving_idx = alive_idx[~stop_mask]
        move_from = self._cur[moving_idx]
        if moving_idx.size:
            offsets = (
                self.rng.random(moving_idx.size)
                * self._degrees[move_from]
            ).astype(np.int64)
            self._cur[moving_idx] = graph.indices[
                graph.indptr[move_from] + offsets
            ]

        emissions = np.bincount(
            move_from, minlength=graph.num_vertices
        ).astype(np.float64)
        active = np.flatnonzero(emissions > 0)
        sources = self._distinct_sources_estimate()
        routed = self._route_walks(active, emissions[active], sources)
        combined = self._combined_estimate(emissions, active, sources)

        done = (
            not self._alive.any() or self._round >= self.max_rounds
        )
        return RoundSummary(
            routed=routed,
            compute_ops=routed.delivered_messages + active.size,
            task_state_bytes=float(self._alive.sum()) * WALK_STATE_BYTES,
            active_vertices=float(active.size),
            done=done,
            combined_messages=combined,
        )

    def _combined_estimate(
        self,
        emissions_per_vertex: np.ndarray,
        active: np.ndarray,
        distinct_sources: float,
    ) -> Optional[float]:
        """Wire messages after (source, target) combining (GraphLab sync),
        or ``None`` — combining does not apply — on an engine that does
        not combine.

        Combining merges walks sharing both source and next hop, so its
        effectiveness falls as source diversity grows round over round.
        """
        if not self._combining:
            return None
        if active.size == 0:
            return 0.0
        combined = combined_walk_messages(
            emissions_per_vertex[active],
            self._degrees[active],
            distinct_sources_per_vertex=distinct_sources,
        )
        return float(combined.sum())

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def residual_bytes(self) -> float:
        """Ending-node records kept for final aggregation (Section 5:
        "we need to store the ending nodes of every random walk")."""
        return self._stops_total * RESIDUAL_RECORD_BYTES

    @property
    def result(self):
        """PPR estimates.

        With source tracking: an (n × n) matrix whose row ``s`` estimates
        ``PPR(s, ·)``. Untracked: a length-n vector of aggregate stop
        fractions (the column sums of the tracked matrix / n).
        """
        if self.mode == "montecarlo":
            totals = self._stop_counts.sum(axis=1, keepdims=True)
            with np.errstate(invalid="ignore"):
                return np.where(totals > 0, self._stop_counts / totals, 0.0)
        if self.track_sources:
            totals = (self._stopped + self._mass).sum(axis=1, keepdims=True)
            stopped = self._stopped + self._mass  # attribute the tail
            with np.errstate(invalid="ignore"):
                return np.where(totals > 0, stopped / totals, 0.0)
        total = float(self._stopped_vec.sum() + self._mass_vec.sum())
        if total == 0:
            return np.zeros_like(self._stopped_vec)
        return (self._stopped_vec + self._mass_vec) / total


def bppr_task(
    graph: Graph,
    workload: float,
    alpha: float = DEFAULT_ALPHA,
    mode: str = "expected",
    track_sources: bool = False,
    max_rounds: int = 10_000,
    sample_limit: Optional[int] = None,
) -> TaskSpec:
    """Build the BPPR :class:`TaskSpec`.

    ``workload`` is the number of α-decay random walks started at *each*
    vertex (the paper's BPPR workload unit). ``sample_limit`` is accepted
    for interface symmetry with MSSP/BKHS but unused — BPPR cost does not
    require per-source simulation.
    """

    def factory(g, router, batch_workload, rng):
        return BPPRKernel(
            g,
            router,
            rng,
            alpha=alpha,
            mode=mode,
            track_sources=track_sources,
            max_rounds=max_rounds,
        )

    return TaskSpec(
        name="bppr",
        graph=graph,
        workload=workload,
        kernel_factory=factory,
        params={
            "alpha": alpha,
            "mode": mode,
            "track_sources": track_sources,
            "max_rounds": max_rounds,
        },
        # A walk message carries the walk's source id: 8 bytes on the
        # wire (Figure 6's bytes-per-message calibration).
        message_bytes=8.0,
        residual_record_bytes=RESIDUAL_RECORD_BYTES,
    )
