"""The simulated vertex-centric engine.

:class:`SimulatedEngine` drives a task kernel batch-by-batch and
round-by-round, converting each :class:`~repro.tasks.base.RoundSummary`
into a :class:`~repro.sim.cost.RoundLoad` priced by the cluster cost
model. All seven system modes of the paper are instances of this class
with different :class:`EngineProfile` values (plus small behavioural
hooks for spill and routing) — see :mod:`repro.engines.registry`.

The per-round translation implements the paper's accounting:

* wire messages (after optional combining) split into network/local by
  the router; network bytes at the bottleneck machine drive the
  congestion model;
* per-machine memory peaks = graph state + message buffers + in-flight
  task state + residual memory of *all previous batches* plus the
  current batch's accumulated results — reproducing Section 4.5's
  observation that residual and message peaks coincide from the second
  batch onwards;
* out-of-core engines spill buffer demand beyond their memory budget to
  disk instead of thrashing (Section 4.4);
* asynchronous engines drop the barrier but pay locking overhead that
  grows with the machine count and do not combine messages
  (Section 4.8).

It runs in two stages (DESIGN.md §10.2): what a round *demands*
(:meth:`EngineSession._demand`, a pure function of its summary) and
where that *lands* in memory (:meth:`EngineSession._land`, which adds
the residual). A replayed round reads the first from its tape, which
every session of the engine on that graph shares (DESIGN.md §10.1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cluster import ClusterSpec
from repro.errors import (
    BatchingError,
    ConfigurationError,
    EngineError,
    OverloadError,
)
from repro.faults.plan import FaultKind, FaultPlan
from repro.graph.mirrors import MirrorPlan, build_mirror_plan
from repro.graph.partition import Partition, partition_graph
from repro.messages.routing import (
    BroadcastRouter,
    MessageRouter,
    PointToPointRouter,
)
from repro.perf import timings
from repro.perf.cache import get_cache
from repro.rng import SeedLike, make_rng
from repro.sim.cost import CostModel, RoundDemand, RoundLoad
from repro.sim.memory import MemoryModel
from repro.sim.metrics import (
    JOB_SERIALIZER,
    PAYLOAD_SERIALIZER,
    BatchMetrics,
    JobMetrics,
    RoundMetrics,
    clone_job,
    pack_job,
)
from repro.sim.overload import OverloadPolicy
from repro.tasks.base import RoundSummary, TaskSpec
from repro.units import OVERLOAD_CUTOFF_SECONDS

#: Hard cap on rounds per batch, guarding against non-terminating kernels.
MAX_ROUNDS_PER_BATCH = 5000

#: Round tapes one prepared graph (engine x graph content x message
#: size) keeps, least recently used dropped first. A k-batch job needs
#: one per distinct walk (at most two); a serving tier meets every
#: admissible size, and each of its canonical runs replays what its
#: serving session recorded: the pregel+ prep of one ``serve_cached``
#: pass records 72 distinct tapes (one per significand of W), so no
#: tape is dropped there. A tape is a few hundred bytes per round and
#: scale read, plus the kernel of a walk not yet at ``max_rounds``.
MAX_ENGINE_TAPES = 256

#: Fixed coordination cost of writing one checkpoint (barrier piggyback,
#: metadata commit), on top of streaming the state to disk.
CHECKPOINT_BASE_SECONDS = 0.05

#: Asynchronous engines have no superstep barrier to piggyback the
#: checkpoint on; a consistent snapshot needs Chandy-Lamport-style
#: marker coordination, paid as a multiplier on the write cost.
ASYNC_CHECKPOINT_FACTOR = 1.5

#: Base stall when a disk-full event hits an out-of-core spill (space
#: reclamation before the write can be retried), scaled by the event
#: magnitude on top of re-paying the round's disk time.
DISK_FULL_BASE_STALL_SECONDS = 0.5

#: For engines that aggregate results into vertex state (GraphLab's GAS
#: model), the residual per vertex is bounded by the number of distinct
#: endpoint counters a vertex realistically accumulates.
AGGREGATED_ENDPOINTS_PER_VERTEX = 512


@dataclass(frozen=True)
class EngineProfile:
    """Static personality of one VC-system mode.

    The values encode the implementation differences Section 2.2
    catalogues: language (JVM vs C++), synchronisation, combining,
    mirroring, and out-of-core execution.
    """

    name: str
    #: language/runtime multiplier on compute time (C++ 1.0, JVM ~2.4).
    cpu_factor: float = 1.0
    #: vertex/arc/message byte constants and object overheads.
    memory: MemoryModel = field(default_factory=MemoryModel)
    #: partition strategy ("hash" or "edge-cut").
    partition_strategy: str = "hash"
    #: broadcast routing (Pregel+(mirror)) instead of point-to-point.
    broadcast: bool = False
    #: combine messages sharing (source, target) before sending.
    combining: bool = False
    #: synchronisation barrier per round; async engines set near-zero.
    barrier_base_seconds: float = 0.015
    barrier_per_machine_seconds: float = 0.0015
    #: fixed per-round dispatch overhead.
    per_round_overhead_seconds: float = 0.02
    #: fixed per-batch startup cost (task initialisation, buffer setup,
    #: result bookkeeping) — what makes *too many* batches slow even when
    #: each batch is light (Figure 6: W=1024 at 173 s / 178 s / 201 s for
    #: 1 / 2 / 4 batches).
    per_batch_overhead_seconds: float = 2.0
    #: extra multiplier on message count for async control traffic.
    async_message_factor: float = 1.0
    #: locking work units per active vertex per machine (async GAS).
    lock_ops_per_active_vertex: float = 0.0
    #: out-of-core: message-buffer memory budget in (unscaled) bytes;
    #: buffers stream through disk always, and demand beyond the budget
    #: forces extra merge passes. None = in-memory engine.
    out_of_core_budget_bytes: Optional[float] = None
    #: damping applied to partition imbalance (mirroring "eliminates
    #: skew in communication"); 1.0 = no damping.
    imbalance_damping: float = 1.0
    #: GAS replica-sync routing (GraphLab): network traffic scales with
    #: vertex replicas instead of per-edge messages.
    gas_routing: bool = False
    #: GAS engines aggregate task results into per-vertex counters
    #: instead of per-unit lists, capping residual memory.
    aggregated_residual: bool = False
    #: ablation switch: pretend intermediate results occupy no memory
    #: (used by the ablation benchmarks to isolate the residual-memory
    #: mechanism behind Sections 4.5/4.7).
    ignore_residual_memory: bool = False
    #: Facebook-Giraph superstep splitting (Section 2.2: "split a
    #: message-heavy superstep into several sub-steps for message
    #: reduction"): rounds whose wire-message count exceeds this
    #: threshold run as multiple sub-steps, each moving a slice of the
    #: traffic — an in-engine alternative to workload batching. None
    #: disables splitting.
    superstep_split_threshold_messages: "Optional[float]" = None
    #: replicate the whole graph on every machine (Section 4.9 mode).
    whole_graph: bool = False
    #: degree threshold for building mirrors (broadcast engines).
    mirror_degree_threshold: int = 100

    @property
    def is_async(self) -> bool:
        return self.barrier_per_machine_seconds == 0.0

    @property
    def out_of_core(self) -> bool:
        return self.out_of_core_budget_bytes is not None


@dataclass
class BatchCheckpoint:
    """An in-flight batch frozen at a superstep barrier.

    Produced by :meth:`EngineSession.run_batch` when the caller's
    ``should_suspend`` callback fires; consumed by
    :meth:`EngineSession.resume`. The object carries everything the
    round loop needs to continue — the partially-filled
    :class:`BatchMetrics`, the live kernel (residual/frontier state;
    for a deterministic batch, its round-tape cursor), and the
    crash-rollback window — so a suspend → resume cycle replays
    *nothing* and the finished batch is byte-identical to an
    uninterrupted run.

    Suspension piggybacks on the engine's checkpoint accounting: the
    barrier write costs :meth:`SimulatedEngine._checkpoint_seconds`
    over the last round's peak state, and resuming reads it back at
    the same price. Both charges land on the *session clock* and this
    object's counters, never on the batch's own metrics — the
    suspension is a scheduler artifact, invisible to ``pack_job``.
    """

    batch: BatchMetrics
    workload: float
    kernel: object = field(repr=False, default=None)
    #: next round index to execute when resumed.
    next_round: int = 0
    #: residual bytes of *previous* batches, snapshotted at batch
    #: start so a mid-suspension flush cannot alter resumed rounds.
    residual_prev_bytes: float = 0.0
    #: crash-rollback window (seconds per round since last checkpoint).
    since_checkpoint: List[float] = field(default_factory=list)
    last_checkpoint_cost: Optional[float] = None
    disk_full_pending: float = 0.0
    #: suspension bookkeeping (scheduler-side accounting only).
    suspends: int = 0
    resumes: int = 0
    #: cost of the most recent suspension write — re-paid on restore.
    last_suspend_cost_seconds: float = 0.0
    #: total suspend + restore seconds charged so far.
    suspend_resume_seconds: float = 0.0

    @property
    def rounds_done(self) -> int:
        return len(self.batch.rounds)

    def state_bytes(self) -> float:
        """Checkpointed task state (accumulated results) in bytes."""
        return float(self.kernel.residual_bytes())


class _RoundTape:
    """The memoised rounds of one deterministic walk (what a kernel's
    :meth:`~repro.tasks.base.TaskKernel.replay_key` names), one view per
    scale a batch reads it at.

    ``walk`` (:meth:`~repro.tasks.base.TaskKernel.replay_walk`) executes
    rounds only when a cursor asks for one that its view lacks, so a
    batch that breaks early (overload, cutoff) executes nothing beyond
    its break, and a later batch that gets further — at the same scale
    or, for a :class:`~repro.tasks.bppr.ScaledWalk`, another one —
    continues the same walk. A view holds per round the summary, the
    kernel's ``residual_bytes()`` right after it and the summary's
    :class:`~repro.sim.cost.RoundDemand` — the three things the round
    loop reads — built once per exponent and never mutated.
    """

    __slots__ = ("walk", "views")

    def __init__(self, walk) -> None:
        self.walk = walk
        self.views: Dict[int, List[Tuple[RoundSummary, float, RoundDemand]]] = {}

    def record_next(self, exponent: int, demand_of) -> None:
        """Add the first round the view at ``exponent`` lacks;
        ``demand_of`` is the session's stage 1."""
        view = self.views[exponent]
        summary, residual = self.walk.round(len(view), exponent)
        view.append((summary, residual, demand_of(summary)))


class _TapeCursor:
    """One batch's read position on a :class:`_RoundTape`'s view.

    Stands in for the kernel in :class:`BatchCheckpoint`: it exposes
    the two methods the engine calls on a kernel — ``step()`` and
    ``residual_bytes()`` — so ``_drive`` runs replayed and executed
    rounds alike, and a suspended batch resumes from its own position.
    On top it carries ``demand``, the last served round's stage-1
    record, which ``_drive`` computes itself for a live kernel.
    """

    __slots__ = (
        "_tape", "_exponent", "_view", "_demand_of", "_position",
        "_residual_bytes", "demand", "replayed",
    )

    def __init__(self, tape: _RoundTape, exponent: int, demand_of) -> None:
        self._tape = tape
        self._exponent = exponent
        self._view = tape.views.setdefault(exponent, [])
        self._demand_of = demand_of
        self._position = 0
        self._residual_bytes = tape.walk.initial_residual_bytes
        self.demand: Optional[RoundDemand] = None
        #: rounds this batch read off its view, neither executed nor
        #: priced for demand.
        self.replayed = 0

    def step(self) -> RoundSummary:
        """The batch's next round: off the view if it has it, else
        recorded there now."""
        view = self._view
        if self._position < len(view):
            self.replayed += 1
        else:
            self._tape.record_next(self._exponent, self._demand_of)
        summary, self._residual_bytes, self.demand = view[self._position]
        self._position += 1
        return summary

    def residual_bytes(self) -> float:
        """``kernel.residual_bytes()`` as of the last round served."""
        return self._residual_bytes


@dataclass
class _PreparedGraph:
    """Partition-derived state one engine caches per (graph content,
    message size), and the round tapes its sessions share: by task
    kind, task params and kernel replay key, least recently used
    first."""

    partition: Partition
    plan: MirrorPlan
    router: MessageRouter
    imbalance: float
    max_vertices: float
    max_arcs: float
    tapes: Dict[Hashable, _RoundTape] = field(default_factory=dict)


class EngineSession:
    """A long-lived execution context for one (engine, task family) pair.

    The session is the *pure batch-execution core* of the engine: graph
    partitions, mirror plans, the message router and the RNG stream
    are prepared once and persist across every batch the session
    runs, along with the accumulated residual memory, elapsed
    simulated time, and the global round counter that fault plans index.
    Batches whose kernel declares itself deterministic execute once per
    engine and graph — the tape lives on the prepared graph, so every
    session of the engine reads it — and are replayed from that round
    tape afterwards (:class:`_RoundTape`); everything priced per round —
    cost model, faults, checkpoints, suspension — still runs for every
    round.

    :meth:`SimulatedEngine.run_job` drives a session over a fixed
    schedule (the legacy offline path); the online scheduler
    (:mod:`repro.sched.service`) drives one batch at a time as unit
    tasks arrive, flushing residual memory between job epochs with
    :meth:`flush_residual`. Both paths execute the *same* code, so a
    degenerate schedule (all tasks pre-queued) reproduces the offline
    runner byte for byte.
    """

    def __init__(
        self,
        engine: "SimulatedEngine",
        task: TaskSpec,
        seed: SeedLike = None,
        *,
        fault_plan: Optional[FaultPlan] = None,
        checkpoint_every: Optional[int] = None,
        initial_residual_bytes: float = 0.0,
        cutoff_seconds: Optional[float] = OVERLOAD_CUTOFF_SECONDS,
    ) -> None:
        if checkpoint_every is not None:
            checkpoint_every = int(checkpoint_every)
            if checkpoint_every <= 0:
                raise ConfigurationError(
                    "checkpoint_every must be a positive round count"
                )
        if initial_residual_bytes < 0:
            raise ConfigurationError(
                "initial_residual_bytes must be non-negative"
            )
        self.engine = engine
        self.task = task
        self.prep = engine._prepare(task)
        self.cost_model = engine._make_cost_model()
        self.rng = make_rng(seed, label=f"{engine.name}/{task.name}")
        self.fault_plan = fault_plan
        self.checkpoint_every = checkpoint_every
        #: ``None`` disables the offline 6000 s job cutoff — the online
        #: scheduler runs indefinitely, so an absolute elapsed-time stamp
        #: would mislabel every batch past the horizon.
        self.cutoff_seconds = cutoff_seconds
        self.residual_bytes = float(initial_residual_bytes)
        self.elapsed = 0.0
        self.global_round = 0
        self.batches_run = 0
        #: the in-flight batch frozen at a barrier, if any.
        self.suspended: Optional[BatchCheckpoint] = None
        #: what a tape key holds beside the kernel's replay key: the
        #: tapes are the prep's, and stage 1 reads the task's kind and
        #: params besides the summary.
        self._tape_scope = (task.name, repr(sorted(task.params.items())))
        #: optional ask-tell calibrator (DESIGN.md §15): when set by the
        #: scheduler, every completed batch *tells* its observed
        #: (workload, peak, residual, seconds) back so the cost models
        #: keep training online. ``None`` (the default) leaves every
        #: code path untouched — the tell reads finished metrics only
        #: and never touches the RNG stream or the session clock.
        self.calibrator = None
        #: workload completed since the last residual flush — the x
        #: coordinate residual-model tells use (``Mr`` maps *total
        #: processed workload* to leftover bytes).
        self.told_workload = 0.0

    def flush_residual(self) -> float:
        """Release the accumulated residual memory (results emitted to
        the caller) and return the bytes freed.

        The offline path never flushes — residual accumulates until the
        job's final aggregation, reproducing Section 4.5. The online
        scheduler flushes between job epochs when admission control
        reports the residual has eaten the memory budget (backpressure).
        """
        released = self.residual_bytes
        self.residual_bytes = 0.0
        self.told_workload = 0.0
        return released

    def run_batch(self, batch_workload, *, should_suspend=None):
        """Execute one batch of ``batch_workload`` unit tasks.

        Returns the batch's :class:`BatchMetrics`; session state
        (residual memory, elapsed time, round counter, RNG stream)
        advances so the next batch continues exactly where a
        fixed-schedule job would.

        ``should_suspend`` is an optional callback invoked at every
        superstep barrier (after a successful, non-final round) with
        the in-progress :class:`BatchMetrics`. Returning ``True``
        freezes the batch into a :class:`BatchCheckpoint` — which this
        method then returns instead of the metrics — at the cost of
        one checkpoint write charged to the session clock.
        :meth:`resume` continues it later; the eventual result is
        byte-identical to an uninterrupted run.
        """
        if self.suspended is not None:
            raise EngineError(
                "session has a suspended batch; resume() it before "
                "starting a new batch (kernels share the session RNG "
                "stream, so interleaving would change results)"
            )
        if batch_workload <= 0:
            raise BatchingError("batch workload must be positive")
        batch = BatchMetrics(
            batch_index=self.batches_run,
            workload=float(batch_workload),
            residual_memory_bytes=self.residual_bytes,
        )
        kernel = self.task.make_kernel(
            self.prep.router, float(batch_workload), self.rng
        )
        replay_key = kernel.replay_key()
        if replay_key is not None:
            kernel = self._tape_cursor(replay_key, kernel)
        batch.startup_seconds = self.engine.profile.per_batch_overhead_seconds
        self.elapsed += batch.startup_seconds
        state = BatchCheckpoint(
            batch=batch,
            workload=float(batch_workload),
            kernel=kernel,
            residual_prev_bytes=self.residual_bytes,
        )
        return self._drive(state, should_suspend)

    def _tape_cursor(self, replay_key: Hashable, kernel) -> _TapeCursor:
        """A cursor at round 0 of the engine's tape for this task and
        ``replay_key``, on the view at the kernel's replay exponent.

        ``kernel`` is the batch's freshly started kernel: on a miss it
        gives the new tape its walk (its own rounds, or a walk it shares
        with other scales), and it is discarded unstepped on a hit (it
        declared itself deterministic, so building it drew nothing
        from the session RNG). A tape another session recorded serves
        this one as is: what it holds — the summary, the kernel's
        residual and stage 1 — reads no session state (DESIGN.md
        §10.2); this session lands every round on its own residual.
        """
        tapes = self.prep.tapes
        key = self._tape_scope + (replay_key,)
        tape = tapes.pop(key, None)
        if tape is None:
            tape = _RoundTape(kernel.replay_walk())
            if len(tapes) >= MAX_ENGINE_TAPES:
                del tapes[next(iter(tapes))]
        tapes[key] = tape
        return _TapeCursor(tape, kernel.replay_exponent(), self._demand)

    def resume(self, *, should_suspend=None):
        """Continue the suspended batch from its barrier checkpoint.

        Restoring reads the suspension checkpoint back (≈ the write
        cost, mirroring crash recovery's restore accounting) before
        the round loop continues. Returns the finished
        :class:`BatchMetrics`, or a new :class:`BatchCheckpoint` if
        ``should_suspend`` fires again.
        """
        state = self.suspended
        if state is None:
            raise EngineError("no suspended batch to resume")
        self.suspended = None
        restore = state.last_suspend_cost_seconds
        state.suspend_resume_seconds += restore
        state.resumes += 1
        self.elapsed += restore
        return self._drive(state, should_suspend)

    def _drive(self, state: BatchCheckpoint, should_suspend=None):
        """Run the superstep loop from ``state`` until the batch
        finishes, overloads, or ``should_suspend`` fires at a barrier.

        This is the engine's only round loop: an uninterrupted
        ``run_batch`` drives it start to finish, so the suspend path
        shares every float operation with the straight-through path.
        """
        engine = self.engine
        batch = state.batch
        kernel = state.kernel
        # A replayed round reads its demand off the tape; a live kernel's
        # is computed here. Nothing else tells the two apart.
        cursor = kernel if isinstance(kernel, _TapeCursor) else None
        overloaded = suspended = False
        # Rollback window: seconds of the rounds executed since the
        # last checkpoint — what a crash forces the engine to replay.
        since_checkpoint = state.since_checkpoint
        last_checkpoint_cost = state.last_checkpoint_cost
        disk_full_pending = state.disk_full_pending
        kernel_seconds = pricing_seconds = 0.0
        perf_counter = time.perf_counter
        first_round = state.next_round
        for round_index in range(first_round, MAX_ROUNDS_PER_BATCH):
            tick = perf_counter()
            summary = kernel.step()
            tock = perf_counter()
            kernel_seconds += tock - tick
            demand = self._demand(summary) if cursor is None else cursor.demand
            metrics, memory_overloaded = self._land(
                demand,
                round_index,
                state.residual_prev_bytes + kernel.residual_bytes(),
            )
            pricing_seconds += perf_counter() - tock
            batch.rounds.append(metrics)
            self.elapsed += metrics.seconds
            if memory_overloaded:
                overloaded = True
                batch.overload_reason = "memory"
                break
            since_checkpoint.append(metrics.seconds)
            if self.fault_plan is not None:
                extra, disk_full = engine._apply_faults(
                    self.fault_plan.events_at(self.global_round),
                    batch,
                    metrics,
                    since_checkpoint,
                    last_checkpoint_cost,
                )
                self.elapsed += extra
                disk_full_pending = max(disk_full_pending, disk_full)
            self.global_round += 1
            if (
                self.checkpoint_every
                and not summary.done
                and len(since_checkpoint) >= self.checkpoint_every
            ):
                ckpt_seconds = engine._checkpoint_seconds(
                    metrics.peak_memory_bytes
                )
                if disk_full_pending:
                    # A disk-full event between checkpoints: the
                    # write fails once and is retried after space
                    # reclamation.
                    ckpt_seconds *= 1.0 + disk_full_pending
                    disk_full_pending = 0.0
                batch.checkpoints_written += 1
                batch.checkpoint_seconds += ckpt_seconds
                self.elapsed += ckpt_seconds
                last_checkpoint_cost = ckpt_seconds
                since_checkpoint = []
            if (
                self.cutoff_seconds is not None
                and self.elapsed > self.cutoff_seconds
            ):
                overloaded = True
                batch.overload_reason = "timeout"
                break
            if summary.done:
                break
            if should_suspend is not None and should_suspend(batch):
                # Barrier suspension: checkpoint the bottleneck
                # machine's state (same pricing as a cadence
                # checkpoint over this round's peak) and hand the
                # frozen batch back to the caller. The cost stays on
                # the session clock and the checkpoint object — the
                # batch's own metrics are untouched, so the finished
                # result packs byte-identically.
                suspend_cost = engine._checkpoint_seconds(
                    metrics.peak_memory_bytes
                )
                state.next_round = round_index + 1
                state.since_checkpoint = since_checkpoint
                state.last_checkpoint_cost = last_checkpoint_cost
                state.disk_full_pending = disk_full_pending
                state.suspends += 1
                state.last_suspend_cost_seconds = suspend_cost
                state.suspend_resume_seconds += suspend_cost
                self.elapsed += suspend_cost
                self.suspended = state
                suspended = True
                break
        else:
            raise EngineError(
                f"batch exceeded {MAX_ROUNDS_PER_BATCH} rounds; "
                "kernel did not terminate"
            )
        # One booking per phase per exit, not per round: the table (and
        # its RSS sampling) is off the round loop.
        driven = round_index + 1 - first_round
        timings.add("kernel", kernel_seconds, count=driven)
        timings.add("cost-model", pricing_seconds, count=driven)
        if suspended:
            return state
        batch.overloaded = overloaded
        if cursor is not None:
            timings.add("kernel.replayed", 0.0, count=cursor.replayed)
        self.residual_bytes += kernel.residual_bytes()
        batch.residual_memory_after_bytes = self.residual_bytes
        self.batches_run += 1
        if self.calibrator is not None and not overloaded:
            self.told_workload += batch.workload
            self.calibrator.tell(
                batch.workload,
                batch.peak_memory_bytes,
                self.residual_bytes,
                batch.seconds,
                done_workload=self.told_workload,
            )
        return batch

    # ------------------------------------------------------------------
    # Per-round translation (DESIGN.md §10.2)
    # ------------------------------------------------------------------
    def _demand(self, summary: RoundSummary) -> RoundDemand:
        """Stage 1: what the round ``summary`` describes demands of the
        bottleneck machine, wherever it lands in memory."""
        task = self.task
        prep = self.prep
        cluster = self.engine.cluster
        machines = cluster.num_machines
        profile = self.engine.profile

        routed = summary.routed
        wire = routed.wire_messages
        if profile.combining and summary.combined_messages is not None:
            wire = min(wire, summary.combined_messages)
        combine_ratio = wire / routed.wire_messages if routed.wire_messages else 1.0

        # Superstep splitting: slice a message-heavy round into
        # sub-steps so each moves at most the threshold's worth of
        # traffic (memory and congestion see the per-sub-step volume;
        # the round's total cost is the sum over sub-steps). The
        # divisions by ``splits`` below are the only ones: a sub-step
        # carries 1/splits of the round, not 1/splits².
        splits = 1
        if (
            profile.superstep_split_threshold_messages
            and wire > profile.superstep_split_threshold_messages
        ):
            splits = int(
                np.ceil(wire / profile.superstep_split_threshold_messages)
            )
        # Asynchronous engines with dynamic scheduling skip redundant
        # updates on fixed-point tasks (delta caching); multi-processing
        # tasks get no such discount (factor 1.0).
        update_factor = 1.0
        if profile.is_async:
            update_factor = float(task.params.get("async_update_factor", 1.0))
        network_messages = (
            routed.network_messages
            * combine_ratio
            * profile.async_message_factor
            * update_factor
        ) / splits
        local_messages = (
            routed.local_messages
            * combine_ratio
            * profile.async_message_factor
            * update_factor
        ) / splits
        if profile.gas_routing:
            # GAS over an edge-cut: gathers/scatters run on local edge
            # replicas; only per-replica vertex synchronisation crosses
            # the network — one sync per replica instead of one message
            # per out-edge.
            replication = max(prep.partition.replication_factor, 1.0)
            avg_degree = max(
                task.graph.num_arcs / max(task.graph.num_vertices, 1), 1.0
            )
            gas_factor = min(1.0, (replication - 1.0) / avg_degree)
            network_messages *= gas_factor

        message_bytes = prep.router.message_bytes
        bottleneck_network = network_messages / machines * prep.imbalance
        # In + out at the bottleneck machine.
        bottleneck_bytes = 2.0 * bottleneck_network * message_bytes

        lock_ops = (
            profile.lock_ops_per_active_vertex
            * summary.active_vertices
            * machines
        )
        compute_ops = (
            (summary.compute_ops * update_factor / splits + lock_ops)
            / machines
            * prep.imbalance
        )

        # Memory at the bottleneck machine. Combining shrinks receive
        # buffers by the same ratio it shrinks wire traffic.
        delivered = (
            routed.delivered_messages
            * combine_ratio
            * profile.async_message_factor
            * update_factor
        ) / splits
        buffered_messages = (
            (delivered + network_messages + local_messages)
            / machines
            * prep.imbalance
        )
        task_state_per_machine = (
            summary.task_state_bytes / machines * prep.imbalance
        )
        # The round's own footprint — Equation 1's in-flight summand.
        # With no residual the breakdown's total is the left-to-right
        # sum of its first three terms; stage 2 adds the residual last.
        breakdown = profile.memory.breakdown(
            vertices=prep.max_vertices,
            arcs=prep.max_arcs,
            messages_in=buffered_messages / 2.0,
            messages_out=buffered_messages / 2.0,
            task_state_bytes=task_state_per_machine,
            message_bytes=message_bytes,
        )
        peak_memory = breakdown.total

        spilled = 0.0
        if profile.out_of_core:
            # GraphD's distributed semi-streaming model: vertex states
            # stay in memory within a fixed message-buffer budget;
            # message traffic streams through the disk (the buffer
            # footprint already counts each message on both the send and
            # receive side, i.e. one write plus one read). Demand beyond
            # the budget forces extra external-memory merge passes,
            # which is what drives Table 3's >100 % disk utilisation at
            # small batch counts.
            budget = profile.out_of_core_budget_bytes / cluster.scale
            buffered = breakdown.buffer_bytes
            # External-memory merge passes grow with the log of the
            # overflow ratio (k-way merges), not polynomially.
            ratio = max(1.0, buffered / budget)
            amplification = 1.0 + 4.0 * float(np.log(ratio))
            spilled = buffered * amplification
            peak_memory = breakdown.graph_bytes + min(
                buffered + breakdown.task_state_bytes, budget
            )

        load = RoundLoad(
            network_messages=network_messages,
            local_messages=local_messages,
            bottleneck_bytes=bottleneck_bytes,
            cluster_bytes=network_messages * message_bytes,
            compute_ops=compute_ops,
            peak_memory_bytes=peak_memory,
            spilled_bytes=spilled,
            message_bytes=message_bytes,
            splits=splits,
        )
        return self.cost_model.demand(load)

    def _land(
        self, demand: RoundDemand, round_index: int, residual_bytes: float
    ) -> Tuple[RoundMetrics, bool]:
        """Stage 2: price ``demand`` where it lands — on top of
        ``residual_bytes`` of results kept cluster-wide (every earlier
        batch's plus this batch's so far, Equation 1's residual
        summand). Returns the round's metrics and whether the landing
        overloaded memory."""
        load = demand.load
        splits = load.splits
        profile = self.engine.profile
        if profile.out_of_core or profile.ignore_residual_memory:
            # An out-of-core peak is capped in stage 1 and never sees
            # the results; the ablation pretends they weigh nothing.
            residual_bytes = 0.0
        elif profile.aggregated_residual:
            # Vertex-state aggregation bounds residual memory by the
            # number of distinct (vertex, endpoint-bucket) counters.
            task = self.task
            residual_bytes = min(
                residual_bytes,
                task.graph.num_vertices
                * AGGREGATED_ENDPOINTS_PER_VERTEX
                * task.residual_record_bytes,
            )
        cost = self.cost_model.round_cost(
            load, demand, residual_bytes / self.engine.cluster.num_machines
        )
        # Positional, in field order (see ``round_cost``).
        metrics = RoundMetrics(
            round_index,
            load.network_messages * splits,
            load.local_messages * splits,
            load.bottleneck_bytes,
            load.compute_ops,
            cost.peak_memory_bytes,
            load.spilled_bytes,
            cost.seconds,
            cost.compute_seconds,
            cost.network_seconds,
            cost.disk_seconds,
            cost.barrier_seconds,
            cost.thrash_multiplier,
            cost.disk_utilization,
            cost.io_queue_length,
            cost.network_saturated,
        )
        return metrics, cost.overloaded


class SimulatedEngine:
    """A VC-system mode bound to a cluster, ready to run jobs."""

    def __init__(self, cluster: ClusterSpec, profile: EngineProfile) -> None:
        self.cluster = cluster
        self.profile = profile
        self._prepared: dict = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.profile.name

    def run_job(
        self,
        task: TaskSpec,
        batch_sizes: Sequence[float],
        seed: SeedLike = None,
        *,
        fault_plan: Optional[FaultPlan] = None,
        checkpoint_every: Optional[int] = None,
        on_overload: str = "report",
        initial_residual_bytes: float = 0.0,
    ) -> JobMetrics:
        """Run a multi-processing job split into ``batch_sizes``.

        Batches execute sequentially; the job is marked overloaded (and
        reported at the paper's 6000 s cutoff) if any machine exceeds
        its overload memory limit or the simulated time passes the
        cutoff.

        ``fault_plan`` injects the plan's crash/straggler/message-loss/
        disk-full events round by round (rounds counted consecutively
        across batches). ``checkpoint_every=k`` enables Pregel-style
        checkpointing every ``k`` rounds: checkpoint writes cost
        simulated time, and an injected crash rolls back to the last
        checkpoint instead of the start of the batch — ``JobMetrics``
        records checkpoints written, rounds replayed, and time lost.
        ``on_overload="raise"`` opts out of the paper's
        report-at-cutoff treatment and raises :class:`OverloadError`
        (with machine/peak context) instead. ``initial_residual_bytes``
        seeds the residual-memory accumulator, letting overload
        recovery resume a job behind already-completed batches.
        """
        sizes = [float(s) for s in batch_sizes]
        if not sizes or any(s <= 0 for s in sizes):
            raise BatchingError("batch sizes must be a non-empty positive list")
        if abs(sum(sizes) - task.workload) > 1e-6 * max(task.workload, 1.0):
            raise BatchingError(
                f"batch sizes sum to {sum(sizes):g}, expected workload "
                f"{task.workload:g}"
            )
        if checkpoint_every is not None:
            checkpoint_every = int(checkpoint_every)
            if checkpoint_every <= 0:
                raise ConfigurationError(
                    "checkpoint_every must be a positive round count"
                )
        if on_overload not in ("report", "raise"):
            raise ConfigurationError(
                f"on_overload must be 'report' or 'raise', "
                f"got {on_overload!r}"
            )
        if initial_residual_bytes < 0:
            raise ConfigurationError(
                "initial_residual_bytes must be non-negative"
            )

        # Whole runs are pure functions of (engine profile, cluster,
        # graph content, task settings, batch split, seed): experiment
        # sweeps repeat many identical runs across figures, so memoise
        # them — and persist them to the on-disk store when a cache
        # directory is configured, which makes warm re-runs skip the
        # simulation entirely. Generator seeds carry hidden state and
        # are not cached. Callers get their own job, batches and round
        # lists (``clone_job``) over shared round records, which cannot
        # be assigned to: mutating a returned job never poisons the cache.
        if _cacheable(seed):
            cache_key = self._run_key(
                task, sizes, seed, fault_plan, checkpoint_every,
                initial_residual_bytes,
            )
            job = get_cache().get_or_build(
                cache_key,
                lambda: self._run_job_uncached(
                    task,
                    sizes,
                    seed,
                    fault_plan=fault_plan,
                    checkpoint_every=checkpoint_every,
                    initial_residual_bytes=initial_residual_bytes,
                ),
                serializer=JOB_SERIALIZER,
            )
            job = clone_job(job)
        else:
            job = self._run_job_uncached(
                task,
                sizes,
                seed,
                fault_plan=fault_plan,
                checkpoint_every=checkpoint_every,
                initial_residual_bytes=initial_residual_bytes,
            )
        if on_overload == "raise" and job.overloaded:
            failed = next(
                b for b in job.batches if b.overloaded and not b.aborted
            )
            machine = self.cluster.scaled_machine
            raise OverloadError(
                f"{self.name}/{task.name} on {self.cluster.name}: batch "
                f"{failed.batch_index} overloaded "
                f"({failed.overload_reason}); peak "
                f"{failed.peak_memory_bytes:.4g} B vs overload limit "
                f"{machine.overload_limit_bytes:.4g} B per machine",
                machine=self.cluster.name,
                peak_memory_bytes=failed.peak_memory_bytes,
                limit_bytes=machine.overload_limit_bytes,
                batch_index=failed.batch_index,
                reason=failed.overload_reason,
            )
        return job

    def run_canonical(self, task: TaskSpec, seed: SeedLike = None) -> bytes:
        """The packed metrics (:func:`~repro.sim.metrics.pack_job`
        payload) of a one-batch canonical run of ``task`` — the hermetic
        response behind the serving tier's result cache.

        A single batch holding the whole workload, no faults, no
        checkpoints, no prior residual: the result is a pure function
        of (engine profile, cluster, graph content, task settings,
        seed), so every caller deriving the same content key gets
        byte-identical bytes. The job is packed once, and the bytes are
        what the artifact store keeps, under a ``response`` key of their
        own beside :meth:`run_job`'s ``run`` archives (which hold runs in
        another format, :func:`~repro.sim.metrics.archive_job`), so a
        cold result cache over a warm store answers with the file's
        bytes, never rebuilding the job. The memory LRU is left to the
        caller's memo of the bytes.
        """
        sizes = [float(task.workload)]

        def render() -> bytes:
            job = self._run_job_uncached(task, sizes, seed)
            return bytes(pack_job(job)["payload"])

        if not _cacheable(seed):
            return render()
        key = self._run_key(task, sizes, seed, None, None, 0.0)
        return get_cache().get_or_build(
            ("response",) + key[1:],
            render,
            serializer=PAYLOAD_SERIALIZER,
            use_memory=False,
        )

    def _run_key(
        self,
        task: TaskSpec,
        sizes: List[float],
        seed: SeedLike,
        fault_plan: Optional[FaultPlan],
        checkpoint_every: Optional[int],
        initial_residual_bytes: float,
    ) -> Tuple:
        """Artifact-cache key of a whole run (``seed`` an int or
        ``None``): everything its metrics are a function of."""
        return (
            "run",
            repr(self.profile),
            repr(self.cluster),
            task.graph.fingerprint,
            task.name,
            float(task.workload),
            float(task.message_bytes),
            float(task.residual_record_bytes),
            repr(sorted(task.params.items())),
            tuple(sizes),
            None if seed is None else int(seed),
            None if fault_plan is None else fault_plan.fingerprint,
            checkpoint_every,
            float(initial_residual_bytes),
        )

    def open_session(
        self,
        task: TaskSpec,
        seed: SeedLike = None,
        *,
        fault_plan: Optional[FaultPlan] = None,
        checkpoint_every: Optional[int] = None,
        initial_residual_bytes: float = 0.0,
        cutoff_seconds: Optional[float] = OVERLOAD_CUTOFF_SECONDS,
    ) -> EngineSession:
        """Open a reusable :class:`EngineSession` for ``task``.

        The session pins the prepared graph (partition, mirror plan,
        router) and the RNG stream, then runs batches one at a time —
        the building block the online scheduler drives.
        ``cutoff_seconds=None`` disables the offline job cutoff for
        long-lived services.
        """
        return EngineSession(
            self,
            task,
            seed,
            fault_plan=fault_plan,
            checkpoint_every=checkpoint_every,
            initial_residual_bytes=initial_residual_bytes,
            cutoff_seconds=cutoff_seconds,
        )

    def _run_job_uncached(
        self,
        task: TaskSpec,
        sizes: List[float],
        seed: SeedLike,
        fault_plan: Optional[FaultPlan] = None,
        checkpoint_every: Optional[int] = None,
        initial_residual_bytes: float = 0.0,
    ) -> JobMetrics:
        """Drive a fresh session over the fixed ``sizes`` schedule.

        This is the degenerate schedule of the online scheduler: every
        batch pre-planned, executed back to back on one session.
        """
        session = self.open_session(
            task,
            seed,
            fault_plan=fault_plan,
            checkpoint_every=checkpoint_every,
            initial_residual_bytes=initial_residual_bytes,
        )
        job = JobMetrics(
            engine=self.name,
            task=task.name,
            dataset=task.graph.name,
            cluster=self.cluster.name,
            num_machines=self.cluster.num_machines,
            total_workload=task.workload,
            batch_sizes=sizes,
        )
        for batch_workload in sizes:
            batch = session.run_batch(batch_workload)
            job.batches.append(batch)
            if batch.overloaded:
                break

        job.aggregation_seconds = self._aggregation_seconds(
            task, session.residual_bytes
        )
        job.extras.update(session.cost_model.overuse_totals())
        job.extras["residual_memory_bytes"] = session.residual_bytes
        return job

    # ------------------------------------------------------------------
    # Preparation
    # ------------------------------------------------------------------
    def _prepare(self, task: TaskSpec) -> _PreparedGraph:
        # Keyed by graph *content* and the task's wire message size. The
        # fingerprint, not ``id(graph)``: a whole-graph prep holds no
        # reference to its graph, so a collected graph's id can be
        # recycled and a different graph would inherit its partition and
        # plan (``partition_graph`` hashes the graph for its artifact key
        # anyway, and the graph caches the digest). The message size,
        # because the router inside the prep carries it: two kinds on
        # one graph must not share a prep or whichever prepares first
        # would donate its message size to the other (making the cost of
        # a batch depend on preparation order — e.g. on whether probe
        # training ran before the first serve batch). The heavy pieces
        # (partition, mirror plan) are memoised task-independently in the
        # artifact cache, so per-size preps only duplicate the cheap
        # router wrapper.
        key = (task.graph.fingerprint, float(task.message_bytes))
        if key in self._prepared:
            return self._prepared[key]
        graph = task.graph
        machines = self.cluster.num_machines

        if self.profile.whole_graph:
            partition = partition_graph(graph, machines, "hash")
            plan = build_mirror_plan(
                graph, partition, self.profile.mirror_degree_threshold
            )
            router: MessageRouter = _LocalOnlyRouter(task.message_bytes)
            imbalance = 1.0
            max_vertices = float(graph.num_vertices)
            max_arcs = float(graph.num_arcs)
        else:
            partition = partition_graph(
                graph, machines, self.profile.partition_strategy
            )
            plan = build_mirror_plan(
                graph, partition, self.profile.mirror_degree_threshold
            )
            if self.profile.broadcast:
                router = BroadcastRouter(
                    graph, plan, message_bytes=task.message_bytes * 1.5
                )
            else:
                router = PointToPointRouter(
                    graph, plan, message_bytes=task.message_bytes
                )
            mean_arcs = max(float(partition.arcs_per_machine.mean()), 1.0)
            raw_imbalance = float(partition.arcs_per_machine.max()) / mean_arcs
            imbalance = 1.0 + (raw_imbalance - 1.0) * self.profile.imbalance_damping
            replication = partition.replication_factor
            max_vertices = float(partition.vertices_per_machine.max()) * replication
            if self.profile.broadcast:
                max_vertices += plan.num_mirrors / machines
            max_arcs = float(partition.arcs_per_machine.max())

        router.combining = self.profile.combining
        prep = _PreparedGraph(
            partition=partition,
            plan=plan,
            router=router,
            imbalance=imbalance,
            max_vertices=max_vertices,
            max_arcs=max_arcs,
        )
        self._prepared[key] = prep
        return prep

    def _make_cost_model(self) -> CostModel:
        return CostModel(
            machine=self.cluster.scaled_machine,
            network_spec=self.cluster.scaled_network,
            disk_spec=self.cluster.scaled_disk if self.profile.out_of_core else None,
            num_machines=self.cluster.num_machines,
            cpu_factor=self.profile.cpu_factor,
            barrier_base_seconds=self.profile.barrier_base_seconds,
            barrier_per_machine_seconds=self.profile.barrier_per_machine_seconds,
            per_round_overhead_seconds=self.profile.per_round_overhead_seconds,
            overload_policy=OverloadPolicy(),
            memory_capped=self.profile.out_of_core,
        )

    # ------------------------------------------------------------------
    # Fault tolerance
    # ------------------------------------------------------------------
    def _checkpoint_seconds(self, state_bytes: float) -> float:
        """Simulated cost of writing one checkpoint.

        Pregel checkpoints vertex values, in-flight messages, and
        aggregator state to persistent storage at a superstep barrier;
        machines write in parallel, so the cost is the bottleneck
        machine's state streamed at the disk's bandwidth plus a fixed
        coordination base. Asynchronous engines pay the snapshot
        coordination factor on top (no barrier to piggyback on).
        """
        disk = self.cluster.scaled_disk
        seconds = (
            CHECKPOINT_BASE_SECONDS
            + disk.seek_overhead_seconds
            + state_bytes / disk.bandwidth_bytes_per_second
        )
        if self.profile.is_async:
            seconds *= ASYNC_CHECKPOINT_FACTOR
        return seconds

    def _apply_faults(
        self,
        events,
        batch: BatchMetrics,
        metrics,
        since_checkpoint: List[float],
        last_checkpoint_cost: Optional[float],
    ) -> "tuple[float, float]":
        """Price this round's injected faults.

        Returns ``(extra_seconds, disk_full_magnitude)`` — the simulated
        time the events cost, and the magnitude of a disk-full event
        that must instead be charged to the next checkpoint write (0.0
        when none). Crash events roll the batch back to the last
        checkpoint: the rounds in ``since_checkpoint`` (including the
        current one, whose work is lost mid-round) are replayed and the
        checkpoint is restored — or, without checkpointing, the batch
        restarts from scratch and pays its startup cost again.
        """
        extra = 0.0
        disk_full_pending = 0.0
        for event in events:
            if event.kind is FaultKind.STRAGGLER:
                # The synchronous barrier makes every machine wait for
                # the slow one; async engines still stall on its locks
                # but less severely (half the slowdown).
                slowdown = max(event.magnitude - 1.0, 0.0)
                if self.profile.is_async:
                    slowdown *= 0.5
                lost = metrics.seconds * slowdown
                batch.fault_events += 1
                batch.fault_seconds += lost
                extra += lost
                batch.fault_log.append(
                    f"{event.describe()}: +{lost:.3f}s barrier wait"
                )
            elif event.kind is FaultKind.MESSAGE_LOSS:
                # The lost fraction of this round's traffic is detected
                # at the barrier and retransmitted.
                lost = metrics.network_seconds * min(event.magnitude, 1.0)
                batch.fault_events += 1
                batch.fault_seconds += lost
                extra += lost
                batch.fault_log.append(
                    f"{event.describe()}: +{lost:.3f}s retransmission"
                )
            elif event.kind is FaultKind.DISK_FULL:
                if metrics.spilled_bytes > 0:
                    lost = (
                        metrics.disk_seconds + DISK_FULL_BASE_STALL_SECONDS
                    ) * event.magnitude
                    batch.fault_events += 1
                    batch.fault_seconds += lost
                    extra += lost
                    batch.fault_log.append(
                        f"{event.describe()}: +{lost:.3f}s spill stall"
                    )
                else:
                    # No spill this round: the event lands on the next
                    # checkpoint write instead (if checkpointing is on).
                    batch.fault_events += 1
                    disk_full_pending = max(
                        disk_full_pending, event.magnitude
                    )
                    batch.fault_log.append(
                        f"{event.describe()}: checkpoint write will retry"
                    )
            elif event.kind is FaultKind.CRASH:
                replay_rounds = len(since_checkpoint)
                if last_checkpoint_cost is not None:
                    # Restoring reads the checkpoint back (≈ the write
                    # cost) before replay starts.
                    restore = last_checkpoint_cost
                else:
                    restore = self.profile.per_batch_overhead_seconds
                lost = sum(since_checkpoint) + restore
                batch.crashes += 1
                batch.rounds_replayed += replay_rounds
                batch.replay_seconds += lost
                extra += lost
                batch.fault_log.append(
                    f"{event.describe()}: replayed {replay_rounds} "
                    f"rounds (+{lost:.3f}s)"
                )
        return extra, disk_full_pending

    def _aggregation_seconds(self, task: TaskSpec, residual_bytes: float) -> float:
        """Final result-aggregation step (significant for whole-graph mode)."""
        if not self.profile.whole_graph:
            return 0.0
        # Every machine ships its partial results to the master.
        bytes_to_move = residual_bytes
        network = self.cluster.scaled_network
        return (
            bytes_to_move / network.bandwidth_bytes_per_second
            + 0.05 * self.cluster.num_machines
        )


def _cacheable(seed: SeedLike) -> bool:
    """Whether a run under ``seed`` is a pure function of its key:
    generator seeds carry hidden state."""
    return seed is None or isinstance(seed, (int, np.integer))


class _LocalOnlyRouter(MessageRouter):
    """Whole-graph mode: every message is machine-local."""

    def __init__(self, message_bytes: float) -> None:
        self.message_bytes = message_bytes

    def route(self, vertex_ids: np.ndarray, emissions: np.ndarray):
        from repro.messages.routing import RoutedMessages

        total = float(np.asarray(emissions, dtype=np.float64).sum())
        return RoutedMessages(
            network_messages=0.0,
            local_messages=total,
            delivered_messages=total,
        )
