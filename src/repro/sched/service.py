"""The queue-driven scheduler loop (``vcrepro serve``).

The service owns one persistent :class:`~repro.engines.base.EngineSession`
per task kind (graph load, partitions and mirror plans survive across
batches) and an
:class:`~repro.sched.admission.AdmissionController` over the fitted
memory models. A :meth:`SchedulerService.run` call is one state record
(:class:`_Run`) and three transitions over it on a simulated clock
(DESIGN.md §10 tabulates them):

* **select** — requests whose arrival time has passed join the
  :class:`~repro.sched.queue.ReadyQueue` or are shed. The head's kind
  defines the next batch and admission control sizes it, largest
  admissible first — the paper's front-loaded insight falls out
  automatically, because residual memory accumulates and the admissible
  size shrinks. When not even one unit fits, the residual is flushed to
  the callers (backpressure), the budget resets and the decision is
  taken again. A kind with a batch frozen at a barrier resumes it.
* **dispatch** — the batch runs on the kind's session, where a barrier
  callback may suspend it for a more urgent cross-kind request.
* **settle** — the clock advances by the segment's simulated seconds; a
  suspended batch is pinned in admission, a completed one admitted and
  its finished requests answered, one that overloads anyway (model
  error) aborted and retried under a re-split cap
  (:class:`~repro.faults.recovery.OverloadRecovery`).

A degenerate schedule — every unit pre-queued at time zero, a single
kind, a single planner pass — reproduces the legacy offline runner
byte-identically (see :func:`run_degenerate` and the determinism
suite).
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.engines.base import (
    BatchCheckpoint,
    EngineSession,
    SimulatedEngine,
)
from repro.errors import RecoveryError, SchedulingError
from repro.faults.recovery import OverloadRecovery
from repro.graph.csr import Graph, streaming_budget_bytes
from repro.perf.cache import ResultCache, get_cache
from repro.rng import SeedLike
from repro.sched.admission import AdmissionController
from repro.sched.arrivals import DEFAULT_KINDS, TaskRequest
from repro.sched.policy import ServicePolicy
from repro.sched.queue import Pending, ReadyQueue
from repro.sim.metrics import (
    JobMetrics,
    ServiceMetrics,
    TaskLatency,
    pack_job,
)
from repro.tasks.base import make_task
from repro.tuning.calibrate import Calibrator
from repro.tuning.memory_model import MemoryCostModel
from repro.tuning.planner import DEFAULT_OVERLOAD_FRACTION, plan_batches
from repro.tuning.trainer import TaskFactory, train_memory_models

#: Default training reference workload for the per-kind memory models —
#: large enough for the probe ladder, small enough to train quickly.
DEFAULT_REFERENCE_WORKLOAD = 512.0

#: Per-unit host-state estimate for the ``--max-ram`` admission cap:
#: the dense kernel-state matrices are ``units × num_vertices`` rows
#: (:func:`repro.tasks.base.alloc_state_matrix`), and the kernels hold
#: two comparable matrices (dist/visited + pair_mask), so one unit
#: costs roughly two float64 rows of the vertex set.
STREAMING_STATE_BYTES_PER_VERTEX = 16.0


@dataclass
class _InFlight:
    """Service-side bookkeeping for one formed batch (running or
    suspended at a barrier)."""

    kind: str
    parts: List[Tuple[Pending, float]]
    batch_units: float
    admissible: float
    projected: float
    #: residual logged at formation (batch_log reports this) and the
    #: value to restore on abort (reset by intervening flushes).
    residual_log: float
    residual_restore: float
    #: clock when the batch was first formed (latency start time).
    start_clock: float
    #: effective class of the head request at formation time.
    priority: int
    #: formation sequence number — resume order is oldest-first.
    order: int
    #: engine-side frozen state while suspended.
    checkpoint: Optional[BatchCheckpoint] = None
    #: units taken per tenant (empty when tenant accounting is off).
    tenant_units: Dict[str, float] = field(default_factory=dict)
    #: ``batch.seconds`` already charged to the service clock.
    charged_seconds: float = 0.0
    #: suspend/restore cost already charged to the service clock.
    charged_suspend_seconds: float = 0.0
    suspend_count: int = 0

    @property
    def pin_tag(self) -> str:
        return f"suspended:{self.kind}"


@dataclass
class _Run:
    """Everything one :meth:`SchedulerService.run` call mutates; the
    three transitions and their helpers take the record whole."""

    metrics: ServiceMetrics
    #: requests not yet arrived, in ``(arrival_seconds, task_id)`` order.
    arrivals: Deque[TaskRequest]
    queue: ReadyQueue
    #: batches suspended at a barrier, by kind (at most one per kind —
    #: kernels share the session RNG stream).
    suspended: Dict[str, _InFlight] = field(default_factory=dict)
    #: the service's simulated clock.
    clock: float = 0.0
    #: batches formed so far (the next batch's ``order``).
    formed: int = 0
    #: consecutive overloaded batches, and the unit cap their retry
    #: runs under (``None`` once a batch completes).
    failures: int = 0
    resplit_cap: Optional[float] = None


class SchedulerService:
    """Long-lived, admission-controlled scheduler over one engine.

    Parameters
    ----------
    engine:
        the simulated engine (bound to a cluster) that executes batches.
    graph:
        the dataset every request queries.
    kinds:
        task kinds the service accepts; a memory model is trained and a
        persistent session opened for each.
    seed:
        master seed for session RNG streams (same label derivation as
        the offline runner, so degenerate schedules match it exactly).
    overload_fraction:
        the paper's ``p``: fraction of machine memory admission may use.
    recovery:
        abort/re-split policy for batches that overload despite
        admission (memory-model error).
    reference_workload:
        training workload handed to the Section-5 probe ladder.
    record_rounds:
        include the per-round trace of every batch in the batch log
        (the determinism suite compares these streams byte for byte).
    """

    def __init__(
        self,
        engine: SimulatedEngine,
        graph: Graph,
        kinds: Sequence[str] = DEFAULT_KINDS,
        *,
        seed: SeedLike = None,
        overload_fraction: float = DEFAULT_OVERLOAD_FRACTION,
        recovery: Optional[OverloadRecovery] = None,
        reference_workload: float = DEFAULT_REFERENCE_WORKLOAD,
        record_rounds: bool = False,
        task_params: Optional[Mapping[str, Mapping[str, object]]] = None,
        fault_plan=None,
        checkpoint_every: Optional[int] = None,
        policy: Optional[ServicePolicy] = None,
    ) -> None:
        if not kinds:
            raise SchedulingError("at least one task kind is required")
        #: priority/preemption/shedding policy; the default reproduces
        #: the legacy FIFO loop byte for byte.
        self.policy = policy or ServicePolicy()
        #: optional fault plan injected into every kind's session
        #: (rounds counted per session, as in the offline runner).
        self.fault_plan = fault_plan
        #: optional Pregel-style checkpoint cadence for the sessions.
        self.checkpoint_every = checkpoint_every
        self.engine = engine
        self.graph = graph
        self.kinds = tuple(kinds)
        self.seed = seed
        self.overload_fraction = float(overload_fraction)
        self.recovery = recovery or OverloadRecovery()
        self.reference_workload = float(reference_workload)
        self.record_rounds = record_rounds
        #: per-kind task keyword params (e.g. MSSP/BKHS sampling caps).
        self.task_params: Dict[str, Dict[str, object]] = {
            kind: dict(params)
            for kind, params in (task_params or {}).items()
        }
        #: per-kind engines from the policy's routing table, all bound
        #: to the base engine's cluster so every session draws from the
        #: one shared admission budget. Unrouted kinds (and the
        #: ``routes=None`` default) use the base engine itself — the
        #: legacy single-engine service, byte for byte.
        self.engines: Dict[str, SimulatedEngine] = {}
        opened: Dict[str, SimulatedEngine] = {engine.name: engine}
        for kind in self.kinds:
            route = self.policy.route_for(kind)
            if route is None or route == engine.name:
                self.engines[kind] = engine
            else:
                if route not in opened:
                    from repro.engines.registry import create_engine

                    opened[route] = create_engine(route, engine.cluster)
                self.engines[kind] = opened[route]
        #: per-kind ask-tell calibrators (DESIGN.md §15); empty unless
        #: ``policy.calibrate``, so the default service still runs the
        #: legacy one-shot trainer code path untouched.
        self.calibrators: Dict[str, Calibrator] = {}
        #: last calibrator version pushed into admission, per kind.
        self._model_versions: Dict[str, int] = {}
        if self.policy.calibrate:
            models: Dict[str, MemoryCostModel] = {}
            for kind in self.kinds:
                # Warm restarts load the persisted coefficients and
                # probe samples from the artifact cache — zero probe
                # training runs, identical refit trajectory.
                calibrator = Calibrator.load_or_train(
                    self.engines[kind],
                    self._task_factory(kind),
                    self.reference_workload,
                    kind=kind,
                    graph_fingerprint=graph.fingerprint,
                    seed=seed,
                    cache=get_cache(),
                )
                self.calibrators[kind] = calibrator
                self._model_versions[kind] = calibrator.version
                models[kind] = calibrator.model
        else:
            models = {
                kind: train_memory_models(
                    self.engines[kind],
                    self._task_factory(kind),
                    self.reference_workload,
                    seed=seed,
                )
                for kind in self.kinds
            }
        machine = engine.cluster.scaled_machine
        tenant_quotas: Optional[Dict[str, float]] = None
        if self.policy.tenant_quotas is not None:
            budget = self.overload_fraction * machine.memory_bytes
            tenant_quotas = {
                tenant: float(fraction) * budget
                for tenant, fraction in self.policy.tenant_quotas
            }
        self.admission = AdmissionController(
            models,
            machine,
            self.overload_fraction,
            tenant_quotas=tenant_quotas,
        )
        #: content-keyed result cache with single-flight coalescing;
        #: ``None`` (cache off) leaves every code path byte-identical
        #: to the pre-cache service.
        tenant_cache_bytes: Optional[Dict[str, float]] = None
        if self.policy.tenant_cache_quotas is not None:
            # Fractions of the cache bytes budget, mirroring the
            # admission quotas' fractions of the memory budget.
            tenant_cache_bytes = {
                tenant: float(fraction) * self.policy.result_cache_bytes
                for tenant, fraction in self.policy.tenant_cache_quotas
            }
        self.result_cache: Optional[ResultCache] = (
            ResultCache(
                ttl_seconds=self.policy.result_ttl_seconds,
                max_bytes=self.policy.result_cache_bytes,
                tenant_bytes=tenant_cache_bytes,
            )
            if self.policy.result_cache
            else None
        )
        #: completed response payloads by task id (``pack_job`` bytes),
        #: recorded only when the result cache is enabled.
        self.responses: Dict[int, bytes] = {}
        #: task id → content key for queued single-flight leaders, so a
        #: dropped leader abandons its key (and its joiners) while a
        #: watermark-shed duplicate never touches another leader's key.
        self._leaders: Dict[int, Tuple[object, ...]] = {}
        #: persistent per-kind sessions (opened lazily on first batch).
        self.sessions: Dict[str, EngineSession] = {}
        #: executed batches as ``(kind, BatchMetrics)`` — raw objects for
        #: the byte-identity tests; :class:`ServiceMetrics` carries the
        #: JSON-friendly summaries.
        self.executed_batches: List[Tuple[str, object]] = []
        #: running seconds-per-unit average over completed batches,
        #: feeding the Retry-After hint attached to shed requests.
        self._completed_units = 0.0
        self._completed_seconds = 0.0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _task_factory(self, kind: str) -> TaskFactory:
        """Workload → TaskSpec factory for ``kind`` on the service graph."""
        params = self.task_params.get(kind, {})
        return lambda workload: make_task(
            kind, self.graph, workload, **params
        )

    def _session(self, kind: str) -> EngineSession:
        """The kind's persistent session, opened on first use.

        Sessions run with the job cutoff disabled: the service clock is
        unbounded, and overload is handled by abort/re-split instead of
        the offline 6000 s stamp.
        """
        if kind not in self.sessions:
            task = self._task_factory(kind)(self.reference_workload)
            session = self.engines[kind].open_session(
                task,
                self.seed,
                fault_plan=self.fault_plan,
                checkpoint_every=self.checkpoint_every,
                cutoff_seconds=None,
            )
            if self.policy.calibrate:
                # Tell-back hook: every completed batch reports its
                # observed (workload, peak, residual, seconds) to the
                # kind's calibrator straight from the engine.
                session.calibrator = self.calibrators.get(kind)
            self.sessions[kind] = session
        return self.sessions[kind]

    def _streaming_unit_cap(self) -> Optional[float]:
        """Largest batch the ``--max-ram`` streaming budget can hold in
        dense kernel state, or ``None`` when no budget is configured.

        Batches over the cap are split across admissions instead of
        allocating ``units × num_vertices`` state past the budget (the
        mapped-scratch spill in :func:`repro.tasks.base.alloc_state_matrix`
        would save them from an OOM kill, but at mapped-I/O cost the
        admission estimate should avoid up front).
        """
        budget = streaming_budget_bytes()
        if budget is None:
            return None
        per_unit = self.graph.num_vertices * STREAMING_STATE_BYTES_PER_VERTEX
        if per_unit <= 0:
            return None
        return max(1.0, float(int(budget / per_unit)))

    # ------------------------------------------------------------------
    # Result cache (content-keyed, single-flight)
    # ------------------------------------------------------------------
    def _result_key(self, request: TaskRequest) -> Tuple[object, ...]:
        """Content key of a request's response: engine, graph
        fingerprint, kind, units and task params — everything the
        canonical payload is a function of. Tenant and arrival time are
        deliberately absent: identical queries share one entry."""
        kind = request.kind
        params = self.task_params.get(kind, {})
        return (
            "result",
            self.engines[kind].name,
            self.graph.fingerprint,
            kind,
            float(request.units),
            repr(sorted(params.items())),
        )

    def _result_payload(self, request: TaskRequest) -> bytes:
        """Hermetic response bytes for a request: the ``pack_job``
        payload of a one-batch canonical run keyed only by the content
        key (seed derived from it), so every request with the same key
        yields byte-identical bytes. The run executes on a fresh
        session via :meth:`SimulatedEngine.run_canonical` and is
        memoised in the artifact cache by ``run_job``; it never touches
        the serving sessions, the admission state, or the service
        clock. The rendered bytes are immutable, so they are memoised
        too (memory LRU only): a result the result cache expired or
        evicted is answered again without cloning or re-packing the
        job. That LRU is process-wide, hence profile and cluster
        beside the content key."""
        key = self._result_key(request)
        kind = request.kind
        engine = self.engines[kind]

        def render() -> bytes:
            digest = hashlib.blake2b(repr(key).encode(), digest_size=8)
            seed = int.from_bytes(digest.digest(), "big") % (2**63)
            task = self._task_factory(kind)(float(request.units))
            job = engine.run_canonical(task, seed=seed)
            return bytes(pack_job(job)["payload"])

        return get_cache().get_or_build(
            ("payload", repr(engine.profile), repr(engine.cluster)) + key[1:],
            render,
        )

    def _answer(
        self,
        run: _Run,
        request: TaskRequest,
        start: float,
        finish: float,
        served_by: str,
    ) -> None:
        """Record one answered request — executed, cache hit or
        coalesced — and count a missed deadline."""
        latency = TaskLatency(
            task_id=request.task_id,
            kind=request.kind,
            units=request.units,
            arrival_seconds=request.arrival_seconds,
            start_seconds=start,
            finish_seconds=finish,
            priority=request.priority,
            deadline_seconds=request.deadline_seconds,
            tenant=request.tenant,
            served_by=served_by,
        )
        if latency.missed_deadline:
            run.metrics.deadline_misses += 1
        run.metrics.latencies.append(latency)

    def _finish_result(self, run: _Run, pending: Pending) -> None:
        """Complete a leader request in the result cache: store its
        payload, fan the same bytes out to every coalesced joiner, and
        answer the joiners (they finish with the leader)."""
        cache = self.result_cache
        request = pending.request
        self._leaders.pop(request.task_id, None)
        key = self._result_key(request)
        payload = self._result_payload(request)
        joiners = cache.complete(key, payload, run.clock, tenant=request.tenant)
        self.responses[request.task_id] = payload
        for joiner in joiners:
            self.responses[joiner.task_id] = payload
            self._answer(
                run,
                joiner,
                max(joiner.arrival_seconds, pending.started_seconds),
                run.clock,
                "coalesced",
            )

    def _flush(self, run: _Run) -> None:
        """Backpressure: ship all residual results to their callers.

        Every session's residual memory is released and priced like the
        offline runner's final aggregation (the results cross the same
        network paths); the admission budget resets and the clock
        advances by the simulated seconds the flush cost.

        Suspended batches are untouched — their checkpointed state
        stays pinned in admission and their rounds keep pricing the
        residual snapshot taken at formation (byte-identity with the
        uninterrupted run) — but their abort restore point drops to
        zero, since the pre-flush residual no longer exists.
        """
        cost = 0.0
        for session in self.sessions.values():
            freed = session.flush_residual()
            if freed > 0:
                cost += session.engine._aggregation_seconds(
                    session.task, freed
                )
        self.admission.release_all()
        for inflight in run.suspended.values():
            inflight.residual_restore = 0.0
        run.metrics.flushes += 1
        run.metrics.flush_seconds += cost
        run.clock += cost

    # ------------------------------------------------------------------
    # Queue admission, shedding, and preemption helpers
    # ------------------------------------------------------------------
    def _retry_after_hint(self, run: _Run) -> float:
        """Deterministic ``Retry-After`` estimate for a shed request:
        the queued backlog times the observed seconds-per-unit."""
        backlog = sum(p.remaining for p in run.queue)
        if self._completed_units > 0:
            per_unit = self._completed_seconds / self._completed_units
        else:
            per_unit = 1.0
        return max(
            self.policy.retry_after_floor_seconds, backlog * per_unit
        )

    def _drop(
        self, run: _Run, request: TaskRequest, reason: str, now: float
    ) -> None:
        """Record one shed request."""
        metrics = run.metrics
        metrics.dropped_requests += 1
        if reason == "queue-full":
            metrics.drops_queue_full += 1
        elif reason == "watermark":
            metrics.drops_watermark += 1
        elif reason == "expired":
            metrics.drops_expired += 1
        metrics.drop_log.append(
            {
                "task_id": request.task_id,
                "kind": request.kind,
                "units": request.units,
                "priority": request.priority,
                "tenant": request.tenant,
                "reason": reason,
                "clock_seconds": now,
                "retry_after_seconds": self._retry_after_hint(run),
            }
        )
        cache = self.result_cache
        if cache is not None:
            key = self._leaders.pop(request.task_id, None)
            if key is not None and cache.inflight(key):
                # A dropped leader takes its coalesced joiners with it:
                # nothing will execute their shared key any more.
                for joiner in cache.abandon(key):
                    self._drop(run, joiner, reason, now)

    def _enqueue(self, run: _Run, request: TaskRequest, now: float) -> None:
        """Queue one arrival, shedding deterministically at the
        watermark and the queue-depth bound."""
        policy = self.policy
        queue = run.queue
        if (
            policy.shed_watermark is not None
            and policy.priority_classes > 1
            and policy.static_class(request) >= policy.lowest_class
        ):
            used = (
                self.admission.residual_bytes()
                + self.admission.pinned_bytes()
            )
            if used > policy.shed_watermark * self.admission.budget:
                self._drop(run, request, "watermark", now)
                return
        cache = self.result_cache
        if cache is not None:
            key = self._result_key(request)
            hit = cache.lookup(key, now, tenant=request.tenant)
            if hit is not None:
                # Served from memory: the exact payload bytes a cold
                # execution produced, at zero simulated cost.
                self.responses[request.task_id] = hit
                self._answer(run, request, now, now, "cache-hit")
                return
            if not cache.leader(key):
                # Single-flight: an identical request is already
                # queued or running; join it instead of queueing.
                cache.enlist(key, request)
                return
            self._leaders[request.task_id] = key
        queue.append(Pending(request, remaining=request.units))
        if policy.max_queue is not None and len(queue) > policy.max_queue:
            victim = queue.evictable()
            if victim is None:
                return  # everything is claimed or partially executed
            queue.discard(victim)
            self._drop(run, victim.request, "queue-full", now)

    def _admit_arrivals(self, run: _Run, now: float) -> None:
        arrivals = run.arrivals
        while arrivals and arrivals[0].arrival_seconds <= now:
            self._enqueue(run, arrivals.popleft(), now)

    def _drop_expired(self, run: _Run) -> None:
        """Shed queued requests whose deadline passed before any of
        their units started (``policy.drop_expired``)."""
        now = run.clock
        for pending in list(run.queue):
            deadline = pending.request.deadline_at
            if deadline is not None and now > deadline and pending.untouched:
                run.queue.discard(pending)
                self._drop(run, pending.request, "expired", now)

    def _preempt_callback(self, run: _Run, inflight: _InFlight):
        """Build the barrier callback for one batch segment starting at
        ``run.clock``, or ``None`` when this batch can never be
        preempted.

        The callback runs at every superstep barrier: it advances the
        virtual clock by the batch's accrued seconds, admits arrivals
        up to that instant, and asks for suspension when a strictly
        more urgent *cross-kind* request justifies it. Same-kind
        waiters never preempt — kernels share the session RNG stream
        (BPPR draws per round), so two in-flight batches of one kind
        would change results.
        """
        policy = self.policy
        if not policy.preempt or policy.priority_classes <= 1:
            return None
        if inflight.priority <= 0:
            return None  # already the most urgent lane
        if inflight.suspend_count >= policy.max_suspends_per_batch:
            return None
        kind = inflight.kind
        batch_class = inflight.priority
        segment_start = run.clock
        seconds_before = inflight.charged_seconds
        rounds_before = (
            inflight.checkpoint.rounds_done if inflight.checkpoint else 0
        )

        def should_suspend(batch) -> bool:
            now = segment_start + (batch.seconds - seconds_before)
            self._admit_arrivals(run, now)
            if (
                policy.preempt_after_rounds is not None
                and len(batch.rounds) - rounds_before
                < policy.preempt_after_rounds
            ):
                return False
            for pending in run.queue.urgent_waiters(batch_class, now, kind):
                if (
                    policy.preempt_after_rounds is not None
                    or policy.preempt_rule == "eager"
                ):
                    return True
                deadline = pending.request.deadline_at
                if (
                    deadline is not None
                    and deadline - now <= policy.preempt_margin_seconds
                ):
                    return True
            return False

        return should_suspend

    # ------------------------------------------------------------------
    # The scheduler loop: select -> dispatch -> settle
    # ------------------------------------------------------------------
    def _select(self, run: _Run) -> Optional[_InFlight]:
        """Decide what runs next: a frozen batch to resume, a newly
        formed one, or ``None`` once the stream is exhausted."""
        flushed = False
        while True:
            self._admit_arrivals(run, run.clock)
            if self.policy.drop_expired:
                self._drop_expired(run)
            if not run.queue:
                if run.suspended:
                    return self._thaw(run)
                if not run.arrivals:
                    # Drained, or the tail of the stream was shed
                    # (watermark, expiry) without ever joining the queue.
                    return None
                # Idle: jump the clock to the next arrival.
                run.clock = max(run.clock, run.arrivals[0].arrival_seconds)
                continue
            head = run.queue.head(run.clock)
            kind = head.request.kind
            if kind in run.suspended:
                # The lane's kind has a frozen batch: it must finish
                # before a new same-kind batch may start.
                return self._thaw(run, kind)
            inflight = self._form(run, head)
            if inflight is not None:
                return inflight
            if not flushed:
                # Backpressure: residual memory ate the budget (or
                # every candidate tenant's quota). Flush results, reset
                # the planners and decide again — a flush that costs
                # simulated seconds can age another kind to the head.
                self._flush(run)
                flushed = True
                continue
            if run.suspended:
                # Checkpointed state holds the remaining budget (and
                # any tenant shares) pinned: finish a frozen batch to
                # release it instead of giving up.
                return self._thaw(run)
            if self.admission.admissible_units(kind) < 1.0:
                raise SchedulingError(
                    f"memory budget below the {kind} model's "
                    "constant terms; no admissible batch even "
                    "after flushing all residual memory"
                )
            raise SchedulingError(
                f"no tenant quota admits a single {kind} unit even after "
                "flushing all residual memory"
            )

    def _thaw(self, run: _Run, kind: Optional[str] = None) -> _InFlight:
        """Take ``kind``'s frozen batch (default: the oldest one) out
        of suspension, re-admitted like a new batch: if the budget or a
        tenant's quota shrank under it while it was frozen — urgent
        batches added residual — flush that residual (if any) first, so
        Equation 1 holds while the resumed segment runs instead of
        failing ``admit`` once it completes."""
        if kind is None:
            kind = min(run.suspended, key=lambda k: run.suspended[k].order)
        inflight = run.suspended[kind]
        self.admission.unpin(inflight.pin_tag)
        if (
            not self.admission.admits(
                kind, inflight.batch_units, inflight.tenant_units
            )
            and self.admission.residual_bytes() > 0
        ):
            # Still listed as suspended: its restore point drops too.
            self._flush(run)
        del run.suspended[kind]
        run.metrics.resumes += 1
        return inflight

    def _form(self, run: _Run, head: Pending) -> Optional[_InFlight]:
        """Form the largest admissible batch of the head's kind, in
        priority order, and claim its units — or return ``None`` when
        Equation 1 admits none of them: the shared budget cannot fit
        one unit, or every candidate was skipped for tenant quota.

        Requests are divisible into unit tasks, so the head may be
        partially scheduled; a request finishes when the batch holding
        its last unit completes. With one priority class the scan order
        is exactly arrival order. Quota-blocked tenants are skipped,
        not barriers: later same-kind requests from other tenants still
        fill the batch.
        """
        kind = head.request.kind
        admissible = self.admission.admissible_units(kind)
        if run.resplit_cap is not None:
            admissible = min(admissible, run.resplit_cap)
        stream_cap = self._streaming_unit_cap()
        if stream_cap is not None:
            admissible = min(admissible, stream_cap)
        batch_units = 0.0
        parts: List[Tuple[Pending, float]] = []
        tenant_units: Dict[str, float] = {}
        quotas_on = self.admission.tenant_quotas is not None
        quota_skips = False
        for pending in run.queue.ranked(run.clock):
            if pending.request.kind != kind:
                break
            take = min(pending.remaining, admissible - batch_units)
            take = float(int(take))
            if take < 1.0:
                break
            if quotas_on:
                tenant = pending.request.tenant
                allowed = self.admission.tenant_admissible_units(
                    kind, tenant
                ) - tenant_units.get(tenant, 0.0)
                take = min(take, max(allowed, 0.0))
                if take < 1.0:
                    quota_skips = True
                    continue
                tenant_units[tenant] = tenant_units.get(tenant, 0.0) + take
            # Claimed until the batch settles: a unit inside a running
            # batch is as safe from eviction as one frozen in a
            # suspended batch.
            pending.inflight = take
            parts.append((pending, take))
            batch_units += take
            if batch_units >= admissible:
                break
        if not parts and (admissible < 1.0 or quota_skips):
            return None  # (a head with no units still fails at dispatch)
        batch_units = float(int(batch_units))
        residual = self._session(kind).residual_bytes
        inflight = _InFlight(
            kind=kind,
            parts=parts,
            batch_units=batch_units,
            admissible=admissible,
            projected=self.admission.projected_bytes(kind, batch_units),
            residual_log=residual,
            residual_restore=residual,
            start_clock=run.clock,
            priority=self.policy.effective_class(head.request, run.clock),
            order=run.formed,
            tenant_units=tenant_units,
        )
        run.formed += 1
        return inflight

    def _dispatch(self, run: _Run, inflight: _InFlight):
        """Run the selected batch's next segment on its kind's session:
        a ``BatchCheckpoint`` if the barrier callback suspended it, its
        ``BatchMetrics`` once it ran to the end."""
        session = self._session(inflight.kind)
        callback = self._preempt_callback(run, inflight)
        if inflight.checkpoint is None:
            return session.run_batch(
                inflight.batch_units, should_suspend=callback
            )
        return session.resume(should_suspend=callback)

    def _settle(self, run: _Run, inflight: _InFlight, result) -> None:
        """Book one dispatched segment's outcome — suspended, aborted
        or completed (DESIGN.md §10 tabulates what each one writes)."""
        metrics = run.metrics
        kind = inflight.kind
        suspended = isinstance(result, BatchCheckpoint)
        checkpoint = result if suspended else inflight.checkpoint
        batch = checkpoint.batch if suspended else result
        # Charge this segment's rounds, plus whatever suspend/restore
        # checkpointing it paid, to the clock.
        suspend_cost = 0.0
        if checkpoint is not None:
            paid = checkpoint.suspend_resume_seconds
            suspend_cost = paid - inflight.charged_suspend_seconds
            inflight.charged_suspend_seconds = paid
            metrics.preempt_seconds += suspend_cost
        run.clock += (
            max(0.0, batch.seconds - inflight.charged_seconds) + suspend_cost
        )
        inflight.charged_seconds = batch.seconds

        if suspended:
            # Suspended at a barrier: pin the frozen state in admission
            # and go serve the urgent lane; the claims stay. No
            # batch_log entry yet — the batch is not done.
            inflight.checkpoint = checkpoint
            inflight.suspend_count = checkpoint.suspends
            pinned = (
                checkpoint.state_bytes() / self.engine.cluster.num_machines
            )
            shares: Optional[Dict[str, float]] = None
            if self.admission.tenant_quotas is not None:
                shares = {
                    tenant: pinned * take / inflight.batch_units
                    for tenant, take in inflight.tenant_units.items()
                }
            self.admission.pin(inflight.pin_tag, pinned, tenants=shares)
            run.suspended[kind] = inflight
            metrics.preemptions += 1
            return

        for pending, _ in inflight.parts:
            pending.inflight = 0.0
        session = self._session(kind)
        batch_units = inflight.batch_units
        if batch.overloaded:
            # The memory model under-predicted: abort the batch (partial
            # results discarded, units stay queued) and retry under a
            # re-split cap.
            run.failures += 1
            batch.aborted = True
            batch.abort_seconds = self.recovery.abort_overhead_seconds
            session.residual_bytes = inflight.residual_restore
            metrics.resplits += 1
            run.resplit_cap = max(
                1.0, float(int(batch_units / self.recovery.split_factor))
            )
            if run.failures > self.recovery.max_retries:
                raise RecoveryError(
                    f"{kind} batch of {batch_units:g} units kept "
                    f"overloading after {run.failures} attempts",
                    history=[dict(b) for b in metrics.batch_log],
                )
        else:
            self.admission.admit(
                kind, batch_units, tenant_units=inflight.tenant_units or None
            )
            if self.policy.calibrate:
                # The session just told this batch's observation back;
                # if the calibrator bumped or refitted, swap the
                # refreshed model into the kind's planner so the *next*
                # admission re-prices against it (``_check_kind``
                # recomputes budgets per call).
                calibrator = self.calibrators.get(kind)
                if (
                    calibrator is not None
                    and calibrator.version != self._model_versions.get(kind)
                ):
                    self.admission.planners[kind].model = calibrator.model
                    self._model_versions[kind] = calibrator.version
            run.failures = 0
            run.resplit_cap = None
            self._completed_units += batch_units
            self._completed_seconds += batch.seconds
            for pending, take in inflight.parts:
                if pending.started_seconds is None:
                    pending.started_seconds = inflight.start_clock
                pending.remaining -= take
                if pending.remaining <= 0:
                    run.queue.discard(pending)
                    self._answer(
                        run,
                        pending.request,
                        pending.started_seconds,
                        run.clock,
                        "executed",
                    )
                    if self.result_cache is not None:
                        self._finish_result(run, pending)

        entry = {
            "index": len(metrics.batch_log),
            "kind": kind,
            "engine": session.engine.name,
            "workload": batch.workload,
            "admissible_units": inflight.admissible,
            "projected_bytes": inflight.projected,
            "budget_bytes": self.admission.budget,
            "start_seconds": inflight.start_clock,
            "finish_seconds": run.clock,
            "seconds": batch.seconds,
            "rounds": batch.num_rounds,
            "peak_memory_bytes": batch.peak_memory_bytes,
            "residual_before_bytes": inflight.residual_log,
            "residual_after_bytes": session.residual_bytes,
            "overloaded": batch.overloaded,
            "aborted": batch.aborted,
            "priority": inflight.priority,
            "preemptions": inflight.suspend_count,
            "preempt_seconds": inflight.charged_suspend_seconds,
        }
        if self.admission.tenant_quotas is not None:
            entry["tenants"] = dict(inflight.tenant_units)
        if self.record_rounds:
            entry["round_trace"] = [
                {
                    "round": r.round_index,
                    "seconds": r.seconds,
                    "network_messages": r.network_messages,
                    "local_messages": r.local_messages,
                    "peak_memory_bytes": r.peak_memory_bytes,
                }
                for r in batch.rounds
            ]
        metrics.batch_log.append(entry)
        self.executed_batches.append((kind, batch))

    def run(
        self,
        requests: Sequence[TaskRequest],
        *,
        arrival_rate: float = 0.0,
        duration_rounds: int = 0,
    ) -> ServiceMetrics:
        """Drive the service over ``requests`` until the queue drains.

        ``arrival_rate`` / ``duration_rounds`` are metadata stamped on
        the returned :class:`ServiceMetrics` (the stream itself is
        whatever ``requests`` holds — pre-queueing everything at time
        zero gives the degenerate offline schedule).
        """
        metrics = ServiceMetrics(
            engine=self.engine.name,
            cluster=self.engine.cluster.name,
            arrival_rate=float(arrival_rate),
            duration_rounds=int(duration_rounds),
            seed=self.seed if isinstance(self.seed, int) else None,
        )
        run = _Run(
            metrics=metrics,
            arrivals=deque(
                sorted(requests, key=lambda r: (r.arrival_seconds, r.task_id))
            ),
            queue=ReadyQueue(self.policy),
        )
        while (inflight := self._select(run)) is not None:
            self._settle(run, inflight, self._dispatch(run, inflight))
        metrics.elapsed_seconds = run.clock
        answered = len(metrics.latencies) + len(metrics.drop_log)
        if answered != len(requests):
            # Request conservation: every request ends completed
            # (executed, cache hit, coalesced) or dropped, exactly once.
            raise SchedulingError(
                f"{len(requests)} requests in, {answered} answers out: "
                "the loop lost a request or answered one twice"
            )
        if self.result_cache is not None:
            summary = self.result_cache.stats.to_dict()
            summary["cached_entries"] = len(self.result_cache)
            summary["cached_bytes"] = self.result_cache.total_bytes
            metrics.result_cache = summary
            if self.policy.tenant_cache_quotas is not None:
                metrics.tenant_cache = self.result_cache.tenant_summary()
        if self.policy.calibrate:
            metrics.calibration = self.calibration_summary()
        return metrics

    def calibration_summary(self) -> Dict[str, object]:
        """The ``"calibration"`` section: the ask-tell trajectory across
        every kind's calibrator (counter sums, mean fit RMSE before the
        first tell and after the last refit, per-kind breakdown)."""
        counters = (
            "training_runs",
            "tells",
            "refits",
            "drift_events",
            "envelope_bumps",
        )
        summary: Dict[str, object] = {name: 0 for name in counters}
        summary["probe_seconds_saved"] = 0.0
        kinds: Dict[str, Dict[str, object]] = {}
        before: List[float] = []
        after: List[float] = []
        warm = bool(self.calibrators)
        for kind in sorted(self.calibrators):
            stats = self.calibrators[kind].stats
            kinds[kind] = stats.to_dict()
            for name in counters:
                summary[name] += getattr(stats, name)
            summary["probe_seconds_saved"] += stats.probe_seconds_saved
            before.append(stats.rmse_before)
            after.append(stats.rmse_after)
            warm = warm and stats.warm_start
        summary["warm_start"] = warm
        summary["rmse_before"] = (
            sum(before) / len(before) if before else 0.0
        )
        summary["rmse_after"] = sum(after) / len(after) if after else 0.0
        summary["kinds"] = kinds
        return summary


def run_degenerate(
    engine: SimulatedEngine,
    task_factory: TaskFactory,
    workload: float,
    *,
    seed: SeedLike = None,
    overload_fraction: float = DEFAULT_OVERLOAD_FRACTION,
    model: Optional[MemoryCostModel] = None,
) -> Tuple[List[float], JobMetrics]:
    """The legacy offline runner expressed as a degenerate schedule.

    All units are pre-queued, the planner makes a single pass (the
    offline Equation-5 iteration), and the schedule executes on one
    engine session — exactly the code path
    :meth:`SimulatedEngine.run_job` drives, so the returned metrics are
    byte-identical to today's runner. Returns ``(schedule, job)``.
    """
    fitted = model or train_memory_models(
        engine, task_factory, workload, seed=seed
    )
    schedule = plan_batches(
        fitted,
        workload,
        engine.cluster.scaled_machine,
        overload_fraction=overload_fraction,
    )
    job = engine.run_job(task_factory(workload), schedule, seed=seed)
    return schedule, job
