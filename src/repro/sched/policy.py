"""Serving policy: priority lanes, aging, preemption, and shedding.

:class:`ServicePolicy` is the one knob bundle the
:class:`~repro.sched.service.SchedulerService` consults for every
decision beyond admission arithmetic:

* **priority lanes** — requests carry a class (0 = most urgent); the
  scheduler serves the numerically lowest *effective* class first;
* **aging** — a queued request's effective class drops by one for
  every ``aging_seconds`` it has waited, so low-priority work cannot
  starve behind a steady high-priority stream (classic multilevel
  feedback aging);
* **preemption** — when enabled, a running batch is suspended at the
  next superstep barrier (PR 7's :class:`~repro.engines.base.BatchCheckpoint`)
  once a strictly more urgent request of a *different* kind is
  waiting. Kinds whose kernels draw per-round RNG (BPPR) forbid
  interleaving two in-flight batches of the same kind, so same-kind
  waiters never trigger a suspend — they simply extend the current
  lane;
* **shedding** — a bounded pending queue plus an optional
  residual-memory watermark reject the least urgent work
  deterministically, with a ``Retry-After``-style hint, instead of
  growing the queue without bound.

The default-constructed policy reproduces the legacy FIFO service
byte for byte: one class collapses every request to effective class
0, so selection order degenerates to ``(arrival_seconds, task_id)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.sched.arrivals import TaskRequest

#: Queue bound applied when the caller does not pick one. Generous —
#: it exists to stop unbounded growth, not to shape normal traffic.
DEFAULT_MAX_QUEUE = 4096

#: Default seconds of queueing that promote a request one class.
DEFAULT_AGING_SECONDS = 120.0

#: A preempting deadline must be within this many seconds of blowing.
DEFAULT_PREEMPT_MARGIN_SECONDS = 30.0

#: Ceiling on suspensions of one batch — bounds suspend/resume churn
#: so a batch always finishes (no livelock under hostile arrivals).
DEFAULT_MAX_SUSPENDS_PER_BATCH = 8

#: Floor for the Retry-After hint attached to shed requests.
RETRY_AFTER_FLOOR_SECONDS = 1.0

#: Table 4's sync/async split as a routing table: async-capable kinds
#: run on GraphLab's asynchronous mode, while the heavy batched walk
#: workloads stay on Pregel+ (the paper's strongest sync engine for
#: them). ``ServicePolicy(routes=TABLE4_ROUTES)`` turns the table into
#: a live per-kind dispatch policy.
TABLE4_ROUTES: Mapping[str, str] = {
    "pagerank": "graphlab(async)",
    "mssp": "graphlab(async)",
    "bppr": "pregel+",
    "bppr-query": "pregel+",
    "bkhs": "pregel+",
}

#: Pairs-tuple form of a mapping field on the frozen policy (sorted,
#: hashable, order-independent equality).
_Pairs = Tuple[Tuple[str, object], ...]


def _freeze_mapping(
    value: Optional[Union[Mapping, _Pairs]], field_name: str
) -> Optional[_Pairs]:
    """Normalise a mapping-valued policy field to sorted key/value
    pairs so the frozen dataclass stays hashable and two policies with
    the same entries compare equal regardless of insertion order."""
    if value is None:
        return None
    items = dict(value).items()
    for key, _ in items:
        if not isinstance(key, str) or not key:
            raise ConfigurationError(
                f"{field_name} keys must be non-empty strings"
            )
    return tuple(sorted(items))


@dataclass(frozen=True)
class ServicePolicy:
    """Priority/preemption/shedding knobs for the scheduler service."""

    #: number of priority classes; 1 = legacy FIFO (priorities ignored).
    priority_classes: int = 1
    #: seconds of queueing that promote a request one class; ``None``
    #: disables aging (effective class is static).
    aging_seconds: Optional[float] = DEFAULT_AGING_SECONDS
    #: suspend the running batch for more urgent cross-kind waiters.
    preempt: bool = False
    #: ``"deadline"`` preempts only when a more urgent waiter's
    #: deadline is within ``preempt_margin_seconds`` of blowing;
    #: ``"eager"`` preempts for any strictly more urgent waiter.
    preempt_rule: str = "deadline"
    preempt_margin_seconds: float = DEFAULT_PREEMPT_MARGIN_SECONDS
    #: when set, a batch only suspends after this many rounds of the
    #: current segment — a fault-timing-invariant trigger (round
    #: counts never depend on injected fault costs), used by the
    #: chaos determinism scenarios.
    preempt_after_rounds: Optional[int] = None
    max_suspends_per_batch: int = DEFAULT_MAX_SUSPENDS_PER_BATCH
    #: pending-queue depth bound; ``None`` = unbounded (discouraged).
    max_queue: Optional[int] = DEFAULT_MAX_QUEUE
    #: shed lowest-class arrivals once admitted+pinned residual memory
    #: exceeds this fraction of the admission budget; ``None`` = off.
    shed_watermark: Optional[float] = None
    #: drop queued, unstarted requests whose deadline already passed.
    drop_expired: bool = False
    #: per-kind engine routing (kind → engine name, e.g.
    #: :data:`TABLE4_ROUTES`). ``None`` (the default) runs every kind
    #: on the service's base engine — the legacy single-engine loop.
    #: Unrouted kinds also fall back to the base engine.
    routes: Optional[Mapping[str, str]] = None
    #: per-tenant memory quotas as *fractions of the shared admission
    #: budget* (tenant → fraction in (0, 1]). ``None`` disables tenant
    #: accounting entirely; tenants absent from the mapping are
    #: unconstrained (the global Equation-1 budget still applies).
    tenant_quotas: Optional[Mapping[str, float]] = None
    #: per-tenant static priority class (tenant → class, 0 = most
    #: urgent), overriding the request's own class. ``None`` keeps the
    #: request-carried priorities.
    tenant_priorities: Optional[Mapping[str, int]] = None
    #: serve repeat queries from the content-keyed result cache and
    #: coalesce in-flight duplicates onto one execution. Off by
    #: default: the cache-off loop never computes result payloads, so
    #: it stays byte-identical to the pre-cache service.
    result_cache: bool = False
    #: seconds a cached result stays servable on the virtual clock;
    #: ``None`` = no expiry.
    result_ttl_seconds: Optional[float] = None
    #: LRU bytes budget for cached result payloads; ``None`` = no
    #: bound (entries only leave via TTL expiry).
    result_cache_bytes: Optional[float] = None
    #: online ask-tell calibration (DESIGN.md §15): every executed
    #: batch's observed (workload, peak, residual, seconds) is told
    #: back to the per-kind calibrator, admission re-prices against the
    #: refreshed model between batches, and fitted coefficients persist
    #: in the artifact cache so a restart skips probe training. Off by
    #: default: the static one-shot fit stays byte-identical.
    calibrate: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "routes", _freeze_mapping(self.routes, "routes")
        )
        object.__setattr__(
            self,
            "tenant_quotas",
            _freeze_mapping(self.tenant_quotas, "tenant_quotas"),
        )
        object.__setattr__(
            self,
            "tenant_priorities",
            _freeze_mapping(self.tenant_priorities, "tenant_priorities"),
        )
        if self.priority_classes < 1:
            raise ConfigurationError("priority_classes must be >= 1")
        # ``nan`` passes every comparison below, and these fields spell
        # "off" as ``None``, not ``inf``: a value given must be finite.
        for name in (
            "aging_seconds",
            "result_ttl_seconds",
            "result_cache_bytes",
        ):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigurationError(
                    f"{name} must be a finite number, got {value!r}"
                )
        if self.aging_seconds is not None and self.aging_seconds <= 0:
            raise ConfigurationError("aging_seconds must be positive")
        if self.preempt_rule not in ("deadline", "eager"):
            raise ConfigurationError(
                f"preempt_rule must be 'deadline' or 'eager', "
                f"got {self.preempt_rule!r}"
            )
        if self.preempt_margin_seconds < 0:
            raise ConfigurationError(
                "preempt_margin_seconds must be non-negative"
            )
        if (
            self.preempt_after_rounds is not None
            and self.preempt_after_rounds < 1
        ):
            raise ConfigurationError(
                "preempt_after_rounds must be a positive round count"
            )
        if self.max_suspends_per_batch < 0:
            raise ConfigurationError(
                "max_suspends_per_batch must be non-negative"
            )
        if self.max_queue is not None and self.max_queue < 1:
            raise ConfigurationError("max_queue must be >= 1")
        if self.shed_watermark is not None and not (
            0.0 <= self.shed_watermark <= 1.0
        ):
            raise ConfigurationError("shed_watermark must be in [0, 1]")
        if self.routes is not None:
            for _, engine in self.routes:
                if not isinstance(engine, str) or not engine:
                    raise ConfigurationError(
                        "routes values must be engine names"
                    )
        if self.tenant_quotas is not None:
            for tenant, fraction in self.tenant_quotas:
                if not 0 < float(fraction) <= 1:
                    raise ConfigurationError(
                        f"tenant quota for {tenant!r} must be a budget "
                        f"fraction in (0, 1], got {fraction!r}"
                    )
        if self.tenant_priorities is not None:
            for tenant, cls in self.tenant_priorities:
                if int(cls) < 0:
                    raise ConfigurationError(
                        f"tenant priority for {tenant!r} must be >= 0"
                    )
        if (
            self.result_ttl_seconds is not None
            and self.result_ttl_seconds <= 0
        ):
            raise ConfigurationError("result_ttl_seconds must be positive")
        if (
            self.result_cache_bytes is not None
            and self.result_cache_bytes <= 0
        ):
            raise ConfigurationError("result_cache_bytes must be positive")

    @property
    def lowest_class(self) -> int:
        return self.priority_classes - 1

    def route_for(self, kind: str) -> Optional[str]:
        """Engine name ``kind`` is routed to, or ``None`` (base engine)."""
        if self.routes is None:
            return None
        for route_kind, engine in self.routes:
            if route_kind == kind:
                return str(engine)
        return None

    def static_class(self, request: TaskRequest) -> int:
        """The request's class clamped to the configured lane count.

        A tenant listed in ``tenant_priorities`` overrides the class
        the request arrived with — the tenant's contract outranks the
        caller's self-declared urgency.
        """
        priority = int(request.priority)
        if self.tenant_priorities is not None:
            for tenant, cls in self.tenant_priorities:
                if tenant == getattr(request, "tenant", "default"):
                    priority = int(cls)
                    break
        return min(max(priority, 0), self.lowest_class)

    def effective_class(self, request: TaskRequest, now: float) -> int:
        """Static class minus one lane per ``aging_seconds`` queued."""
        cls = self.static_class(request)
        if self.aging_seconds is not None and cls > 0:
            waited = max(0.0, now - request.arrival_seconds)
            cls -= int(waited // self.aging_seconds)
        return max(cls, 0)

    def selection_key(self, request: TaskRequest, now: float):
        """Total order for serving: most urgent effective class first,
        FIFO (arrival, then id) within a class. With one class this is
        exactly the legacy FIFO order."""
        return (
            self.effective_class(request, now),
            request.arrival_seconds,
            request.task_id,
        )
