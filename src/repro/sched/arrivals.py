"""Seeded arrival streams for the online scheduler.

Requests arrive on a discrete virtual clock: each of ``duration``
ticks is one simulated second, and the number of requests landing on a
tick is Poisson-distributed with mean ``rate``. Kinds and unit counts
are drawn from the same seeded generator, so a (seed, rate, duration)
triple always produces the identical stream — the property the
differential determinism suite leans on.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.errors import SchedulingError
from repro.rng import SeedLike, make_rng

#: Task kinds the service accepts by default (the paper's three
#: multi-processing workloads).
DEFAULT_KINDS: Tuple[str, ...] = ("bppr", "mssp", "bkhs")

#: Default unit-count range for one request (inclusive bounds). Kept
#: well under typical workloads so single requests are admissible.
DEFAULT_UNITS_RANGE: Tuple[int, int] = (8, 128)

#: Simulated seconds per arrival tick.
TICK_SECONDS = 1.0

#: Priority class assigned when the stream does not draw one.
#: Class 0 is the most urgent; larger numbers are more patient.
DEFAULT_PRIORITY = 1

#: Tenant assigned when the stream does not draw one — the anonymous
#: single-tenant stream every pre-tenant release served.
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class TaskRequest:
    """One unit-task request on the arrival stream.

    ``units`` follows the paper's workload units (walks for BPPR,
    sources for MSSP/BKHS). ``arrival_seconds`` is the virtual clock
    time the request became visible to the scheduler.

    ``priority`` is the request's lane (0 = most urgent); the service
    only consults it when its :class:`~repro.sched.policy.ServicePolicy`
    enables more than one class. ``deadline_seconds`` is a *relative*
    latency target: the request should finish by
    ``arrival_seconds + deadline_seconds``, and the preemption policy
    may suspend a running batch to protect it.

    ``tenant`` names the account the request bills against; the
    multi-tenant service enforces per-tenant memory quotas and
    priority mappings on it and reports per-tenant latency
    percentiles. The default tenant reproduces the anonymous
    single-tenant stream.
    """

    task_id: int
    kind: str
    units: float
    arrival_seconds: float
    priority: int = DEFAULT_PRIORITY
    deadline_seconds: Optional[float] = None
    tenant: str = DEFAULT_TENANT

    @property
    def deadline_at(self) -> Optional[float]:
        """Absolute virtual-clock deadline, or ``None``."""
        if self.deadline_seconds is None:
            return None
        return self.arrival_seconds + self.deadline_seconds


def generate_arrivals(
    rate: float,
    duration: int,
    seed: SeedLike = None,
    kinds: Sequence[str] = DEFAULT_KINDS,
    units_range: Tuple[int, int] = DEFAULT_UNITS_RANGE,
    priority_classes: Optional[int] = None,
    deadlines: Optional[Mapping[int, float]] = None,
    tenants: Optional[Sequence[str]] = None,
) -> List[TaskRequest]:
    """Generate the seeded arrival stream.

    Parameters
    ----------
    rate:
        mean requests per tick (Poisson).
    duration:
        number of ticks in the stream.
    seed:
        master seed; the stream derives its own substream under the
        label ``"sched/arrivals"`` so it never perturbs engine RNG.
    kinds:
        task kinds to draw from, uniformly.
    units_range:
        inclusive (low, high) bounds of one request's unit count.
    priority_classes:
        when set (> 1), draw each request's priority class uniformly
        from ``[0, priority_classes)``. ``None`` assigns every request
        :data:`DEFAULT_PRIORITY` *without consuming RNG draws*, so
        legacy streams stay byte-identical.
    deadlines:
        optional mapping of priority class (a non-negative integer) →
        relative deadline seconds (finite, positive), attached to
        matching requests (no RNG consumed).
    tenants:
        when given with two or more names, draw each request's tenant
        uniformly from them. A single name is assigned directly and
        ``None`` assigns :data:`DEFAULT_TENANT` — both *without
        consuming RNG draws*, so single-tenant streams stay
        byte-identical to pre-tenant releases.

    Returns requests sorted by arrival time (ties keep draw order).
    """
    if rate <= 0:
        raise SchedulingError("arrival rate must be positive")
    if duration <= 0:
        raise SchedulingError("duration must be a positive tick count")
    if not kinds:
        raise SchedulingError("at least one task kind is required")
    low, high = units_range
    if low < 1 or high < low:
        raise SchedulingError(
            f"units_range must satisfy 1 <= low <= high, got {units_range}"
        )
    if priority_classes is not None and priority_classes < 1:
        raise SchedulingError("priority_classes must be >= 1")
    for cls, seconds in (deadlines or {}).items():
        if not isinstance(cls, numbers.Integral) or cls < 0:
            raise SchedulingError(
                f"deadline class must be a non-negative integer, got {cls!r}"
            )
        # ``nan`` fails every comparison, so a nan deadline would never
        # be missed and never trigger a preemption.
        if not (math.isfinite(seconds) and seconds > 0):
            raise SchedulingError(
                f"deadline for class {cls} must be finite and positive, "
                f"got {seconds!r}"
            )
    tenant_names: Optional[Tuple[str, ...]] = None
    if tenants is not None:
        tenant_names = tuple(str(t) for t in tenants)
        if not tenant_names or any(not t for t in tenant_names):
            raise SchedulingError(
                "tenants must be a non-empty sequence of non-empty names"
            )
    rng = make_rng(seed, label="sched/arrivals")
    requests: List[TaskRequest] = []
    task_id = 0
    for tick in range(int(duration)):
        count = int(rng.poisson(rate))
        for _ in range(count):
            kind = str(kinds[int(rng.integers(0, len(kinds)))])
            units = float(int(rng.integers(low, high, endpoint=True)))
            if priority_classes is not None and priority_classes > 1:
                priority = int(rng.integers(0, priority_classes))
            else:
                priority = DEFAULT_PRIORITY
            deadline = None
            if deadlines is not None:
                deadline = deadlines.get(priority)
            if tenant_names is None:
                tenant = DEFAULT_TENANT
            elif len(tenant_names) == 1:
                tenant = tenant_names[0]
            else:
                tenant = tenant_names[int(rng.integers(0, len(tenant_names)))]
            requests.append(
                TaskRequest(
                    task_id=task_id,
                    kind=kind,
                    units=units,
                    arrival_seconds=tick * TICK_SECONDS,
                    priority=priority,
                    deadline_seconds=deadline,
                    tenant=tenant,
                )
            )
            task_id += 1
    return requests
