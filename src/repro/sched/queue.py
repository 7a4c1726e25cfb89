"""The scheduler's pending queue: per-class FIFO lanes, merged lazily.

:class:`ReadyQueue` holds every admitted, not yet completed request of
a :class:`~repro.sched.service.SchedulerService` run. It answers the
questions the loop asks before every batch — who is the head, who
follows it in serving order, who is evicted when the queue is full,
does anyone justify suspending the running batch — without ranking the
whole queue.

The lane invariant
------------------
The service admits arrivals in ``(arrival_seconds, task_id)`` order,
and a request's *static* class never changes while it is queued. Its
*effective* class is

    ``max(static − ⌊max(now − arrival, 0) / aging_seconds⌋, 0)``

which, at any fixed ``now``, is non-decreasing in the arrival time:
a later arrival has waited no longer, so it has been promoted no
further. Within one static class the admission order is therefore
already the order of :meth:`ServicePolicy.selection_key` — for *every*
``now``, with or without aging — and the queue never has to sort. It
keeps one insertion-ordered lane per static class, and the global
serving order is the k-way merge of at most ``priority_classes``
sorted lanes, consumed only as far as the caller reads it.
``selection_key`` stays the single definition of the order; ties on it
(duplicate task ids) fall back to admission order, exactly as a stable
sort of the admission-ordered list would break them.

Costs (``k`` = ``priority_classes``, ``n`` = queued requests)
--------------------------------------------------------------
* ``append``, ``discard``, ``len``, truthiness — O(1);
* ``head`` — O(k) key evaluations;
* ``ranked`` — O(k) to start, O(log k) per request consumed;
* ``evictable`` — O(k) plus the partially executed requests skipped at
  the lane tails;
* ``urgent_waiters`` — per lane, stops at the first request that is
  not urgent enough (and the caller stops at the first that is);
* plain iteration (admission order) — O(n); only the shedding paths
  (``Retry-After`` hints, expiry sweeps) use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import merge
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.sched.arrivals import TaskRequest
from repro.sched.policy import ServicePolicy


@dataclass(eq=False)
class Pending:
    """A queued request and how many of its units remain unscheduled."""

    request: TaskRequest
    remaining: float
    #: clock time the batch containing the request's first unit started.
    started_seconds: Optional[float] = None
    #: units claimed by a formed batch, running or frozen at a barrier,
    #: until it settles — such a pending must never be shed or
    #: double-scheduled.
    inflight: float = 0.0
    #: admission sequence number, assigned by :meth:`ReadyQueue.append`.
    #: It — not ``task_id`` — identifies the entry, so duplicate ids
    #: queue side by side.
    seq: int = -1

    @property
    def untouched(self) -> bool:
        """No unit has run or is claimed by a formed batch."""
        return self.inflight == 0 and self.remaining >= self.request.units


def _admission_key(pending: Pending) -> Tuple[float, int]:
    """What the service sorts arrivals by before admitting them."""
    request = pending.request
    return request.arrival_seconds, request.task_id


class ReadyQueue:
    """Pending requests in per-static-class FIFO lanes (see module doc)."""

    def __init__(self, policy: ServicePolicy) -> None:
        self.policy = policy
        #: every pending by sequence number, i.e. in admission order.
        self._entries: Dict[int, Pending] = {}
        #: the same pendings split by static class.
        self._lanes: List[Dict[int, Pending]] = [
            {} for _ in range(policy.priority_classes)
        ]
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Pending]:
        """Admission order (float sums over the queue depend on it)."""
        return iter(self._entries.values())

    def _lane_of(self, pending: Pending) -> Dict[int, Pending]:
        return self._lanes[self.policy.static_class(pending.request)]

    def append(self, pending: Pending) -> None:
        """Queue an arrival behind everything of its static class."""
        lane = self._lane_of(pending)
        if lane:
            last = lane[next(reversed(lane))]
            if _admission_key(pending) < _admission_key(last):
                raise SchedulingError(
                    "requests must be queued in (arrival_seconds, task_id) "
                    "order; the lanes are only sorted under that invariant"
                )
        pending.seq = self._next_seq
        self._next_seq += 1
        self._entries[pending.seq] = pending
        lane[pending.seq] = pending

    def discard(self, pending: Pending) -> None:
        """Remove ``pending`` if it is still queued."""
        if self._entries.pop(pending.seq, None) is not None:
            del self._lane_of(pending)[pending.seq]

    def ranked(self, now: float) -> Iterator[Pending]:
        """Serving order at ``now``, lazily: most urgent effective
        class first, FIFO within a class."""
        key = self.policy.selection_key
        return merge(
            *(lane.values() for lane in self._lanes if lane),
            key=lambda p: (key(p.request, now), p.seq),
        )

    def head(self, now: float) -> Pending:
        """The request that defines the next batch (the queue must not
        be empty)."""
        return next(self.ranked(now))

    def evictable(self) -> Optional[Pending]:
        """The ``max_queue`` victim: the least urgent *untouched*
        request — lowest static class first, then the youngest arrival
        (LIFO within the class, so earlier arrivals keep their place).
        ``None`` when everything queued is partially executed."""
        for lane in reversed(self._lanes):
            victim: Optional[Pending] = None
            for pending in reversed(lane.values()):
                if victim is not None and _admission_key(
                    pending
                ) != _admission_key(victim):
                    break
                if pending.untouched:
                    # Among duplicates the earliest admitted goes.
                    victim = pending
            if victim is not None:
                return victim
        return None

    def urgent_waiters(
        self, batch_class: int, now: float, running_kind: str
    ) -> Iterator[Pending]:
        """Requests that could justify suspending a running batch of
        ``running_kind`` formed at ``batch_class``: other-kind, not
        claimed by a suspended batch, effective class strictly more
        urgent. Each lane is read from its oldest request and left at
        the first one that is not urgent enough — nothing behind it is."""
        effective_class = self.policy.effective_class
        for lane in self._lanes:
            for pending in lane.values():
                if effective_class(pending.request, now) >= batch_class:
                    break
                if (
                    pending.request.kind != running_kind
                    and pending.inflight <= 0
                ):
                    yield pending
