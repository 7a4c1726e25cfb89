"""Metric records produced by engine runs.

Three levels mirror the paper's reporting granularity:

* :class:`RoundMetrics` — one communication round (Figure 6's per-round
  message counts, Table 3's per-round disk numbers).
* :class:`BatchMetrics` — one batch of the multi-processing job.
* :class:`JobMetrics` — the whole job: total time, peak memory, overuse
  durations, overload flag (the paper's 6000 s cutoff), and everything
  the experiment tables print.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import marshal
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Tuple, get_type_hints

import numpy as np

from repro.perf.cache import ArraySerializer
from repro.units import (
    OVERLOAD_CUTOFF_SECONDS,
    format_bytes,
    format_count,
    format_seconds,
)


class RoundMetrics(NamedTuple):
    """Accounting for a single synchronous communication round.

    Immutable, so every copy of a job shares its round records
    (:func:`clone_job`): assigning to a field raises
    ``AttributeError``, and ``_replace`` builds a changed record. A
    named tuple builds in ~0.5 µs where a frozen dataclass takes ~3.5,
    and a record is built for every round an engine lands.
    """

    round_index: int
    #: messages that crossed the network this round.
    network_messages: float
    #: messages delivered between co-located vertices (no network).
    local_messages: float
    #: network bytes moved by the bottleneck machine.
    bottleneck_bytes: float
    #: compute work units executed by the bottleneck machine.
    compute_ops: float
    #: peak memory on the most loaded machine during this round.
    peak_memory_bytes: float
    #: bytes spilled to disk (out-of-core engines only).
    spilled_bytes: float = 0.0
    #: simulated seconds, total and broken down.
    seconds: float = 0.0
    compute_seconds: float = 0.0
    network_seconds: float = 0.0
    disk_seconds: float = 0.0
    barrier_seconds: float = 0.0
    thrash_multiplier: float = 1.0
    disk_utilization: float = 0.0
    io_queue_length: float = 0.0
    network_saturated: bool = False

    @property
    def total_messages(self) -> float:
        return self.network_messages + self.local_messages


@dataclass
class BatchMetrics:
    """Accounting for one batch (a sequence of rounds)."""

    batch_index: int
    workload: float
    rounds: List[RoundMetrics] = field(default_factory=list)
    overloaded: bool = False
    overload_reason: Optional[str] = None
    #: residual memory carried *into* this batch from earlier batches.
    residual_memory_bytes: float = 0.0
    #: residual memory this batch leaves behind for later batches.
    residual_memory_after_bytes: float = 0.0
    #: fixed batch startup cost (engine-dependent).
    startup_seconds: float = 0.0
    #: checkpoints written during this batch (Pregel's every-k-rounds
    #: model) and the simulated time spent writing them.
    checkpoints_written: int = 0
    checkpoint_seconds: float = 0.0
    #: injected machine crashes survived by rollback-replay, the rounds
    #: replayed to recover, and the time lost doing so (replayed round
    #: time plus checkpoint restore).
    crashes: int = 0
    rounds_replayed: int = 0
    replay_seconds: float = 0.0
    #: non-crash fault events applied (stragglers, message loss,
    #: disk-full stalls) and the extra time they cost.
    fault_events: int = 0
    fault_seconds: float = 0.0
    #: overload recovery aborted this batch: it still counts as
    #: overloaded, but its time is the real elapsed time until the abort
    #: (plus abort overhead) instead of the 6000 s cutoff stamp.
    aborted: bool = False
    abort_seconds: float = 0.0
    #: human-readable log of the faults applied during this batch.
    fault_log: List[str] = field(default_factory=list)

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def seconds(self) -> float:
        if self.overloaded and not self.aborted:
            return OVERLOAD_CUTOFF_SECONDS
        elapsed = (
            self.startup_seconds
            + sum(r.seconds for r in self.rounds)
            + self.checkpoint_seconds
            + self.replay_seconds
            + self.fault_seconds
        )
        if self.aborted:
            # A supervised abort fires no later than the cutoff — the
            # batch never thrashes to completion, so cap the charge.
            elapsed = min(elapsed, OVERLOAD_CUTOFF_SECONDS)
        return elapsed + self.abort_seconds

    @property
    def network_messages(self) -> float:
        return sum(r.network_messages for r in self.rounds)

    @property
    def total_messages(self) -> float:
        return sum(r.total_messages for r in self.rounds)

    @property
    def peak_memory_bytes(self) -> float:
        if not self.rounds:
            return self.residual_memory_bytes
        return max(r.peak_memory_bytes for r in self.rounds)

    @property
    def messages_per_round(self) -> float:
        """Average per-round message count — the paper's "congestion"."""
        if not self.rounds:
            return 0.0
        return self.total_messages / len(self.rounds)

    @property
    def spilled_bytes(self) -> float:
        return sum(r.spilled_bytes for r in self.rounds)


@dataclass
class JobMetrics:
    """Accounting for a whole multi-processing job (all batches)."""

    engine: str
    task: str
    dataset: str
    cluster: str
    num_machines: int
    total_workload: float
    batch_sizes: List[float] = field(default_factory=list)
    batches: List[BatchMetrics] = field(default_factory=list)
    aggregation_seconds: float = 0.0
    extras: Dict[str, float] = field(default_factory=dict)
    #: overload-recovery attempts (one record per aborted-and-re-split
    #: schedule), recorded by the batching executor's closed loop.
    retry_history: List[Dict[str, Any]] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Aggregates the experiment tables print
    # ------------------------------------------------------------------
    @property
    def num_batches(self) -> int:
        return len(self.batch_sizes)

    @property
    def overloaded(self) -> bool:
        """Terminal overload: a batch overloaded and was *not* recovered.

        Batches aborted by overload recovery still record their failure
        (``overloaded=True, aborted=True``) but do not mark the job
        overloaded — the re-split batches completed the workload.
        """
        return any(b.overloaded and not b.aborted for b in self.batches)

    @property
    def seconds(self) -> float:
        """Total simulated running time (cutoff when overloaded)."""
        if self.overloaded:
            return OVERLOAD_CUTOFF_SECONDS
        return sum(b.seconds for b in self.batches) + self.aggregation_seconds

    @property
    def num_rounds(self) -> int:
        return sum(b.num_rounds for b in self.batches)

    @property
    def network_messages(self) -> float:
        return sum(b.network_messages for b in self.batches)

    @property
    def total_messages(self) -> float:
        return sum(b.total_messages for b in self.batches)

    @property
    def messages_per_round(self) -> float:
        rounds = self.num_rounds
        if rounds == 0:
            return 0.0
        return self.total_messages / rounds

    @property
    def peak_memory_bytes(self) -> float:
        if not self.batches:
            return 0.0
        return max(b.peak_memory_bytes for b in self.batches)

    # -- fault-tolerance aggregates ------------------------------------
    @property
    def checkpoints_written(self) -> int:
        return sum(b.checkpoints_written for b in self.batches)

    @property
    def checkpoint_seconds(self) -> float:
        return sum(b.checkpoint_seconds for b in self.batches)

    @property
    def crashes(self) -> int:
        return sum(b.crashes for b in self.batches)

    @property
    def rounds_replayed(self) -> int:
        return sum(b.rounds_replayed for b in self.batches)

    @property
    def replay_seconds(self) -> float:
        return sum(b.replay_seconds for b in self.batches)

    @property
    def fault_events(self) -> int:
        return sum(b.fault_events for b in self.batches)

    @property
    def fault_seconds(self) -> float:
        return sum(b.fault_seconds for b in self.batches)

    @property
    def time_lost_seconds(self) -> float:
        """Simulated time lost to faults: replay plus slowdown extras."""
        return self.replay_seconds + self.fault_seconds

    @property
    def overload_retries(self) -> int:
        """Overload-recovery attempts recorded by the executor."""
        return len(self.retry_history)

    @property
    def aborted_batches(self) -> int:
        return sum(1 for b in self.batches if b.aborted)

    @property
    def network_overuse_seconds(self) -> float:
        return self.extras.get("network_overuse_seconds", 0.0)

    @property
    def io_overuse_seconds(self) -> float:
        return self.extras.get("io_overuse_seconds", 0.0)

    @property
    def max_disk_utilization(self) -> float:
        if not self.batches:
            return 0.0
        return max(
            (r.disk_utilization for b in self.batches for r in b.rounds),
            default=0.0,
        )

    @property
    def mean_io_queue_length(self) -> float:
        lengths = [
            r.io_queue_length
            for b in self.batches
            for r in b.rounds
            if r.spilled_bytes > 0
        ]
        if not lengths:
            return 0.0
        return sum(lengths) / len(lengths)

    def time_breakdown(self) -> Dict[str, float]:
        """Seconds attributed to each cost component across all rounds.

        The thrash multiplier inflates compute/network/overhead time;
        the difference is reported under ``"thrash"`` so the components
        sum to the (uncapped) total.
        """
        parts = {
            "compute": 0.0,
            "network": 0.0,
            "disk": 0.0,
            "barrier": 0.0,
            "startup": 0.0,
            "thrash": 0.0,
            "checkpoint": 0.0,
            "replay": 0.0,
            "faults": 0.0,
        }
        for batch in self.batches:
            parts["startup"] += batch.startup_seconds
            parts["checkpoint"] += batch.checkpoint_seconds
            parts["replay"] += batch.replay_seconds
            parts["faults"] += batch.fault_seconds + batch.abort_seconds
            for r in batch.rounds:
                parts["compute"] += r.compute_seconds
                parts["network"] += r.network_seconds
                parts["disk"] += r.disk_seconds
                parts["barrier"] += r.barrier_seconds
                worked = r.seconds - r.barrier_seconds - r.disk_seconds
                parts["thrash"] += max(
                    0.0,
                    worked
                    - (r.seconds - r.barrier_seconds - r.disk_seconds)
                    / max(r.thrash_multiplier, 1.0),
                )
        parts["other"] = max(
            0.0,
            sum(b.seconds for b in self.batches)
            + self.aggregation_seconds
            - sum(parts.values()),
        )
        return parts

    def time_label(self) -> str:
        """The time string as the paper prints it ("Overload" at cutoff)."""
        if self.overloaded:
            return "Overload"
        return format_seconds(self.seconds)

    def to_dict(self, include_rounds: bool = False) -> Dict:
        """JSON-serialisable dump of the job's metrics.

        Batch summaries are always included; pass
        ``include_rounds=True`` for the full per-round trace.
        """
        payload = {
            "engine": self.engine,
            "task": self.task,
            "dataset": self.dataset,
            "cluster": self.cluster,
            "num_machines": self.num_machines,
            "total_workload": self.total_workload,
            "batch_sizes": list(self.batch_sizes),
            "seconds": self.seconds,
            "overloaded": self.overloaded,
            "num_rounds": self.num_rounds,
            "network_messages": self.network_messages,
            "total_messages": self.total_messages,
            "messages_per_round": self.messages_per_round,
            "peak_memory_bytes": self.peak_memory_bytes,
            "network_overuse_seconds": self.network_overuse_seconds,
            "io_overuse_seconds": self.io_overuse_seconds,
            "max_disk_utilization": self.max_disk_utilization,
            "aggregation_seconds": self.aggregation_seconds,
            "time_breakdown": self.time_breakdown(),
            "checkpoints_written": self.checkpoints_written,
            "checkpoint_seconds": self.checkpoint_seconds,
            "crashes": self.crashes,
            "rounds_replayed": self.rounds_replayed,
            "replay_seconds": self.replay_seconds,
            "fault_events": self.fault_events,
            "fault_seconds": self.fault_seconds,
            "overload_retries": self.overload_retries,
            "retry_history": [dict(r) for r in self.retry_history],
            "batches": [
                {
                    "index": b.batch_index,
                    "workload": b.workload,
                    "rounds": b.num_rounds,
                    "seconds": b.seconds,
                    "overloaded": b.overloaded,
                    "overload_reason": b.overload_reason,
                    "aborted": b.aborted,
                    "peak_memory_bytes": b.peak_memory_bytes,
                    "residual_memory_after_bytes": (
                        b.residual_memory_after_bytes
                    ),
                    "checkpoints_written": b.checkpoints_written,
                    "crashes": b.crashes,
                    "rounds_replayed": b.rounds_replayed,
                    "replay_seconds": b.replay_seconds,
                    "fault_log": list(b.fault_log),
                }
                for b in self.batches
            ],
        }
        if include_rounds:
            for batch_payload, batch in zip(payload["batches"], self.batches):
                batch_payload["round_trace"] = [
                    {
                        "round": r.round_index,
                        "seconds": r.seconds,
                        "network_messages": r.network_messages,
                        "local_messages": r.local_messages,
                        "peak_memory_bytes": r.peak_memory_bytes,
                        "spilled_bytes": r.spilled_bytes,
                        "disk_utilization": r.disk_utilization,
                        "thrash_multiplier": r.thrash_multiplier,
                    }
                    for r in batch.rounds
                ]
        return payload

    def summary(self) -> str:
        """One-line summary for logs and example scripts."""
        return (
            f"{self.engine}/{self.task} on {self.dataset}@{self.cluster} "
            f"W={self.total_workload:g} b={self.num_batches}: "
            f"{self.time_label()}, rounds={self.num_rounds}, "
            f"msgs/round={format_count(self.messages_per_round)}, "
            f"peak_mem={format_bytes(self.peak_memory_bytes)}"
        )


# ----------------------------------------------------------------------
# Fast copies and artifact-cache persistence
# ----------------------------------------------------------------------
def clone_job(job: JobMetrics) -> JobMetrics:
    """Copy of ``job`` that shares its round records.

    The job, each batch and each batch's ``rounds`` list are copied —
    shallow copies suffice, every other field is a scalar — and the
    rounds themselves are shared: a :class:`RoundMetrics` cannot be
    assigned to, so no caller can change what another copy (or the run
    cache) holds. That skips copying the tens of thousands of per-round
    records an experiment sweep keeps in the run cache.
    """
    clone = copy.copy(job)
    clone.batch_sizes = list(job.batch_sizes)
    clone.extras = dict(job.extras)
    clone.retry_history = [dict(r) for r in job.retry_history]
    clone.batches = []
    for batch in job.batches:
        batch_clone = copy.copy(batch)
        batch_clone.rounds = list(batch.rounds)
        batch_clone.fault_log = list(batch.fault_log)
        clone.batches.append(batch_clone)
    return clone


def _json_safe(obj):
    """Unwrap stray numpy scalars so metric payloads JSON-serialise."""
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON-serialisable: {type(obj)!r}")


#: Declared field names, captured once: :func:`pack_job` renders exactly
#: these with plain attribute reads (``dataclasses.asdict`` costs ~100x
#: more: it deep-copies every per-round scalar before ``json.dumps``
#: renders the copy anyway).
_BATCH_FIELDS = tuple(f.name for f in dataclasses.fields(BatchMetrics))
_JOB_FIELDS = tuple(f.name for f in dataclasses.fields(JobMetrics))
#: Where a round's peak sits among its fields. The fields around it are
#: what a round replayed from a tape shares with the executed round it
#: replays.
_PEAK = RoundMetrics._fields.index("peak_memory_bytes")
_PEAK_KEY = '"peak_memory_bytes": '
_PLAIN = frozenset({float, int, bool})
_ENCODE = json.JSONEncoder(default=_json_safe).encode


def _encode_round(r: RoundMetrics) -> str:
    """Whole-record JSON of one round."""
    return _ENCODE(r._asdict())


def _encode_rounds(rounds: List[RoundMetrics], twins: Dict) -> str:
    """JSON array of ``rounds``, encoding each distinct record once.

    ``twins`` maps a round's fields-but-peak to the text on either side
    of its peak; every further round with those fields costs one
    ``repr`` and a splice. Equal values are not equal JSON (``0 == 0.0
    == -0.0 == False``), so the key is the fields' ``marshal`` form —
    exact type, sign and bits — and only records whose fields are all
    plain ``float`` / ``int`` / ``bool`` are admitted: ``marshal``
    flattens numpy scalars to their buffers, under a type code no plain
    value uses, so a key that hits was written by plain fields too.
    Any other record, or a peak that is not a finite ``float`` (JSON
    spells those its own way), gets a whole encode.
    """
    records = []
    for r in rounds:
        peak, twin = r[_PEAK], r[:_PEAK] + r[_PEAK + 1:]
        key = None
        if type(peak) is float and math.isfinite(peak):
            try:
                key = marshal.dumps(twin, 2)
            except ValueError:  # a type marshal does not know
                pass
        sides = twins.get(key)
        if sides is None:
            text = _encode_round(r)
            if key is None or not _PLAIN.issuperset(map(type, twin)):
                records.append(text)
                continue
            cut = text.index(_PEAK_KEY) + len(_PEAK_KEY)
            sides = twins[key] = text[:cut], text[cut + len(repr(peak)):]
        records.append(sides[0] + repr(peak) + sides[1])
    return "[" + ", ".join(records) + "]"


def _encode_with(obj, fields: Tuple[str, ...], name: str, text: str) -> str:
    """JSON object of ``obj``'s ``fields`` with ``name`` (neither first
    nor last of them) already rendered as ``text``."""
    at = fields.index(name)
    head = _ENCODE({f: getattr(obj, f) for f in fields[:at]})
    tail = _ENCODE({f: getattr(obj, f) for f in fields[at + 1:]})
    return f'{head[:-1]}, "{name}": {text}, {tail[1:]}'


def pack_job(job: JobMetrics) -> Dict[str, np.ndarray]:
    """Render a job as the serving tier's response payload.

    The payload is the ``json.dumps(dataclasses.asdict(job))`` rendering,
    each round as its ``_asdict()``, byte for byte
    (``tests/sim/test_pack_job_oracle.py`` holds that oracle), written
    at the cost of the rounds that *ran*: a job split into ``b`` batches
    prices ``b`` times the rounds it executes, and a replayed round
    differs from its tape twin in Equation 1's residual term —
    ``peak_memory_bytes`` — alone (:func:`_encode_rounds`; DESIGN.md
    10.3).

    The bytes are a contract, not merely the values: the payload's
    length is the response size the serving tier's result cache budgets
    (:class:`repro.perf.cache.ResultCache`), so a format change would
    move evictions, hit ratios and every simulated serve metric. The
    artifact store keeps runs in its own format (:func:`archive_job`).
    """
    twins: Dict[bytes, Tuple[str, str]] = {}
    batches = ", ".join(
        _encode_with(
            b, _BATCH_FIELDS, "rounds", _encode_rounds(b.rounds, twins)
        )
        for b in job.batches
    )
    text = _encode_with(job, _JOB_FIELDS, "batches", f"[{batches}]")
    return {"payload": np.frombuffer(text.encode("utf-8"), dtype=np.uint8)}


#: A run archive's payload is this tag, the header's length (8 bytes,
#: little-endian), the header, then the round block. The header is the
#: JSON of the job's and its batches' fields, each batch's ``rounds``
#: its round count. The block holds every round of every batch as
#: columns in field order: ``round_index`` int64, the float fields
#: float64, ``network_saturated`` one byte.
_ARCHIVE_TAG = b"vcrepro-run-archive-1\n"
_ROUND_TYPES = tuple(
    get_type_hints(RoundMetrics)[name] for name in RoundMetrics._fields
)
_FLOATS = len(_ROUND_TYPES) - 2
assert _ROUND_TYPES == (int,) + (float,) * _FLOATS + (bool,)
_ROUND_BYTES = 8 + 8 * _FLOATS + 1


def archive_job(job: JobMetrics) -> Dict[str, np.ndarray]:
    """Pack a job into the artifact store's run archive.

    Every round field is stored bit for bit, so
    ``pack_job(unpack_job(archive_job(job))) == pack_job(job)``. That
    holds only for a round whose every field is exactly its declared
    type: a ``0`` where a float belongs renders ``0`` in JSON, not
    ``0.0``. Such a round is refused with ``TypeError``, not coerced.
    """
    rounds = [r for b in job.batches for r in b.rounds]
    columns = list(zip(*rounds)) or [()] * len(_ROUND_TYPES)
    for name, column, kind in zip(RoundMetrics._fields, columns, _ROUND_TYPES):
        strays = set(map(type, column)) - {kind}
        if strays:
            raise TypeError(
                f"round field {name} must be {kind.__name__}, got "
                + ", ".join(sorted(t.__name__ for t in strays))
            )
    head = {f: getattr(job, f) for f in _JOB_FIELDS}
    head["batches"] = [
        {**{f: getattr(b, f) for f in _BATCH_FIELDS}, "rounds": len(b.rounds)}
        for b in job.batches
    ]
    header = _ENCODE(head).encode("utf-8")
    payload = b"".join((
        _ARCHIVE_TAG,
        len(header).to_bytes(8, "little"),
        header,
        np.array(columns[0], dtype="<i8").tobytes(),
        np.array(columns[1:-1], dtype="<f8").tobytes(),
        np.array(columns[-1], dtype=np.uint8).tobytes(),
    ))
    return {"payload": np.frombuffer(payload, dtype=np.uint8)}


def unpack_job(arrays: Dict[str, np.ndarray]) -> JobMetrics:
    """Rebuild a job packed by :func:`archive_job`.

    Any other payload raises ``ValueError``, which the artifact store
    quarantines and rebuilds (:meth:`repro.perf.cache.ArtifactCache._load`).
    """
    data = bytes(arrays["payload"])
    if not data.startswith(_ARCHIVE_TAG):
        raise ValueError("not a run archive")
    at = len(_ARCHIVE_TAG) + 8
    end = at + int.from_bytes(data[at - 8:at], "little")
    head = json.loads(data[at:end])
    try:
        batches = head.pop("batches")
        counts = [b["rounds"] for b in batches]
        if any(type(c) is not int or c < 0 for c in counts):
            raise TypeError("a round count is not a count")
    except (AttributeError, KeyError, TypeError) as error:
        raise ValueError(f"malformed run archive header: {error}") from None
    n = sum(counts)
    if len(data) - end != n * _ROUND_BYTES:
        raise ValueError(
            f"run archive holds {len(data) - end} round bytes, its header "
            f"counts {n} rounds of {_ROUND_BYTES}"
        )
    flags = np.frombuffer(data, np.uint8, n, end + (_ROUND_BYTES - 1) * n)
    if n and flags.max() > 1:
        raise ValueError("run archive flag byte is neither 0 nor 1")
    rounds = list(map(RoundMetrics._make, zip(
        np.frombuffer(data, "<i8", n, end).tolist(),
        *np.frombuffer(data, "<f8", _FLOATS * n, end + 8 * n)
        .reshape(_FLOATS, n).tolist(),
        flags.astype(bool).tolist(),
    )))
    start = 0
    try:
        for batch, count in zip(batches, counts):
            batch["rounds"] = rounds[start:start + count]
            start += count
        return JobMetrics(
            batches=[BatchMetrics(**b) for b in batches], **head
        )
    except TypeError as error:
        raise ValueError(f"malformed run archive header: {error}") from None


#: Serializer persisting whole engine runs in the shared artifact cache.
JOB_SERIALIZER = ArraySerializer(pack=archive_job, unpack=unpack_job)


def _pack_payload(payload: bytes) -> Dict[str, np.ndarray]:
    return {"payload": np.frombuffer(payload, dtype=np.uint8)}


def _unpack_payload(arrays: Dict[str, np.ndarray]) -> bytes:
    return bytes(arrays["payload"])


#: Serializer persisting a response already rendered by :func:`pack_job`:
#: the bytes go to disk and come back as they are, with no job rebuilt
#: (:meth:`repro.engines.base.SimulatedEngine.run_canonical`).
PAYLOAD_SERIALIZER = ArraySerializer(pack=_pack_payload, unpack=_unpack_payload)


# ----------------------------------------------------------------------
# Online-scheduling accounting (repro.sched)
# ----------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    """Deterministic ``q``-th percentile (linear interpolation).

    Pure-python so the value is bit-stable across numpy versions —
    latency tables feed the differential determinism suite, which
    compares them byte for byte.
    """
    if not values:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError("percentile must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return float(ordered[low] * (1.0 - frac) + ordered[high] * frac)


@dataclass
class TaskLatency:
    """Latency record for one unit-task request in the online scheduler.

    All times are on the service's simulated clock. Queueing delay runs
    from arrival until the batch containing the request's *first* unit
    starts; execution runs from that start until the batch containing
    its *last* unit finishes (a request may span several batches when
    admission control splits it).
    """

    task_id: int
    kind: str
    units: float
    arrival_seconds: float
    start_seconds: float
    finish_seconds: float
    #: priority lane the request arrived on (0 = most urgent).
    priority: int = 1
    #: relative latency target, when the request carried one.
    deadline_seconds: Optional[float] = None
    #: tenant the request billed against.
    tenant: str = "default"
    #: how the request was satisfied: "executed" (ran in batches),
    #: "cache-hit" (served from the result cache), or "coalesced"
    #: (joined an in-flight duplicate's execution).
    served_by: str = "executed"

    @property
    def queue_seconds(self) -> float:
        """Time spent waiting in the arrival queue."""
        return self.start_seconds - self.arrival_seconds

    @property
    def missed_deadline(self) -> bool:
        """Whether the request finished past its deadline."""
        if self.deadline_seconds is None:
            return False
        return self.latency_seconds > self.deadline_seconds

    @property
    def execution_seconds(self) -> float:
        """Time from first batch start to last batch finish."""
        return self.finish_seconds - self.start_seconds

    @property
    def latency_seconds(self) -> float:
        """End-to-end sojourn time (queueing + execution)."""
        return self.finish_seconds - self.arrival_seconds


@dataclass
class ServiceMetrics:
    """Accounting for one online scheduling service run.

    Collects the per-request latency records, the executed batch log
    (with admission headroom at formation time), and the backpressure /
    re-split counters the throughput experiment and ``vcrepro serve``
    report.
    """

    engine: str
    cluster: str
    arrival_rate: float = 0.0
    duration_rounds: int = 0
    seed: Optional[int] = None
    #: completed requests, in completion order.
    latencies: List[TaskLatency] = field(default_factory=list)
    #: one summary dict per executed batch (kind, workload, seconds,
    #: rounds, admission headroom, residual before/after).
    batch_log: List[Dict[str, Any]] = field(default_factory=list)
    #: residual flushes forced by backpressure and their simulated cost.
    flushes: int = 0
    flush_seconds: float = 0.0
    #: overloaded batches recovered by abort + re-split.
    resplits: int = 0
    #: simulated seconds from service start to last batch completion.
    elapsed_seconds: float = 0.0
    #: batches suspended at a superstep barrier for a more urgent lane.
    preemptions: int = 0
    #: suspended batches resumed (each eventually completes).
    resumes: int = 0
    #: simulated suspend/restore checkpoint cost paid for preemption.
    preempt_seconds: float = 0.0
    #: requests shed instead of queued (all reasons).
    dropped_requests: int = 0
    #: shed because the pending queue hit its depth bound.
    drops_queue_full: int = 0
    #: shed because residual memory crossed the shed watermark.
    drops_watermark: int = 0
    #: queued requests dropped after their deadline expired unstarted.
    drops_expired: int = 0
    #: completed requests that finished past their deadline.
    deadline_misses: int = 0
    #: one record per shed request (task_id, kind, reason, hint).
    drop_log: List[Dict[str, Any]] = field(default_factory=list)
    #: result-cache counters (hits/misses/coalesced/stores/expirations/
    #: evictions plus final cached bytes); ``None`` when the cache was
    #: off, and then absent from :meth:`to_dict` so cache-off digests
    #: keep the pre-cache shape.
    result_cache: Optional[Dict[str, Any]] = None
    #: ask-tell calibration trajectory (training runs, tells, refits,
    #: drift events, RMSE before/after); ``None`` when calibration was
    #: off, and then absent from :meth:`to_dict` so calibration-off
    #: digests keep the pre-calibration shape.
    calibration: Optional[Dict[str, Any]] = None

    @property
    def completed_tasks(self) -> int:
        """Number of requests that ran to completion."""
        return len(self.latencies)

    @property
    def completed_units(self) -> float:
        """Total unit-task workload completed."""
        return sum(t.units for t in self.latencies)

    @property
    def throughput_tasks_per_second(self) -> float:
        """Completed requests per simulated second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.completed_tasks / self.elapsed_seconds

    @property
    def throughput_units_per_second(self) -> float:
        """Completed unit tasks per simulated second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.completed_units / self.elapsed_seconds

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 of end-to-end, queueing, and execution latency."""
        total = [t.latency_seconds for t in self.latencies]
        queue = [t.queue_seconds for t in self.latencies]
        execution = [t.execution_seconds for t in self.latencies]
        return {
            "p50_seconds": percentile(total, 50),
            "p95_seconds": percentile(total, 95),
            "p99_seconds": percentile(total, 99),
            "queue_p50_seconds": percentile(queue, 50),
            "queue_p95_seconds": percentile(queue, 95),
            "queue_p99_seconds": percentile(queue, 99),
            "execution_p50_seconds": percentile(execution, 50),
            "execution_p95_seconds": percentile(execution, 95),
            "execution_p99_seconds": percentile(execution, 99),
        }

    def tenant_summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-tenant latency percentiles and counters (the
        ``"tenants"`` section of :meth:`to_dict`), keyed by tenant
        name in sorted order."""
        tenants: Dict[str, Dict[str, Any]] = {}

        def record(tenant: str) -> Dict[str, Any]:
            return tenants.setdefault(
                tenant,
                {
                    "completed_tasks": 0,
                    "completed_units": 0.0,
                    "deadline_misses": 0,
                    "dropped_requests": 0,
                    "cache_hits": 0,
                    "coalesced_requests": 0,
                    "_latencies": [],
                },
            )

        for task in self.latencies:
            rec = record(task.tenant)
            rec["completed_tasks"] += 1
            rec["completed_units"] += task.units
            rec["_latencies"].append(task.latency_seconds)
            if task.missed_deadline:
                rec["deadline_misses"] += 1
            if task.served_by == "cache-hit":
                rec["cache_hits"] += 1
            elif task.served_by == "coalesced":
                rec["coalesced_requests"] += 1
        for drop in self.drop_log:
            record(str(drop.get("tenant", "default")))[
                "dropped_requests"
            ] += 1
        summary: Dict[str, Dict[str, Any]] = {}
        for tenant in sorted(tenants):
            rec = tenants[tenant]
            values = rec.pop("_latencies")
            rec["p50_seconds"] = percentile(values, 50)
            rec["p95_seconds"] = percentile(values, 95)
            rec["p99_seconds"] = percentile(values, 99)
            summary[tenant] = rec
        return summary

    def resilience_summary(self) -> Dict[str, Any]:
        """Preemption/shedding/deadline counters (the ``"resilience"``
        section of :meth:`to_dict`)."""
        return {
            "preemptions": self.preemptions,
            "resumes": self.resumes,
            "preempt_seconds": self.preempt_seconds,
            "dropped_requests": self.dropped_requests,
            "drops_queue_full": self.drops_queue_full,
            "drops_watermark": self.drops_watermark,
            "drops_expired": self.drops_expired,
            "deadline_misses": self.deadline_misses,
            "drops": [dict(d) for d in self.drop_log],
        }

    def to_dict(self, include_latencies: bool = False) -> Dict[str, Any]:
        """JSON-serialisable dump (stable key order for diffing).

        Batch summaries and percentile aggregates are always included;
        pass ``include_latencies=True`` for the full per-request table.
        """
        payload: Dict[str, Any] = {
            "engine": self.engine,
            "cluster": self.cluster,
            "arrival_rate": self.arrival_rate,
            "duration_rounds": self.duration_rounds,
            "seed": self.seed,
            "completed_tasks": self.completed_tasks,
            "completed_units": self.completed_units,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput_tasks_per_second": self.throughput_tasks_per_second,
            "throughput_units_per_second": self.throughput_units_per_second,
            "flushes": self.flushes,
            "flush_seconds": self.flush_seconds,
            "resplits": self.resplits,
            "num_batches": len(self.batch_log),
            "latency": self.latency_percentiles(),
            "resilience": self.resilience_summary(),
            "batches": [dict(b) for b in self.batch_log],
        }
        if self.result_cache is not None:
            # Only present when the result cache ran, so cache-off
            # digests keep the pre-cache payload shape byte for byte.
            payload["result_cache"] = dict(self.result_cache)
        if self.calibration is not None:
            # Same contract for the ask-tell calibration trajectory.
            payload["calibration"] = dict(self.calibration)
        tenants = self.tenant_summary()
        if any(t != "default" for t in tenants):
            # Same contract for multi-tenancy: anonymous single-tenant
            # streams keep the legacy payload shape.
            payload["tenants"] = tenants
        if include_latencies:
            payload["tasks"] = [
                {
                    "task_id": t.task_id,
                    "kind": t.kind,
                    "units": t.units,
                    "priority": t.priority,
                    "tenant": t.tenant,
                    "served_by": t.served_by,
                    "deadline_seconds": t.deadline_seconds,
                    "arrival_seconds": t.arrival_seconds,
                    "start_seconds": t.start_seconds,
                    "finish_seconds": t.finish_seconds,
                    "latency_seconds": t.latency_seconds,
                }
                for t in self.latencies
            ]
        return payload

    def latency_table(self) -> str:
        """Human-readable latency/throughput table for CLI output."""
        pct = self.latency_percentiles()
        lines = [
            f"completed tasks   {self.completed_tasks}",
            f"completed units   {format_count(self.completed_units)}",
            f"elapsed           {format_seconds(self.elapsed_seconds)}",
            (
                "throughput        "
                f"{self.throughput_tasks_per_second:.4g} tasks/s "
                f"({self.throughput_units_per_second:.4g} units/s)"
            ),
            (
                "latency p50/p95/p99   "
                f"{format_seconds(pct['p50_seconds'])} / "
                f"{format_seconds(pct['p95_seconds'])} / "
                f"{format_seconds(pct['p99_seconds'])}"
            ),
            (
                "queueing p50/p95/p99  "
                f"{format_seconds(pct['queue_p50_seconds'])} / "
                f"{format_seconds(pct['queue_p95_seconds'])} / "
                f"{format_seconds(pct['queue_p99_seconds'])}"
            ),
            (
                f"batches           {len(self.batch_log)} "
                f"(flushes={self.flushes}, resplits={self.resplits})"
            ),
        ]
        if (
            self.preemptions
            or self.dropped_requests
            or self.deadline_misses
        ):
            lines.append(
                "resilience        "
                f"preemptions={self.preemptions} resumes={self.resumes} "
                f"dropped={self.dropped_requests} "
                f"deadline_misses={self.deadline_misses}"
            )
        return "\n".join(lines)

    def summary(self) -> str:
        """One-line summary for logs."""
        pct = self.latency_percentiles()
        return (
            f"{self.engine}@{self.cluster} rate={self.arrival_rate:g}: "
            f"{self.completed_tasks} tasks in "
            f"{format_seconds(self.elapsed_seconds)}, "
            f"p50={format_seconds(pct['p50_seconds'])}, "
            f"p99={format_seconds(pct['p99_seconds'])}"
        )
