"""Content-addressed artifact cache (in-memory LRU + optional disk store).

Experiment sweeps regenerate the same artifacts over and over: the same
Chung-Lu graph for every experiment touching a dataset, the same hash
partition for every engine bound to the same cluster, the same mirror
plan, and — across figures that share settings — the same engine run.
This module provides one process-wide :class:`ArtifactCache` that all of
them share, so repeated sweeps reuse bit-identical artifacts instead of
recomputing them.

Keys are flat tuples of primitives, content-addressed where graph
identity matters (see :meth:`repro.graph.csr.Graph.fingerprint`).
Values are cached in an in-memory LRU; artifact kinds that provide an
array serializer are additionally persisted to an on-disk ``.npz``
store, enabled by the ``REPRO_CACHE_DIR`` environment variable or the
``--cache-dir`` CLI flag; graphs persist beside them as one ``.csr``
directory each (:mod:`repro.graph.io`, through ``get_or_build``'s
``load`` hook), which makes the expensive stand-ins (Twitter,
Friendster) open in milliseconds across processes.

Determinism contract: every builder routed through the cache is a pure
function of its key, so cached and uncached results are bit-identical —
tests assert this (``tests/perf/test_cache.py``).
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import CacheCorruptionError
from repro.perf import timings

__all__ = [
    "ArtifactCache",
    "ArraySerializer",
    "CacheStats",
    "ResultCache",
    "ResultCacheStats",
    "get_cache",
    "configure_cache",
    "clear_cache",
]

#: Default in-memory LRU capacity (entries). Artifacts are small at the
#: default simulation scale (the largest graph is ~25 MB), so a couple
#: hundred entries stay well under typical memory budgets.
DEFAULT_CAPACITY = 256

#: Reserved array name holding the artifact's own checksum inside the
#: ``.npz``. Legacy artifacts without it are still accepted.
CHECKSUM_KEY = "_repro_checksum"


def _checksum_array(arrays: Dict[str, np.ndarray]) -> np.ndarray:
    """Content digest of an artifact's arrays (names, dtypes, shapes,
    bytes), stored alongside them so torn/bit-rotted files are caught
    at load time."""
    digest = hashlib.blake2b(digest_size=16)
    for name in sorted(arrays):
        array = np.asarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(repr(array.shape).encode("utf-8"))
        digest.update(np.ascontiguousarray(array))
    return np.frombuffer(
        digest.hexdigest().encode("ascii"), dtype=np.uint8
    ).copy()


@dataclass
class CacheStats:
    """Hit/miss counters, surfaced in ``vcrepro report``."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    evictions: int = 0
    #: on-disk artifacts that failed checksum/format validation and were
    #: quarantined (renamed to ``*.corrupt``) then rebuilt.
    corruptions: int = 0


@dataclass(frozen=True)
class ArraySerializer:
    """Adapter persisting one artifact kind as a dict of numpy arrays.

    ``pack`` maps the value to ``{name: array}`` (plain scalars allowed;
    they round-trip as 0-d arrays); ``unpack`` rebuilds the value.
    """

    pack: Callable[[Any], Dict[str, np.ndarray]] = field(repr=False)
    unpack: Callable[[Dict[str, np.ndarray]], Any] = field(repr=False)


class ArtifactCache:
    """Thread-safe LRU keyed by primitive tuples, with optional npz spill."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        directory: Optional[str] = None,
    ) -> None:
        self.capacity = int(capacity)
        self.directory = directory
        self.stats = CacheStats()
        self._entries: "OrderedDict[Tuple, Any]" = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Core API
    # ------------------------------------------------------------------
    def get_or_build(
        self,
        key: Tuple,
        build: Callable[[], Any],
        serializer: Optional[ArraySerializer] = None,
        use_memory: bool = True,
        load: Optional[Callable[[], Any]] = None,
    ) -> Any:
        """Return the cached value for ``key``, building it on a miss.

        Lookup order: in-memory LRU (unless ``use_memory`` is False),
        then the on-disk store (when a ``serializer`` is given and a
        cache directory is configured), then ``build()``. Disk loads and
        fresh builds are inserted into the LRU; fresh builds are also
        persisted to disk.

        ``load`` is the disk store of an artifact that persists itself
        (a graph's CSR directory, see :meth:`artifact_path`): it
        returns the stored value, or ``None`` to go on to ``build()``,
        which then writes the store itself.
        """
        if use_memory:
            with self._lock:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    return self._entries[key]
        path = None
        if serializer is not None:
            path = self.artifact_path(key, ".npz")
        value = None
        if load is not None:
            value = load()
        elif path is not None and os.path.exists(path):
            value = self._load(path, serializer)
        if value is not None:
            self.stats.disk_hits += 1
            if use_memory:
                self._insert(key, value)
            return value
        self.stats.misses += 1
        value = build()
        if use_memory:
            self._insert(key, value)
        if path is not None:
            self._store(path, value, serializer)
        return value

    def put(self, key: Tuple, value: Any) -> None:
        """Insert ``value`` under ``key`` (memory only)."""
        self._insert(key, value)

    def get(self, key: Tuple) -> Optional[Any]:
        """Value for ``key`` or None (memory only; counts hit/miss)."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]
        self.stats.misses += 1
        return None

    def clear(self) -> None:
        """Drop every in-memory entry (the disk store is left intact)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _insert(self, key: Tuple, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def artifact_path(
        self,
        key: Tuple,
        suffix: str,
        stem: Optional[str] = None,
        directory: Optional[str] = None,
    ) -> Optional[str]:
        """Deterministic on-disk name of ``key``'s artifact — the key's
        digest behind ``stem`` (default ``key[0]``), ``suffix`` by kind:
        ``.npz`` archives, a ``.csr`` directory per graph — under
        ``directory`` (default: the cache's). ``None`` when no disk
        directory is configured."""
        directory = directory or self.directory
        if not directory:
            return None
        digest = hashlib.blake2b(
            repr(key).encode("utf-8"), digest_size=16
        ).hexdigest()
        kind = stem or (str(key[0]) if key else "artifact")
        return os.path.join(directory, f"{kind}-{digest}{suffix}")

    def _store(
        self, path: str, value: Any, serializer: ArraySerializer
    ) -> None:
        # Write-then-rename: a crash mid-write leaves only a stale tmp
        # file, never a truncated artifact under the real name.
        tmp = f"{path}.tmp-{os.getpid()}"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            arrays = dict(serializer.pack(value))
            arrays[CHECKSUM_KEY] = _checksum_array(arrays)
            with open(tmp, "wb") as fh:
                self._write_npz(fh, arrays)
            os.replace(tmp, path)
        except OSError:  # best-effort, but leave no torn tmp file
            try:
                os.unlink(tmp)
            except OSError:
                pass

    @staticmethod
    def _write_npz(fh, arrays: Dict[str, np.ndarray]) -> None:
        """``np.savez`` of ``arrays``: one ``<name>.npy`` member each,
        stored, not deflated.

        Cache artifacts are write-once scratch data, and the store
        happens on the critical path of every cold run: deflate (even at
        level 1) was most of an archive's write, to shrink the disk
        cache it lives in (``jobs_bppr``'s run archives: 14.8 MB a pass
        stored, 1.75 MB deflated). ``np.load`` reads either form, so
        archives written deflated still load; the zip CRC and the
        checksum member still catch damaged bytes.
        """
        import zipfile

        with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as archive:
            for name, array in arrays.items():
                with archive.open(
                    f"{name}.npy", "w", force_zip64=True
                ) as entry:
                    np.lib.format.write_array(
                        entry, np.asanyarray(array), allow_pickle=False
                    )

    def _load(
        self, path: str, serializer: ArraySerializer
    ) -> Optional[Any]:
        import zipfile
        import zlib

        try:
            with timings.span("cache-load"):
                with np.load(path, allow_pickle=False) as data:
                    arrays = {name: data[name] for name in data.files}
                stored = arrays.pop(CHECKSUM_KEY, None)
                if stored is not None and not np.array_equal(
                    stored, _checksum_array(arrays)
                ):
                    raise CacheCorruptionError(
                        f"checksum mismatch in cache artifact {path}"
                    )
                return serializer.unpack(arrays)
        except (
            OSError,
            ValueError,
            KeyError,
            zipfile.BadZipFile,
            zlib.error,
            CacheCorruptionError,
        ):
            # Corrupt or foreign file: quarantine it so the rebuild's
            # fresh copy cannot collide with the bad bytes, and fall
            # through to rebuild.
            self.stats.corruptions += 1
            try:
                os.replace(path, f"{path}.corrupt")
            except OSError:
                pass
            return None


# ----------------------------------------------------------------------
# Serving-tier result cache (TTL + LRU bytes + single-flight)
# ----------------------------------------------------------------------
@dataclass
class ResultCacheStats:
    """Counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    #: in-flight duplicates joined to a leader's execution.
    coalesced: int = 0
    stores: int = 0
    #: entries dropped because their TTL lapsed.
    expirations: int = 0
    #: entries dropped by the LRU bytes budget (oversized payloads that
    #: were never stored count here too).
    evictions: int = 0

    def to_dict(self) -> Dict[str, int]:
        """Plain-dict form for ``ServiceMetrics.result_cache``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "stores": self.stores,
            "expirations": self.expirations,
            "evictions": self.evictions,
        }


class ResultCache:
    """Content-keyed result cache with single-flight coalescing.

    The serving tier's front-door memo: completed request payloads
    (opaque bytes, content-keyed like every artifact) are served from
    memory until they expire or the LRU bytes budget evicts them, and
    duplicate requests arriving while the first is still executing are
    *coalesced* — registered as joiners on the in-flight leader and
    fanned the leader's payload byte-identically, so N concurrent
    duplicates cost exactly one execution.

    Time is the caller's clock (the scheduler's simulated seconds), so
    TTL expiry is deterministic. The cache itself stores only payload
    bytes; durability across processes comes from the artifact cache
    the payload *builder* is memoised in — a cold :class:`ResultCache`
    backed by a warm artifact store rebuilds payloads from disk instead
    of re-running the engine.

    Single-threaded by design (the scheduler loop drives it between
    batches); "concurrent" means queued on the same virtual clock.
    """

    def __init__(
        self,
        ttl_seconds: Optional[float] = None,
        max_bytes: Optional[float] = None,
    ) -> None:
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.ttl_seconds = ttl_seconds
        self.max_bytes = max_bytes
        self.stats = ResultCacheStats()
        #: key → (payload bytes, store time); insertion order is LRU.
        self._entries: "OrderedDict[Tuple, Tuple[bytes, float]]" = (
            OrderedDict()
        )
        self._bytes = 0.0
        #: key → list of joiner tokens riding the in-flight leader.
        self._inflight: Dict[Tuple, list] = {}

    def _remove(self, key: Tuple) -> None:
        """Drop one stored entry and its bytes."""
        payload, _ = self._entries.pop(key)
        self._bytes -= len(payload)

    @property
    def total_bytes(self) -> float:
        """Bytes of payload currently cached (never above the budget)."""
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def _expire(self, now: float) -> None:
        if self.ttl_seconds is None:
            return
        stale = [
            key
            for key, (_, stored_at) in self._entries.items()
            if now - stored_at > self.ttl_seconds
        ]
        for key in stale:
            self._remove(key)
            self.stats.expirations += 1

    def lookup(self, key: Tuple, now: float) -> Optional[bytes]:
        """The cached payload for ``key``, or ``None`` on a miss.

        Expired entries are dropped first, so an entry stored at ``t``
        is servable exactly while ``now - t <= ttl`` — the monotone
        expiry contract the property suite checks. Hits refresh LRU
        recency.
        """
        self._expire(now)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry[0]

    def leader(self, key: Tuple) -> bool:
        """Claim single-flight leadership of ``key``.

        Returns True when no execution is in flight (the caller must
        run the request and eventually :meth:`complete` or
        :meth:`abandon` the key); False when a leader already exists —
        join it with :meth:`enlist` instead of executing.
        """
        if key in self._inflight:
            return False
        self._inflight[key] = []
        return True

    def enlist(self, key: Tuple, token) -> None:
        """Register a duplicate request on the in-flight leader; the
        token is handed back verbatim by :meth:`complete`/:meth:`abandon`."""
        if key not in self._inflight:
            raise KeyError(f"no in-flight leader for {key!r}")
        self._inflight[key].append(token)
        self.stats.coalesced += 1

    def complete(self, key: Tuple, payload: bytes, now: float) -> list:
        """Finish the leader's execution: store the payload and return
        the joiner tokens to fan it out to.

        The payload enters the TTL/LRU store (unless it alone exceeds
        the bytes budget, in which case it is served to the joiners but
        not retained). Eviction is LRU until the budget holds — the
        never-exceeds-budget invariant.
        """
        joiners = self._inflight.pop(key, [])
        payload = bytes(payload)
        self._expire(now)
        if key in self._entries:
            self._remove(key)
        if self.max_bytes is not None and len(payload) > self.max_bytes:
            self.stats.evictions += 1
            return joiners
        self._entries[key] = (payload, float(now))
        self._bytes += len(payload)
        self.stats.stores += 1
        if self.max_bytes is not None:
            while self._bytes > self.max_bytes and self._entries:
                self._remove(next(iter(self._entries)))
                self.stats.evictions += 1
        return joiners

    def abandon(self, key: Tuple) -> list:
        """Drop the in-flight leader without a result (the leader was
        shed); returns the joiner tokens so the caller can fail them
        the same way."""
        return self._inflight.pop(key, [])

    def inflight(self, key: Tuple) -> bool:
        """Whether ``key`` has an in-flight leader."""
        return key in self._inflight


# ----------------------------------------------------------------------
# Process-wide cache instance
# ----------------------------------------------------------------------
_GLOBAL: Optional[ArtifactCache] = None


def get_cache() -> ArtifactCache:
    """The process-wide cache (created on first use from environment).

    ``REPRO_CACHE_DIR`` enables the on-disk store; ``REPRO_CACHE_SIZE``
    overrides the in-memory LRU capacity.
    """
    global _GLOBAL
    if _GLOBAL is None:
        directory = os.environ.get("REPRO_CACHE_DIR")
        raw_size = os.environ.get("REPRO_CACHE_SIZE", "").strip()
        try:
            capacity = int(raw_size) if raw_size else DEFAULT_CAPACITY
        except ValueError:
            capacity = DEFAULT_CAPACITY
        _GLOBAL = ArtifactCache(capacity=capacity, directory=directory)
    return _GLOBAL


def configure_cache(
    directory: Optional[str] = None,
    capacity: Optional[int] = None,
) -> ArtifactCache:
    """(Re)configure the process-wide cache (CLI ``--cache-dir``).

    Existing in-memory entries are kept; only the disk directory and
    capacity change.
    """
    cache = get_cache()
    if directory is not None:
        cache.directory = directory or None
    if capacity is not None:
        cache.capacity = int(capacity)
    return cache


def clear_cache() -> None:
    """Drop all in-memory entries of the process-wide cache."""
    get_cache().clear()
