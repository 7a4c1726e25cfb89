"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause while
still being able to distinguish configuration mistakes from runtime
conditions such as a simulated cluster overload.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied by the caller."""


class GraphFormatError(ReproError):
    """An edge list or serialized graph could not be parsed."""


class PartitionError(ReproError):
    """A partitioning request could not be satisfied."""


class EngineError(ReproError):
    """A vertex-centric engine was used incorrectly."""


class UnknownEngineError(EngineError):
    """The engine registry has no engine with the requested name."""


class TaskError(ReproError):
    """A benchmark task was configured or driven incorrectly."""


class BatchingError(ReproError):
    """A batching scheme is invalid (empty, negative, or wrong total)."""


class OverloadError(ReproError):
    """A simulated machine exceeded its memory/overload limits.

    Engines usually *report* overload through metrics rather than raising,
    mirroring the paper's treatment (results are marked "overload" at the
    6000 s cutoff); this exception exists for strict-mode callers
    (``run_job(..., on_overload="raise")``). The instance carries the
    context of the failure: which machine spec overloaded, the peak
    memory that broke it, and where in the job it happened.
    """

    def __init__(
        self,
        message: str,
        *,
        machine: Optional[str] = None,
        peak_memory_bytes: Optional[float] = None,
        limit_bytes: Optional[float] = None,
        batch_index: Optional[int] = None,
        reason: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.machine = machine
        self.peak_memory_bytes = peak_memory_bytes
        self.limit_bytes = limit_bytes
        self.batch_index = batch_index
        self.reason = reason


class FaultError(ReproError):
    """A fault-injection plan or event was configured incorrectly."""


class RecoveryError(ReproError):
    """Overload recovery exhausted its retry budget without completing.

    ``history`` holds the retry attempts made before giving up (the same
    records a successful run stores in ``JobMetrics.retry_history``).
    """

    def __init__(self, message: str, history: Optional[list] = None) -> None:
        super().__init__(message)
        self.history = list(history or [])


class CacheCorruptionError(ReproError):
    """An on-disk cache artifact failed checksum/format validation.

    The cache quarantines and rebuilds corrupt entries instead of
    propagating this error; it surfaces only through strict helpers.
    """


class TuningError(ReproError):
    """The tuning framework failed to train or plan a schedule."""


class SchedulingError(ReproError):
    """The online scheduling service could not make progress.

    Raised when admission control finds the memory budget below the
    model's constant terms (no batch can ever fit, even after flushing
    all residual memory) or the arrival stream is configured
    inconsistently.
    """


class FitError(TuningError):
    """Levenberg-Marquardt failed to converge to a usable fit."""
