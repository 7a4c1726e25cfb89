"""Seeded, jittered exponential backoff for the overload-recovery loop.

The batching executor re-splits overloaded jobs
(:meth:`repro.batching.executor.MultiProcessingJob.run_with_recovery`)
and waits between attempts: exponentially growing delays, capped, with
optional jitter to de-synchronise concurrent retriers. The jitter is
*deterministic*: the multiplier is drawn from a
caller-provided :class:`numpy.random.Generator` (derived from the
run's seed via :func:`repro.rng.make_rng` with a stream label), so a
re-run with the same seed sleeps the same schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["BackoffPolicy"]


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff schedule: ``base * factor**(retry-1)``.

    Attributes
    ----------
    base_seconds:
        delay before the first retry (retry 1).
    factor:
        growth per retry; ``2.0`` doubles each time.
    max_seconds:
        cap applied before jitter — no single delay exceeds this.
    jitter:
        symmetric jitter fraction in ``[0, 1]``: the capped delay is
        scaled by ``1 + jitter * u`` with ``u`` uniform in ``[-1, 1)``
        drawn from the caller's generator. ``0`` (or no generator)
        keeps the schedule exact.
    """

    base_seconds: float = 0.05
    factor: float = 2.0
    max_seconds: float = 5.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.base_seconds < 0:
            raise ConfigurationError("base_seconds must be non-negative")
        if self.factor < 1.0:
            raise ConfigurationError("factor must be >= 1")
        if self.max_seconds < 0:
            raise ConfigurationError("max_seconds must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must be in [0, 1]")

    def delay_seconds(self, retry: int, rng=None) -> float:
        """Delay before retry number ``retry`` (1-based).

        ``retry=1`` is the first re-attempt. The exponential delay is
        capped at ``max_seconds``; when ``rng`` is given and ``jitter``
        is positive, one uniform draw scales it symmetrically. Passing
        the same seeded generator therefore reproduces the exact
        sleep schedule.
        """
        if retry < 1:
            raise ConfigurationError("retry must be >= 1")
        delay = min(
            self.max_seconds, self.base_seconds * self.factor ** (retry - 1)
        )
        if rng is not None and self.jitter > 0.0:
            delay *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
        return max(0.0, delay)
