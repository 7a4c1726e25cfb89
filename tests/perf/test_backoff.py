"""Seeded exponential backoff: :class:`~repro.perf.backoff.BackoffPolicy`."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.perf.backoff import BackoffPolicy
from repro.rng import make_rng


class TestBackoffPolicy:
    def test_exponential_schedule(self):
        policy = BackoffPolicy(base_seconds=0.1, factor=2.0, jitter=0.0)
        assert [policy.delay_seconds(r) for r in (1, 2, 3, 4)] == [
            0.1,
            0.2,
            0.4,
            0.8,
        ]

    def test_cap(self):
        policy = BackoffPolicy(
            base_seconds=1.0, factor=10.0, max_seconds=5.0, jitter=0.0
        )
        assert policy.delay_seconds(4) == 5.0

    def test_seeded_jitter_is_deterministic(self):
        policy = BackoffPolicy(base_seconds=0.1, factor=2.0, jitter=0.5)
        first = [
            policy.delay_seconds(r, make_rng(7, label="perf/backoff"))
            for r in (1, 2, 3)
        ]
        second = [
            policy.delay_seconds(r, make_rng(7, label="perf/backoff"))
            for r in (1, 2, 3)
        ]
        assert first == second
        assert first != [0.1, 0.2, 0.4]  # jitter actually moved them
        for delay, base in zip(first, (0.1, 0.2, 0.4)):
            assert 0.5 * base <= delay <= 1.5 * base

    def test_no_rng_means_exact_schedule_even_with_jitter(self):
        policy = BackoffPolicy(base_seconds=0.1, factor=2.0, jitter=0.5)
        assert policy.delay_seconds(2, None) == 0.2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BackoffPolicy(base_seconds=-1.0)
        with pytest.raises(ConfigurationError):
            BackoffPolicy(factor=0.5)
        with pytest.raises(ConfigurationError):
            BackoffPolicy(jitter=1.5)
        with pytest.raises(ConfigurationError):
            BackoffPolicy(max_seconds=-1.0)
        with pytest.raises(ConfigurationError):
            BackoffPolicy().delay_seconds(0)
