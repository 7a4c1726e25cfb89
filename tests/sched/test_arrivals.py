"""Tests for the seeded arrival streams (repro.sched.arrivals)."""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError
from repro.sched.arrivals import (
    DEFAULT_KINDS,
    TICK_SECONDS,
    TaskRequest,
    generate_arrivals,
)


class TestGenerateArrivals:
    def test_same_seed_same_stream(self):
        first = generate_arrivals(0.8, 50, seed=42)
        second = generate_arrivals(0.8, 50, seed=42)
        assert first == second
        assert first, "a 50-tick stream at rate 0.8 should not be empty"

    def test_different_seeds_differ(self):
        assert generate_arrivals(0.8, 50, seed=1) != generate_arrivals(
            0.8, 50, seed=2
        )

    def test_stream_shape(self):
        requests = generate_arrivals(
            1.5, 30, seed=7, kinds=("bppr", "mssp"), units_range=(4, 16)
        )
        assert [r.task_id for r in requests] == list(range(len(requests)))
        arrivals = [r.arrival_seconds for r in requests]
        assert arrivals == sorted(arrivals)
        for request in requests:
            assert request.kind in ("bppr", "mssp")
            assert 4 <= request.units <= 16
            assert request.units == int(request.units)
            assert request.arrival_seconds % TICK_SECONDS == 0

    def test_default_kinds_cover_paper_tasks(self):
        assert DEFAULT_KINDS == ("bppr", "mssp", "bkhs")
        kinds = {r.kind for r in generate_arrivals(2.0, 60, seed=3)}
        assert kinds == set(DEFAULT_KINDS)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rate=0.0, duration=10),
            dict(rate=-1.0, duration=10),
            dict(rate=1.0, duration=0),
            dict(rate=1.0, duration=10, kinds=()),
            dict(rate=1.0, duration=10, units_range=(0, 4)),
            dict(rate=1.0, duration=10, units_range=(8, 4)),
            dict(rate=1.0, duration=10, deadlines={0: float("nan")}),
            dict(rate=1.0, duration=10, deadlines={0: float("inf")}),
            dict(rate=1.0, duration=10, deadlines={0: -5.0}),
            dict(rate=1.0, duration=10, deadlines={0: 0.0}),
            dict(rate=1.0, duration=10, deadlines={1.5: 10.0}),
            dict(rate=1.0, duration=10, deadlines={-1: 10.0}),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(SchedulingError):
            generate_arrivals(**kwargs)

    def test_request_is_frozen(self):
        request = TaskRequest(0, "bppr", 8.0, 0.0)
        with pytest.raises(AttributeError):
            request.units = 16.0
