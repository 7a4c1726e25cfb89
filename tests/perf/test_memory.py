"""Peak-RSS accounting: ``repro.perf.memory``."""

from __future__ import annotations

import pytest

from repro.perf import memory


@pytest.fixture(autouse=True)
def _fresh_memory_state():
    memory.reset_memory_state()
    yield
    memory.reset_memory_state()


class TestSampling:
    def test_rss_and_peak_are_positive_on_linux(self):
        rss = memory.rss_bytes()
        peak = memory.peak_rss_bytes()
        assert rss is not None and rss > 0
        assert peak is not None and peak >= rss // 2  # same order

    def test_note_phase_records_high_water(self):
        memory.note_phase("build")
        stats = memory.memory_stats()
        assert "build" in stats["phase_high_water_bytes"]
        assert stats["phase_high_water_bytes"]["build"] > 0

    def test_high_water_never_decreases(self):
        memory.note_phase("kernel")
        first = memory.memory_stats()["phase_high_water_bytes"]["kernel"]
        memory.note_phase("kernel")
        second = memory.memory_stats()["phase_high_water_bytes"]["kernel"]
        assert second >= first

    def test_sampled_notes_are_throttled(self):
        for _ in range(memory.SAMPLE_EVERY - 1):
            memory.note_phase("hot", sampled=True)
        # Only the 0th tick of each SAMPLE_EVERY window samples.
        stats = memory.memory_stats()["phase_high_water_bytes"]
        assert "hot" in stats  # tick 0 sampled
        memory.reset_memory_state()
        memory._TICKS["hot2"] = 1  # mid-window: next note must skip
        memory.note_phase("hot2", sampled=True)
        assert "hot2" not in memory.memory_stats()["phase_high_water_bytes"]


class TestStateSpills:
    def test_record_state_spill_accumulates(self):
        memory.record_state_spill(1000)
        memory.record_state_spill(24)
        spills = memory.memory_stats()["state_spills"]
        assert spills == {"count": 2, "bytes": 1024}

    def test_reset_clears_spills(self):
        memory.record_state_spill(8)
        memory.reset_memory_state()
        spills = memory.memory_stats()["state_spills"]
        assert spills == {"count": 0, "bytes": 0}


class TestStatsShape:
    def test_memory_stats_keys(self):
        stats = memory.memory_stats()
        assert set(stats) == {
            "peak_rss_bytes",
            "current_rss_bytes",
            "phase_high_water_bytes",
            "state_spills",
        }

    def test_phases_sorted(self):
        memory.note_phase("zeta")
        memory.note_phase("alpha")
        phases = list(memory.memory_stats()["phase_high_water_bytes"])
        assert phases == sorted(phases)
