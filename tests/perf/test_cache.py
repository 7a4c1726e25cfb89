"""Artifact cache: determinism contract, LRU behaviour, disk store."""

import dataclasses

import numpy as np
import pytest

from repro.cluster.cluster import docker32
from repro.engines.registry import create_engine
from repro.graph.datasets import load_dataset
from repro.perf.cache import ArtifactCache, clear_cache, get_cache
from repro.sim.metrics import JOB_SERIALIZER, clone_job, pack_job, unpack_job
from repro.tasks.mssp import mssp_task

#: Small stand-in scale: web-st shrinks to ~70 vertices.
SCALE = 4000


@pytest.fixture(autouse=True)
def _pinned_cache_capacity():
    """These tests assert cache *semantics* (identity on a memory hit,
    eviction order), so they pin the process-wide cache's capacity —
    the CI leg that disables the memory cache via ``REPRO_CACHE_SIZE=0``
    must not turn them into vacuous failures."""
    cache = get_cache()
    saved = cache.capacity
    cache.capacity = 256
    yield
    cache.capacity = saved


class TestArtifactCache:
    def test_memory_hit_returns_same_object(self):
        cache = ArtifactCache(capacity=4)
        built = []

        def build():
            built.append(1)
            return {"value": 42}

        first = cache.get_or_build(("k", 1), build)
        second = cache.get_or_build(("k", 1), build)
        assert first is second
        assert built == [1]
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_lru_eviction(self):
        cache = ArtifactCache(capacity=2)
        for i in range(3):
            cache.get_or_build(("k", i), lambda i=i: i)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # Oldest key was evicted; newest two remain.
        assert cache.get(("k", 0)) is None
        assert cache.get(("k", 2)) == 2


class TestDatasetDeterminism:
    def test_cached_vs_uncached_graph_identical(self):
        clear_cache()
        cached = load_dataset("web-st", scale=SCALE)
        again = load_dataset("web-st", scale=SCALE)
        fresh = load_dataset("web-st", scale=SCALE, cache=False)
        assert again is cached  # memory hit
        assert fresh is not cached  # independent build
        np.testing.assert_array_equal(fresh.indptr, cached.indptr)
        np.testing.assert_array_equal(fresh.indices, cached.indices)
        assert fresh.fingerprint == cached.fingerprint

    def test_disk_round_trip_bit_identical(self, tmp_path):
        clear_cache()
        original = load_dataset(
            "web-st", scale=SCALE, cache=False, cache_dir=str(tmp_path)
        )
        loaded = load_dataset(
            "web-st", scale=SCALE, cache=False, cache_dir=str(tmp_path)
        )
        assert get_cache().stats.disk_hits >= 1
        np.testing.assert_array_equal(loaded.indptr, original.indptr)
        np.testing.assert_array_equal(loaded.indices, original.indices)
        assert loaded.fingerprint == original.fingerprint


class TestRunCache:
    @pytest.fixture
    def setting(self):
        clear_cache()
        graph = load_dataset("web-st", scale=SCALE)
        engine = create_engine("pregel+", docker32(scale=SCALE))
        return graph, engine

    def test_cached_rerun_identical(self, setting):
        graph, engine = setting
        task = mssp_task(graph, 8.0)
        first = engine.run_job(task, [4.0, 4.0], seed=11)
        second = engine.run_job(task, [4.0, 4.0], seed=11)
        assert second is not first
        assert dataclasses.asdict(second) == dataclasses.asdict(first)

    def test_clone_job_is_independent(self, setting):
        """A clone shares the round records, which cannot be assigned
        to, and owns every container: nothing done to it reaches the
        original."""
        graph, engine = setting
        job = engine.run_job(mssp_task(graph, 8.0), [8.0], seed=5)
        payload = pack_job(job)["payload"].tobytes()
        clone = clone_job(job)
        assert dataclasses.asdict(clone) == dataclasses.asdict(job)
        first = clone.batches[0].rounds[0]
        assert first is job.batches[0].rounds[0]
        with pytest.raises(AttributeError):
            first.seconds = -1.0
        assert clone is not job
        assert clone.batches[0] is not job.batches[0]
        assert clone.batches[0].rounds is not job.batches[0].rounds
        clone.batches[0].rounds[0] = first._replace(seconds=-1.0)
        clone.batches[0].rounds.append(first)
        clone.batches[0].fault_log.append("poison")
        clone.batches[0].startup_seconds = -1.0
        clone.batches.append(clone.batches[0])
        clone.extras["poison"] = 1.0
        assert job.batches[0].rounds[0] is first
        assert "poison" not in job.extras
        assert pack_job(job)["payload"].tobytes() == payload

    def test_pack_unpack_round_trip(self, setting):
        graph, engine = setting
        job = engine.run_job(mssp_task(graph, 8.0), [4.0, 4.0], seed=11)
        rebuilt = unpack_job(JOB_SERIALIZER.pack(job))
        assert dataclasses.asdict(rebuilt) == dataclasses.asdict(job)

    def test_run_persists_to_disk(self, setting, tmp_path):
        graph, engine = setting
        cache = get_cache()
        old_dir = cache.directory
        cache.directory = str(tmp_path)
        try:
            task = mssp_task(graph, 8.0)
            first = engine.run_job(task, [8.0], seed=2)
            assert list(tmp_path.glob("run-*.npz"))
            clear_cache()  # drop memory; force the disk path
            second = engine.run_job(task, [8.0], seed=2)
            assert cache.stats.disk_hits >= 1
            assert dataclasses.asdict(second) == dataclasses.asdict(first)
        finally:
            cache.directory = old_dir
