"""Tests for the shared-memory graph transport (:mod:`repro.perf.shm`)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.graph.generators import chain, chung_lu
from repro.perf import shm


@pytest.fixture
def registry():
    reg = shm.SharedGraphRegistry()
    yield reg
    reg.shutdown()


def _attachable(reg, graph, key=("dataset", "x", 400, None)):
    handle = reg.export(key, graph)
    if handle is None:
        pytest.skip("shared memory unavailable on this platform")
    return handle


class TestExport:
    def test_roundtrip_is_bit_identical(self, registry):
        graph = chung_lu(300, avg_degree=5.0, seed=3, name="shm-test")
        handle = _attachable(registry, graph)
        attached = registry.attach(handle)
        assert attached is not None
        np.testing.assert_array_equal(attached.indptr, graph.indptr)
        np.testing.assert_array_equal(attached.indices, graph.indices)
        assert attached.directed == graph.directed
        assert attached.name == graph.name
        assert attached.fingerprint == graph.fingerprint
        assert not attached.indptr.flags.writeable

    def test_weighted_graph_roundtrip(self, registry):
        graph = chain(10, weight=2.5)
        handle = _attachable(registry, graph)
        attached = registry.attach(handle)
        np.testing.assert_array_equal(attached.weights, graph.weights)

    def test_same_fingerprint_ships_once(self, registry):
        graph = chain(50)
        first = _attachable(registry, graph, key=("dataset", "a", 1, None))
        second = registry.export(("dataset", "b", 1, None), graph)
        assert second is first
        assert registry.counters["exported_graphs"] == 1
        assert registry.counters["export_reuses"] == 1

    def test_handle_is_picklable(self, registry):
        handle = _attachable(registry, chain(20))
        clone = pickle.loads(pickle.dumps(handle))
        assert clone == handle


class TestAttach:
    def test_attach_caches_per_fingerprint(self, registry):
        handle = _attachable(registry, chain(40))
        first = registry.attach(handle)
        second = registry.attach(handle)
        assert second is first
        assert registry.counters["attaches"] == 1
        assert registry.counters["attach_reuses"] == 1

    def test_lookup_miss_returns_none(self, registry):
        assert registry.lookup(("dataset", "nope", 1, None)) is None

    def test_install_then_lookup(self, registry):
        key = ("dataset", "c", 1, None)
        graph = chain(30)
        _attachable(registry, graph, key=key)
        worker = shm.SharedGraphRegistry()
        worker.install(registry.handle_table())
        attached = worker.lookup(key)
        assert attached is not None
        np.testing.assert_array_equal(attached.indices, graph.indices)


class TestModuleSingleton:
    def test_lookup_shared_fast_path_without_table(self):
        # No table installed -> one dict probe, no graph.
        assert shm.lookup_shared(("dataset", "dblp", 400, None)) is None

    def test_load_dataset_prefers_installed_table(self):
        from repro.graph.datasets import load_dataset

        graph = load_dataset("dblp", scale=4000)
        key = ("dataset", "dblp", 4000, None)
        registry = shm.get_registry()
        if registry.export(key, graph) is None:
            pytest.skip("shared memory unavailable on this platform")
        try:
            shared = load_dataset("dblp", scale=4000)
            assert shared.fingerprint == graph.fingerprint
            assert shm.shm_stats()["attaches"] >= 1
        finally:
            registry.shutdown()
            registry.counters.update(
                {key: 0 for key in registry.counters}
            )
            registry._attached.clear()

    def test_merge_counters_ignores_unknown_keys(self):
        registry = shm.get_registry()
        before = shm.shm_stats()
        shm.merge_counters({"attaches": 2, "bogus": 99})
        after = shm.shm_stats()
        assert after["attaches"] == before["attaches"] + 2
        assert "bogus" not in after
        registry.counters["attaches"] = before["attaches"]


class TestHugePages:
    """Segments of at least HUGE_PAGE_THRESHOLD_BYTES get
    madvise(MADV_HUGEPAGE); smaller ones stay on base pages."""

    @pytest.fixture(autouse=True)
    def _fresh_state(self, monkeypatch):
        monkeypatch.setattr(shm, "_WARNED", set())

    def _export_advised(self, registry, graph):
        """Export ``graph``; the handle and whether its segment was
        advised (None when the kernel refused the advice)."""
        import mmap
        import warnings as _warnings

        if not hasattr(mmap, "MADV_HUGEPAGE"):
            pytest.skip("mmap.MADV_HUGEPAGE unavailable on this platform")
        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            handle = _attachable(registry, graph)
        if caught:  # kernel refused (e.g. THP disabled): clean fallback
            assert registry.counters["huge_page_segments"] == 0
            assert "huge" in str(caught[0].message).lower()
            return handle, None
        return handle, registry.counters["huge_page_segments"] == 1

    def test_bar_is_4_mib(self):
        assert shm.HUGE_PAGE_THRESHOLD_BYTES == 4 << 20

    def test_small_segment_stays_on_base_pages(self, registry):
        _attachable(registry, chain(50))
        assert registry.counters["huge_page_segments"] == 0
        assert registry.counters["huge_page_bytes"] == 0

    def test_large_segment_is_advised(self, registry, monkeypatch):
        monkeypatch.setattr(shm, "HUGE_PAGE_THRESHOLD_BYTES", 256)
        graph = chung_lu(300, avg_degree=5.0, seed=3, name="hp-large")
        handle, advised = self._export_advised(registry, graph)
        if advised is not None:
            assert advised
            assert registry.counters["huge_page_bytes"] == handle.nbytes

    def test_segment_at_the_bar_is_advised(self, registry):
        # indptr + indices of a directed chain(n): (n + 1) + (n - 1)
        # int64s = 16 n bytes, so n = 256 Ki lands exactly on the bar.
        graph = chain(shm.HUGE_PAGE_THRESHOLD_BYTES // 16, directed=True)
        handle, advised = self._export_advised(registry, graph)
        assert handle.nbytes == shm.HUGE_PAGE_THRESHOLD_BYTES
        if advised is not None:
            assert advised

    def test_segment_one_byte_under_the_bar_is_not(
        self, registry, monkeypatch
    ):
        graph = chain(50)
        nbytes = (graph.indptr.size + graph.indices.size) * 8
        monkeypatch.setattr(shm, "HUGE_PAGE_THRESHOLD_BYTES", nbytes + 1)
        _attachable(registry, graph)
        assert registry.counters["huge_page_segments"] == 0

    def test_unsupported_platform_warns_once(self, registry, monkeypatch):
        import mmap
        import warnings as _warnings

        monkeypatch.delattr(mmap, "MADV_HUGEPAGE", raising=False)
        monkeypatch.setattr(shm, "HUGE_PAGE_THRESHOLD_BYTES", 256)
        first = chung_lu(300, avg_degree=5.0, seed=3, name="hp-warn-a")
        with pytest.warns(RuntimeWarning, match="huge pages"):
            _attachable(registry, first, key=("dataset", "wa", 1, None))
        second = chung_lu(280, avg_degree=5.0, seed=4, name="hp-warn-b")
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")  # a second warning would raise
            registry.export(("dataset", "wb", 1, None), second)
        assert registry.counters["huge_page_segments"] == 0
        assert registry.counters["huge_page_bytes"] == 0
