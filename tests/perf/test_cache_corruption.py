"""On-disk cache hardening: checksums, quarantine, transparent rebuild.

Two stores, one contract — a damaged artifact is moved aside as
``*.corrupt``, counted, and rebuilt, never served: the ``.npz`` archives
of array artifacts carry a checksum of their own; a graph's ``.csr``
directory is checked against the content fingerprint in its sidecar.
"""

import glob
import os

import numpy as np
import pytest

from repro.graph.datasets import PAPER_DATASETS, load_dataset
from repro.perf import cache as cache_module
from repro.perf.cache import ArtifactCache, ArraySerializer, CHECKSUM_KEY

SERIALIZER = ArraySerializer(
    pack=lambda v: {"data": np.asarray(v)},
    unpack=lambda arrays: arrays["data"].copy(),
)

KEY = ("artifact", 1)


def _build_counted(calls):
    def build():
        calls.append(1)
        return np.arange(128, dtype=np.int64)

    return build


def _artifact_path(directory):
    paths = glob.glob(os.path.join(directory, "*.npz"))
    assert len(paths) == 1
    return paths[0]


class TestCorruptionRecovery:
    def test_truncated_artifact_quarantined_and_recomputed(self, tmp_path):
        calls = []
        build = _build_counted(calls)
        first = ArtifactCache(directory=str(tmp_path))
        value = first.get_or_build(KEY, build, serializer=SERIALIZER)
        path = _artifact_path(str(tmp_path))

        with open(path, "rb") as fh:
            payload = fh.read()
        with open(path, "wb") as fh:
            fh.write(payload[: len(payload) // 2])

        fresh = ArtifactCache(directory=str(tmp_path))
        rebuilt = fresh.get_or_build(KEY, build, serializer=SERIALIZER)
        assert np.array_equal(value, rebuilt)
        assert len(calls) == 2  # recomputed, not raised
        assert fresh.stats.corruptions == 1
        assert os.path.exists(path + ".corrupt")
        assert os.path.exists(path)  # fresh copy re-persisted

    def test_garbled_bytes_detected_by_checksum_or_zip(self, tmp_path):
        calls = []
        build = _build_counted(calls)
        first = ArtifactCache(directory=str(tmp_path))
        value = first.get_or_build(KEY, build, serializer=SERIALIZER)
        path = _artifact_path(str(tmp_path))

        payload = bytearray(open(path, "rb").read())
        for offset in range(64, 96):
            payload[offset] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(payload))

        fresh = ArtifactCache(directory=str(tmp_path))
        rebuilt = fresh.get_or_build(KEY, build, serializer=SERIALIZER)
        assert np.array_equal(value, rebuilt)
        assert fresh.stats.corruptions == 1

    def test_legacy_artifact_without_checksum_accepted(self, tmp_path):
        calls = []
        build = _build_counted(calls)
        first = ArtifactCache(directory=str(tmp_path))
        first.get_or_build(KEY, build, serializer=SERIALIZER)
        path = _artifact_path(str(tmp_path))
        np.savez_compressed(path, data=np.arange(128, dtype=np.int64))

        fresh = ArtifactCache(directory=str(tmp_path))
        value = fresh.get_or_build(KEY, build, serializer=SERIALIZER)
        assert np.array_equal(value, np.arange(128))
        assert fresh.stats.corruptions == 0
        assert fresh.stats.disk_hits == 1
        assert len(calls) == 1  # the legacy file was trusted

    def test_stored_artifacts_carry_checksum(self, tmp_path):
        cache = ArtifactCache(directory=str(tmp_path))
        cache.get_or_build(KEY, lambda: np.ones(8), serializer=SERIALIZER)
        with np.load(_artifact_path(str(tmp_path))) as data:
            assert CHECKSUM_KEY in data.files

    def test_failed_write_leaves_no_torn_tmp_file(self, tmp_path, monkeypatch):
        """A store that fails after its tmp file is open (ENOSPC, EIO)
        stays best-effort — the value is returned — and cleans up."""

        def torn_write(fh, arrays):
            fh.write(b"PK\x03\x04 half an archive")
            raise OSError(28, "No space left on device")

        calls = []
        build = _build_counted(calls)
        cache = ArtifactCache(directory=str(tmp_path))
        with monkeypatch.context() as patch:
            patch.setattr(
                ArtifactCache, "_write_npz", staticmethod(torn_write)
            )
            value = cache.get_or_build(
                KEY, build, serializer=SERIALIZER, use_memory=False
            )
        assert np.array_equal(value, np.arange(128))
        assert os.listdir(tmp_path) == []  # no *.tmp-*, no artifact

        again = cache.get_or_build(
            KEY, build, serializer=SERIALIZER, use_memory=False
        )
        assert np.array_equal(again, value)
        assert len(calls) == 2  # nothing was stored, so it rebuilt
        assert os.listdir(tmp_path) == [
            os.path.basename(_artifact_path(str(tmp_path)))
        ]

    def test_stats_round_trip_corruptions(self):
        cache = ArtifactCache()
        cache.stats.corruptions = 3
        snapshot = cache.stats.to_dict()
        assert snapshot["corruptions"] == 3
        other = ArtifactCache()
        other.stats.merge(snapshot)
        assert other.stats.corruptions == 3


class TestGraphDirectoryRecovery:
    """The graph cases, on the one format graphs are stored in."""

    @pytest.fixture()
    def cached(self, tmp_path, monkeypatch):
        """``(graph, directory, load)``: dblp@400 built in RAM, the CSR
        directory a first ``load()`` stored it in, and ``load()`` itself
        — ``load_dataset`` through a fresh process-wide cache over that
        one cache directory, returning the graph and the cache's stats.
        (Damage done to the files shows through a graph mapped from
        them, so the resident twin is what results are compared to.)"""

        def load():
            cache = ArtifactCache(directory=str(tmp_path))
            monkeypatch.setattr(cache_module, "_GLOBAL", cache)
            return load_dataset("dblp", scale=400), cache.stats

        first, stats = load()
        assert (stats.misses, stats.disk_hits, stats.corruptions) == (1, 0, 0)
        graph = PAPER_DATASETS["dblp"].instantiate(scale=400)
        assert first == graph and first.fingerprint == graph.fingerprint
        return graph, first.directory, load

    @staticmethod
    def assert_rebuilt(graph, directory, load, corruptions):
        rebuilt, stats = load()
        assert rebuilt == graph
        assert rebuilt.fingerprint == graph.fingerprint
        assert rebuilt.directory == directory
        assert (stats.misses, stats.disk_hits) == (1, 0)  # not served
        assert stats.corruptions == corruptions
        assert os.path.isdir(directory + ".corrupt") == bool(corruptions)
        warm, stats = load()  # the fresh copy was persisted again
        assert warm == graph and stats.disk_hits == 1

    def test_clean_directory_is_a_disk_hit(self, cached):
        graph, _, load = cached
        warm, stats = load()
        assert warm == graph
        assert (stats.misses, stats.disk_hits, stats.corruptions) == (0, 1, 0)

    def test_one_flipped_byte_in_indices(self, cached):
        graph, directory, load = cached
        path = os.path.join(directory, "indices.npy")
        # Low byte of the last neighbour id: still a vertex of the graph,
        # every size as promised — only the content hash can tell.
        with open(path, "r+b") as fh:
            fh.seek(-8, os.SEEK_END)
            byte = fh.read(1)[0]
            fh.seek(-8, os.SEEK_END)
            fh.write(bytes([byte ^ 0x01]))
        flipped = int(np.load(path)[-1])
        assert 0 <= flipped < graph.num_vertices
        assert flipped != int(graph.indices[-1])
        self.assert_rebuilt(graph, directory, load, corruptions=1)

    def test_truncated_indptr(self, cached):
        graph, directory, load = cached
        path = os.path.join(directory, "indptr.npy")
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) // 2)
        self.assert_rebuilt(graph, directory, load, corruptions=1)

    def test_missing_sidecar(self, cached):
        # The sidecar is written last, so its absence is a build that
        # never committed: nothing to preserve, rebuilt in place
        # (``tests/graph/test_quarantine.py`` says why it is not counted).
        graph, directory, load = cached
        os.unlink(os.path.join(directory, "graph.json"))
        self.assert_rebuilt(graph, directory, load, corruptions=0)
