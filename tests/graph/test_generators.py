"""Tests for synthetic graph generators and dataset profiles."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graph.datasets import (
    DatasetProfile,
    PAPER_DATASETS,
    clear_dataset_cache,
    load_dataset,
)
from repro.graph.generators import (
    chain,
    chung_lu,
    complete,
    erdos_renyi,
    grid_2d,
    star,
)
from repro.graph.stats import compute_stats, degree_gini


class TestDeterministicGenerators:
    def test_chain_structure(self):
        g = chain(5, directed=True)
        assert g.num_vertices == 5
        assert g.num_arcs == 4
        assert list(g.neighbors(0)) == [1]
        assert list(g.neighbors(4)) == []

    def test_chain_undirected(self):
        g = chain(5, directed=False)
        assert g.num_arcs == 8
        assert set(g.neighbors(2)) == {1, 3}

    def test_chain_weighted(self):
        g = chain(4, directed=True, weight=2.5)
        assert g.is_weighted
        assert g.edge_weights(0)[0] == 2.5

    def test_star_degrees(self):
        g = star(10, directed=False)
        assert g.out_degree(0) == 9
        assert all(g.out_degree(v) == 1 for v in range(1, 10))

    def test_complete_graph(self):
        g = complete(5)
        assert g.num_arcs == 20
        assert all(g.out_degree(v) == 4 for v in range(5))

    def test_grid_corner_degrees(self):
        g = grid_2d(3, 4, directed=False)
        assert g.num_vertices == 12
        assert g.out_degree(0) == 2  # corner
        assert g.out_degree(5) == 4  # interior

    @pytest.mark.parametrize("bad", [0, -3])
    def test_invalid_sizes_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            chain(bad)
        with pytest.raises(ConfigurationError):
            grid_2d(bad, 3)


class TestRandomGenerators:
    def test_erdos_renyi_size_and_degree(self):
        g = erdos_renyi(500, avg_degree=8.0, seed=3)
        assert g.num_vertices == 500
        # Dedup removes a few arcs; mean degree stays in range.
        assert 6.0 < g.average_degree <= 8.0

    def test_erdos_renyi_deterministic_per_seed(self):
        a = erdos_renyi(100, 5.0, seed=42)
        b = erdos_renyi(100, 5.0, seed=42)
        assert a == b

    def test_erdos_renyi_seed_changes_graph(self):
        a = erdos_renyi(100, 5.0, seed=1)
        b = erdos_renyi(100, 5.0, seed=2)
        assert a != b

    def test_chung_lu_degree_skew(self):
        uniform = erdos_renyi(800, 10.0, seed=5)
        skewed = chung_lu(800, 10.0, exponent=2.0, seed=5)
        assert degree_gini(np.diff(skewed.indptr)) > degree_gini(
            np.diff(uniform.indptr)
        )

    def test_chung_lu_no_self_loops(self):
        g = chung_lu(200, 6.0, seed=9)
        for s, d, _ in g.iter_edges():
            assert s != d

    def test_chung_lu_avg_degree_close(self):
        g = chung_lu(1000, avg_degree=8.0, seed=13)
        assert 5.5 <= g.average_degree <= 9.5

    def test_bad_exponent_rejected(self):
        with pytest.raises(ConfigurationError):
            chung_lu(100, 5.0, exponent=0.9)


class TestDatasets:
    def test_profiles_match_table1(self):
        dblp = PAPER_DATASETS["dblp"]
        assert dblp.num_nodes == 613_600
        assert dblp.avg_degree == 6.5
        twitter = PAPER_DATASETS["twitter"]
        assert twitter.num_edges == 1_500_000_000

    def test_all_six_datasets_present(self):
        assert set(PAPER_DATASETS) == {
            "web-st",
            "dblp",
            "livejournal",
            "orkut",
            "twitter",
            "friendster",
        }

    def test_scaled_nodes(self):
        profile = PAPER_DATASETS["dblp"]
        assert profile.scaled_nodes(400) == round(613_600 / 400)
        assert profile.scaled_nodes(10**9) == 64  # floor

    def test_load_dataset_case_insensitive(self):
        from repro.perf.cache import get_cache

        cache = get_cache()
        saved = cache.capacity
        cache.capacity = max(saved, 8)  # memoisation needs a live LRU
        try:
            g1 = load_dataset("DBLP")
            g2 = load_dataset("dblp")
            assert g1 is g2  # memoised
        finally:
            cache.capacity = saved

    def test_load_dataset_deterministic_across_calls(self):
        clear_dataset_cache()
        a = load_dataset("web-st", cache=False)
        b = load_dataset("web-st", cache=False)
        assert a == b

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            load_dataset("imaginary-graph")

    def test_scaled_instance_statistics(self):
        g = load_dataset("dblp", scale=400)
        profile = PAPER_DATASETS["dblp"]
        assert g.num_vertices == profile.scaled_nodes(400)
        # Table 1's d_avg counts each undirected edge once, so the mean
        # out-degree of the symmetrised stand-in is ~2x that figure.
        expected = profile.avg_degree * (1 if profile.directed else 2)
        assert abs(g.average_degree - expected) < 0.4 * expected

    def test_custom_profile(self):
        profile = DatasetProfile(
            name="toy",
            num_nodes=10_000,
            num_edges=50_000,
            avg_degree=5.0,
            source="test",
        )
        g = profile.instantiate(scale=10, seed=1)
        assert g.num_vertices == 1000


class TestStats:
    def test_gini_uniform_is_zero(self):
        assert degree_gini(np.full(50, 7)) == pytest.approx(0.0, abs=1e-9)

    def test_gini_extreme_skew(self):
        degrees = np.zeros(100)
        degrees[0] = 1000
        assert degree_gini(degrees) > 0.9

    def test_compute_stats_fields(self, star_graph):
        stats = compute_stats(star_graph)
        assert stats.max_degree == 11
        assert stats.num_vertices == 12
        assert stats.isolated_vertices == 0
        row = stats.as_row()
        assert row["d_max"] == 11


class TestDiskCache:
    def test_npz_round_trip_via_cache_dir(self, tmp_path):
        """(Named for the archive graphs were first cached in; the one
        on-disk graph format is the CSR directory now.)"""
        from repro.graph.datasets import clear_dataset_cache

        clear_dataset_cache()
        first = load_dataset(
            "web-st", scale=2000, cache=False, cache_dir=str(tmp_path)
        )
        assert [path.suffix for path in tmp_path.iterdir()] == [".csr"]
        assert first.directory == str(next(tmp_path.glob("web-st-*.csr")))
        clear_dataset_cache()
        second = load_dataset(
            "web-st", scale=2000, cache=False, cache_dir=str(tmp_path)
        )
        assert first == second
