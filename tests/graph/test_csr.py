"""Unit tests for the CSR graph structure."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.build import from_edge_list, from_edges
from repro.graph.csr import Graph


class TestConstruction:
    def test_basic_counts(self, tiny_graph):
        assert tiny_graph.num_vertices == 6
        assert tiny_graph.num_arcs == 7
        assert tiny_graph.num_edges == 7  # directed

    def test_neighbors_sorted_per_vertex(self, tiny_graph):
        assert list(tiny_graph.neighbors(0)) == [1, 2]
        assert list(tiny_graph.neighbors(5)) == [0]
        assert list(tiny_graph.neighbors(1)) == [2]

    def test_out_degree_scalar_and_vector(self, tiny_graph):
        assert tiny_graph.out_degree(0) == 2
        assert tiny_graph.out_degree(3) == 1
        np.testing.assert_array_equal(
            tiny_graph.out_degree(), [2, 1, 1, 1, 1, 1]
        )

    def test_average_degree(self, tiny_graph):
        assert tiny_graph.average_degree == pytest.approx(7 / 6)

    def test_undirected_stores_both_arcs(self):
        g = from_edge_list([(0, 1), (1, 2)], directed=False)
        assert g.num_arcs == 4
        assert g.num_edges == 2
        assert 0 in g.neighbors(1) and 2 in g.neighbors(1)

    def test_empty_graph(self):
        g = from_edges(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            num_vertices=3,
        )
        assert g.num_vertices == 3
        assert g.num_arcs == 0
        assert g.average_degree == 0.0

    def test_arrays_are_read_only(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.indices[0] = 5

    def test_invalid_indptr_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph(np.array([0, 2]), np.array([0], dtype=np.int64))

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph(np.array([0, 1]), np.array([7], dtype=np.int64))
        with pytest.raises(GraphFormatError):
            Graph(np.array([0, 1]), np.array([-1], dtype=np.int64))

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphFormatError):
            from_edge_list([(0, 1, -2.0)])

    def test_num_vertices_too_small_rejected(self):
        with pytest.raises(GraphFormatError):
            from_edge_list([(0, 5)], num_vertices=3)


class TestDerivedViews:
    def test_reverse_roundtrip(self, tiny_graph):
        rev = tiny_graph.reverse()
        assert rev.num_arcs == tiny_graph.num_arcs
        forward = {(s, d) for s, d, _ in tiny_graph.iter_edges()}
        backward = {(d, s) for s, d, _ in rev.iter_edges()}
        assert forward == backward

    def test_reverse_preserves_weights(self, weighted_graph):
        rev = weighted_graph.reverse()
        forward = {(s, d): w for s, d, w in weighted_graph.iter_edges()}
        for s, d, w in rev.iter_edges():
            assert forward[(d, s)] == w

    def test_edge_sources_alignment(self, tiny_graph):
        src = tiny_graph.edge_sources()
        assert src.size == tiny_graph.num_arcs
        rebuilt = {
            (int(s), int(d))
            for s, d in zip(src, tiny_graph.indices)
        }
        direct = {(s, d) for s, d, _ in tiny_graph.iter_edges()}
        assert rebuilt == direct

    def test_transition_rows_sum_to_one(self, tiny_graph):
        indptr, _indices, probs = tiny_graph.transition_matrix_rows()
        for v in range(tiny_graph.num_vertices):
            row = probs[indptr[v] : indptr[v + 1]]
            if row.size:
                assert row.sum() == pytest.approx(1.0)

    def test_transition_dangling_row_empty(self):
        g = from_edge_list([(0, 1)], num_vertices=2)
        indptr, _indices, probs = g.transition_matrix_rows()
        assert indptr[1] == indptr[2]  # vertex 1 dangling

    def test_edge_weights_default_ones(self, tiny_graph):
        np.testing.assert_array_equal(
            tiny_graph.edge_weights(0), [1.0, 1.0]
        )

    def test_equality(self, tiny_graph):
        clone = Graph(
            tiny_graph.indptr.copy(),
            tiny_graph.indices.copy(),
            directed=True,
            name="other-name",
        )
        assert clone == tiny_graph  # name not part of equality

    def test_dedup_keeps_min_weight(self):
        g = from_edge_list(
            [(0, 1, 5.0), (0, 1, 2.0), (0, 1, 9.0)], dedup=True
        )
        assert g.num_arcs == 1
        assert g.edge_weights(0)[0] == 2.0

    def test_drop_self_loops(self):
        g = from_edge_list([(0, 0), (0, 1), (1, 1)], drop_self_loops=True)
        assert g.num_arcs == 1
