"""Unit tests for the CSR graph structure."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.build import from_edge_list, from_edges
from repro.graph.csr import Graph, propagate_mass


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

    def test_num_vertices_too_small_rejected(self):
        with pytest.raises(GraphFormatError):
            from_edge_list([(0, 5)], num_vertices=3)


class TestNoEdgeWeights:
    """A graph is ``indptr`` + ``indices`` + direction: a weight array
    where one used to be accepted fails loudly instead of being read
    as the next parameter."""

    def test_positional_weights_to_graph_raise(self):
        with pytest.raises(TypeError):
            Graph(np.array([0, 1]), np.array([0], dtype=np.int64), None)

    def test_positional_weights_to_from_edges_raise(self):
        src, dst = np.array([0, 1]), np.array([1, 2])
        with pytest.raises(TypeError):
            from_edges(src, dst, np.array([1.0, 2.0]))
        with pytest.raises(TypeError):
            from_edges(src, dst, 3)  # no longer ``num_vertices`` either

    def test_weighted_triples_rejected(self):
        with pytest.raises(GraphFormatError, match="pairs"):
            from_edge_list([(0, 1, 2.0), (1, 2, 1.0)])
        with pytest.raises(GraphFormatError, match="pairs"):
            from_edge_list([(0, 1), (1, 2, 1.0)])


class TestDerivedViews:
    def test_reverse_roundtrip(self, tiny_graph):
        rev = tiny_graph.reverse()
        assert rev.num_arcs == tiny_graph.num_arcs
        forward = set(tiny_graph.iter_edges())
        backward = {(d, s) for s, d in rev.iter_edges()}
        assert forward == backward

    def test_edge_sources_alignment(self, tiny_graph):
        src = tiny_graph.edge_sources()
        assert src.size == tiny_graph.num_arcs
        rebuilt = {
            (int(s), int(d))
            for s, d in zip(src, tiny_graph.indices)
        }
        direct = set(tiny_graph.iter_edges())
        assert rebuilt == direct

    def test_transition_rows_sum_to_one(self, tiny_graph):
        """A unit of walk mass split over ``u``'s out-arcs arrives whole:
        the random-walk transition is ``propagate_mass`` of ``1/deg``."""
        for v in range(tiny_graph.num_vertices):
            unit = np.zeros(tiny_graph.num_vertices)
            unit[v] = 1.0 / tiny_graph.out_degree(v)
            arrived = propagate_mass(tiny_graph, unit)
            assert arrived.sum() == pytest.approx(1.0)
            assert set(np.flatnonzero(arrived)) == set(tiny_graph.neighbors(v))

    def test_transition_dangling_row_empty(self):
        g = from_edge_list([(0, 1)], num_vertices=2)
        # Vertex 1 is dangling: mass there moves nowhere.
        assert propagate_mass(g, np.array([0.0, 1.0])).tolist() == [0.0, 0.0]
        assert propagate_mass(g, np.array([1.0, 0.0])).tolist() == [0.0, 1.0]

    def test_equality(self, tiny_graph):
        clone = Graph(
            tiny_graph.indptr.copy(),
            tiny_graph.indices.copy(),
            directed=True,
            name="other-name",
        )
        assert clone == tiny_graph  # name not part of equality

    def test_drop_self_loops(self):
        g = from_edge_list([(0, 0), (0, 1), (1, 1)], drop_self_loops=True)
        assert g.num_arcs == 1
