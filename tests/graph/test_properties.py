"""Property-based tests (hypothesis) for graph invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.build import from_edges
from repro.graph.mirrors import build_mirror_plan
from repro.graph.partition import edge_partition, hash_partition


@st.composite
def edge_arrays(draw, max_vertices=40, max_edges=150):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=m,
            max_size=m,
        )
    )
    dst = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=m,
            max_size=m,
        )
    )
    return n, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)


@given(edge_arrays())
@settings(max_examples=60, deadline=None)
def test_csr_preserves_multiset_of_edges(data):
    n, src, dst = data
    g = from_edges(src, dst, num_vertices=n)
    rebuilt = sorted((int(s), int(d)) for s, d in g.iter_edges())
    original = sorted(zip(src.tolist(), dst.tolist()))
    assert rebuilt == original


@given(edge_arrays())
@settings(max_examples=60, deadline=None)
def test_degrees_sum_to_arc_count(data):
    n, src, dst = data
    g = from_edges(src, dst, num_vertices=n)
    assert int(g.out_degree().sum()) == g.num_arcs


@given(edge_arrays())
@settings(max_examples=60, deadline=None)
def test_reverse_is_involution(data):
    n, src, dst = data
    g = from_edges(src, dst, num_vertices=n)
    assert g.reverse().reverse() == g


@given(edge_arrays(), st.integers(min_value=1, max_value=9))
@settings(max_examples=60, deadline=None)
def test_hash_partition_invariants(data, machines):
    n, src, dst = data
    g = from_edges(src, dst, num_vertices=n)
    part = hash_partition(g, machines)
    part.validate(g)
    assert part.cut_arcs <= g.num_arcs
    assert 0.0 <= part.cut_fraction <= 1.0


@given(edge_arrays(), st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_edge_partition_replication_bounds(data, machines):
    n, src, dst = data
    g = from_edges(src, dst, num_vertices=n)
    part = edge_partition(g, machines)
    assert 1.0 <= part.replication_factor <= machines


@given(edge_arrays(), st.integers(min_value=2, max_value=8))
@settings(max_examples=40, deadline=None)
def test_mirror_plan_consistency(data, machines):
    n, src, dst = data
    g = from_edges(src, dst, num_vertices=n)
    part = hash_partition(g, machines)
    plan = build_mirror_plan(g, part, degree_threshold=3)
    degrees = np.diff(g.indptr)
    assert (plan.remote_neighbors + plan.local_neighbors == degrees).all()
    assert (plan.remote_machines <= np.minimum(degrees, machines - 1)).all()
    # Broadcast with mirrors never costs more than without.
    assert (
        plan.broadcast_network_messages() <= plan.remote_neighbors
    ).all()
