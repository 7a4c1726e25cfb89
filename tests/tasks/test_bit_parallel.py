"""Differential tests of the bit-parallel unweighted rounds
(``repro.tasks.base.BitFrontier``) against a reference that knows
nothing about bitsets: one source at a time, one dense row per source.

The reference relaxes synchronously, so on an unweighted graph its
rounds are the BFS level sets and on a weighted one the hop-limited
Bellman-Ford tables — weighted MSSP, which keeps the per-cell min-fold,
rides along as the control. Every ``RoundSummary`` field, the frontier
and ``residual_bytes()`` are compared round by round, final results
against ``tasks/exact.py``, on every block plan and on both sides of
the 64-source word boundary.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.build import from_edge_list, from_edges
from repro.rng import make_rng
from repro.tasks import base as tasks_base
from repro.tasks import bkhs as bkhs_mod
from repro.tasks import mssp as mssp_mod
from repro.tasks.base import RoundSummary
from repro.tasks.bkhs import BKHSKernel
from repro.tasks.exact import k_hop_set, shortest_path_distances
from repro.tasks.mssp import MSSPKernel

from tests.tasks.test_mssp_bkhs import PLANS, ForcedPlan, router_for

#: one source, and both sides of the one- and two-word boundaries
SOURCE_COUNTS = (1, 63, 64, 65, 130)


def reference_rounds(graph, sources):
    """Per-source synchronous relaxation. Yields, for round 1, 2, ...:
    ``(sent, table, improved)`` — the ``sources x n`` boolean frontier
    the round sends from, the distance table after it, and the cells it
    improved (the next round's ``sent``)."""
    tails, heads = graph.edge_sources(), graph.indices
    lengths = np.ones(heads.size) if graph.weights is None else graph.weights
    table = np.full((sources.size, graph.num_vertices), np.inf)
    table[np.arange(sources.size), sources] = 0.0
    sent = np.isfinite(table)
    while True:
        relaxed = table.copy()
        for row in range(sources.size):
            live = sent[row, tails]
            np.minimum.at(
                relaxed[row],
                heads[live],
                table[row, tails[live]] + lengths[live],
            )
        improved = relaxed < table
        yield sent, relaxed, improved
        table, sent = relaxed, improved


def sends(graph, sent):
    """Distinct sending vertices of a ``sources x n`` frontier, how
    many sources each sends for, and whether any has an out-arc."""
    updates = sent.sum(axis=0)
    active = np.flatnonzero(updates)
    return active, updates[active], bool(graph.degrees[active].sum())


def summary_of(kernel, active, updates, state_bytes, done):
    """The ``RoundSummary`` of a round in which ``active[i]`` sent for
    ``updates[i]`` sources (unsampled batch: scale 1)."""
    point = (updates * kernel.graph.degrees[active]).astype(np.float64)
    routed = kernel.router.route(active, point)
    return RoundSummary(
        routed=routed,
        compute_ops=routed.delivered_messages + active.size,
        task_state_bytes=state_bytes,
        active_vertices=float(active.size),
        done=done,
        combined_messages=routed.wire_messages,
    )


def check_mssp(kernel, max_rounds):
    """Step a started MSSP kernel to its end against the reference;
    returns the reference table of the last round."""
    graph = kernel.graph
    nobody = np.empty(0, dtype=np.int64)
    for sent, table, improved in reference_rounds(graph, kernel._sources):
        active, updates, has_arcs = sends(graph, sent)
        reached = float(np.isfinite(table).sum())
        if has_arcs:
            in_flight = float(improved.sum())
            done = not improved.any() or kernel.round_index + 1 >= max_rounds
        else:
            # The silent terminating round: nothing is sent, and the
            # frontier that could not expand is still held.
            active, updates = nobody, nobody
            in_flight, done = float(sent.sum()), True
        state = (reached + in_flight) * mssp_mod.FRONTIER_ENTRY_BYTES
        assert kernel.step() == summary_of(
            kernel, active, updates, state, done
        )
        assert (
            kernel.residual_bytes() == reached * mssp_mod.RESIDUAL_RECORD_BYTES
        )
        np.testing.assert_array_equal(kernel.reached_table(), table)
        if has_arcs:
            np.testing.assert_array_equal(
                kernel.frontier_keys(), np.flatnonzero(improved)
            )
        if done:
            assert kernel.finished
            return table


def check_bkhs(kernel):
    """Step a started BKHS kernel through its ``k + 1`` rounds against
    the reference (``k`` may exceed the diameter: the late rounds send
    from an empty frontier)."""
    graph, size = kernel.graph, kernel._sources.size
    residual = size * bkhs_mod.RESIDUAL_RECORD_BYTES
    rounds = reference_rounds(graph, kernel._sources)
    for _ in range(kernel.k):
        sent, table, improved = next(rounds)
        active, updates, _ = sends(graph, sent)
        state = float(np.isfinite(table).sum()) * bkhs_mod.VISITED_ENTRY_BYTES
        assert kernel.step() == summary_of(
            kernel, active, updates, state, False
        )
        assert kernel.residual_bytes() == residual
        np.testing.assert_array_equal(
            kernel.reached_table(), np.isfinite(table)
        )
        np.testing.assert_array_equal(
            kernel.frontier_keys(), np.flatnonzero(improved)
        )
    nobody = np.empty(0, dtype=np.int64)
    assert kernel.step() == RoundSummary(
        routed=kernel.router.route(nobody, nobody),
        compute_ops=float(graph.num_vertices),
        task_state_bytes=state,
        active_vertices=0.0,
        done=True,
    )
    assert kernel.finished and kernel.residual_bytes() == residual


@st.composite
def batches(draw):
    """A small random digraph — self-loops and parallel arcs kept,
    about a quarter of the vertices without an out-arc, sparse enough
    to leave vertices unreachable — and a batch on it."""
    sources = draw(st.sampled_from(SOURCE_COUNTS))
    n = sources + draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = np.random.default_rng(seed)
    arcs = draw(st.integers(min_value=0, max_value=3 * n))
    tails = rng.permutation(n)[: max(1, 3 * n // 4)]
    src = rng.choice(tails, size=arcs)
    dst = rng.integers(0, n, size=arcs)
    task = draw(st.sampled_from(["mssp", "mssp-weighted", "bkhs"]))
    weights = rng.integers(1, 5, size=arcs) * 0.5 if "weighted" in task else None
    graph = from_edges(src, dst, weights, num_vertices=n)
    # MSSP: sometimes stop mid-flight; BKHS: sometimes past the diameter.
    limit = draw(st.integers(min_value=1, max_value=12))
    return graph, task, sources, seed, limit, draw(st.sampled_from(PLANS))


@given(batches())
@settings(max_examples=120, deadline=None)
def test_rounds_match_the_per_source_reference(batch):
    graph, task, sources, seed, limit, plan_name = batch
    with tempfile.TemporaryDirectory() as scratch:
        with ForcedPlan(plan_name, scratch) as plan:
            seen = plan.graph(graph)
            router = router_for(seen, 3)
            if task == "bkhs":
                kernel = BKHSKernel(
                    seen, router, make_rng(seed), k=limit, sample_limit=None
                )
                kernel.start_batch(sources)
                check_bkhs(kernel)
                for source, mask in kernel.reachable_sets().items():
                    truth = k_hop_set(graph, source, limit)
                    np.testing.assert_array_equal(mask, truth)
                    assert kernel.result[source] == int(truth.sum())
            else:
                kernel = MSSPKernel(
                    seen, router, make_rng(seed), sample_limit=None,
                    max_rounds=limit,
                )
                kernel.start_batch(sources)
                table = check_mssp(kernel, limit)
                if kernel.round_index < limit:  # ran to its fixed point
                    for row, source in enumerate(kernel._sources):
                        np.testing.assert_array_equal(
                            table[row], shortest_path_distances(graph, source)
                        )
                for row, source in enumerate(kernel._sources):
                    np.testing.assert_array_equal(
                        kernel.result[int(source)], table[row]
                    )
            assert kernel._sources.size == sources
            del kernel, router, seen  # unmap before the directory goes


@pytest.mark.parametrize(
    "make",
    [MSSPKernel, lambda *args: BKHSKernel(*args, k=3)],
    ids=["mssp", "bkhs"],
)
def test_a_round_expands_the_union_frontier_once(make, monkeypatch):
    """Sources 0 and 1 both reach hub 2 in round 1; in round 2 the
    hub's five arcs are expanded once, not once per source."""
    graph = from_edge_list(
        [(0, 2), (1, 2)] + [(2, leaf) for leaf in range(3, 8)],
        num_vertices=8,
    )
    expanded = []
    expand = tasks_base.expand_frontier

    def counting(*args, **kwargs):
        result = expand(*args, **kwargs)
        expanded.append(int(result[0].size))
        return result

    monkeypatch.setattr(tasks_base, "expand_frontier", counting)

    class FirstTwo:
        """Stands in for the batch RNG: sources 0 and 1."""

        def choice(self, n, size, replace):
            return np.arange(size)

    kernel = make(graph, router_for(graph, 2), FirstTwo())
    kernel.start_batch(2)
    for _ in range(3):
        kernel.step()
    assert kernel.frontier_keys().size == 0  # the leaves go nowhere
    assert expanded == [2, 5, 0]
