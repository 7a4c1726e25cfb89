"""Differential tests of the bit-parallel unweighted rounds
(``repro.tasks.base.BitFrontier``) against a reference that knows
nothing about bitsets: one source at a time, one dense row per source.

The reference relaxes synchronously, so its rounds are the BFS level
sets. Every ``RoundSummary`` field, the frontier and
``residual_bytes()`` are compared round by round, final results
against ``tasks/exact.py``, on every block plan, in both forced
directions of the round (push along ``A``, pull along ``A^T``) and on
both sides of the 64-source word boundary.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.build import from_edge_list, from_edges
from repro.graph.csr import iter_row_blocks, streaming_block_arcs
from repro.graph.generators import chung_lu
from repro.rng import make_rng
from repro.tasks import base as tasks_base
from repro.tasks import bkhs as bkhs_mod
from repro.tasks import mssp as mssp_mod
from repro.tasks.base import RoundSummary
from repro.tasks.bkhs import BKHSKernel
from repro.tasks.exact import k_hop_set, shortest_path_distances
from repro.tasks.mssp import MSSPKernel

from tests.tasks.test_mssp_bkhs import (
    DIRECTED_PLANS,
    PLANS,
    ForcedPlan,
    router_for,
)

#: one source, and both sides of the one- and two-word boundaries
SOURCE_COUNTS = (1, 63, 64, 65, 130)


def reference_rounds(graph, sources):
    """Per-source synchronous relaxation. Yields, for round 1, 2, ...:
    ``(sent, table, improved)`` — the ``sources x n`` boolean frontier
    the round sends from, the distance table after it, and the cells it
    improved (the next round's ``sent``)."""
    tails, heads = graph.edge_sources(), graph.indices
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
                table[row, tails[live]] + 1.0,
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
    task = draw(st.sampled_from(["mssp", "bkhs"]))
    graph = from_edges(src, dst, num_vertices=n)
    # MSSP: sometimes stop mid-flight; BKHS: sometimes past the diameter.
    limit = draw(st.integers(min_value=1, max_value=12))
    # Each plan in both forced directions, and as the round itself
    # would choose.
    plans = DIRECTED_PLANS + tuple((name, None) for name in PLANS)
    return graph, task, sources, seed, limit, draw(st.sampled_from(plans))


def check_batch(graph, task, sources, seed, limit, plan_name, direction):
    """One batch of ``sources`` unit tasks on the named block plan and
    forced direction, every round against the per-source reference and
    the end against ``tasks/exact.py``; returns the plan's record."""
    with tempfile.TemporaryDirectory() as scratch:
        with ForcedPlan(plan_name, scratch, direction) as plan:
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
            assert plan.forced()
            # Over the budget (this plan's: more than one arc), edges
            # stay on disk, A^T's too: built when a round first pulls,
            # as maps of files, never as arrays in RAM.
            if streaming_block_arcs(seen) is not None:
                assert plan_name == "mapped"
                assert (seen._transpose is None) == (plan.pulls == 0)
                for array in seen._transpose or ():
                    assert array is None or is_file_map(array)
            del kernel, router, seen  # unmap before the directory goes
    return plan


def is_file_map(array):
    """Is ``array`` a view of a file map (not of memory of its own)?"""
    while isinstance(array, np.ndarray):
        if isinstance(array, np.memmap):
            return True
        array = array.base
    return False


@given(batches())
@settings(max_examples=200, deadline=None)
def test_rounds_match_the_per_source_reference(batch):
    graph, task, sources, seed, limit, (plan_name, direction) = batch
    check_batch(graph, task, sources, seed, limit, plan_name, direction)


@pytest.mark.parametrize("sources", [65, 130])
@pytest.mark.parametrize("task", ["mssp", "bkhs"])
@pytest.mark.parametrize("plan_name, direction", DIRECTED_PLANS)
def test_both_directions_really_run_on_every_plan(
    plan_name, direction, task, sources
):
    """The differential check on a graph big enough for every plan to
    cut, past the one- and the two-word boundary — and the plan's
    record proves the rounds ran as named: cut, pooled, pulled."""
    graph = chung_lu(140, 5.0, seed=11)
    plan = check_batch(graph, task, sources, 3, 4, plan_name, direction)
    assert plan.taken()


# ----------------------------------------------------------------------
# Adversarial fixtures of the pull direction, each run both ways, in
# one block and streamed (the mapped plan: A^T blocks of one arc).
# ----------------------------------------------------------------------
BOTH_WAYS = pytest.mark.parametrize("plan_name, direction", DIRECTED_PLANS)


def in_degree_blocks(graph):
    """In-degrees of ``A^T``'s row blocks as the mapped plan cuts them
    (at most one arc a block, a heavier row alone)."""
    indptr = graph.transposition()[0]
    return [
        np.diff(indptr[lo : hi + 1]).tolist()
        for lo, hi in iter_row_blocks(indptr, 1)
    ]


@BOTH_WAYS
def test_pull_walks_in_arcs_on_an_asymmetric_digraph(plan_name, direction):
    """No arc has its reverse: a pull along ``A`` instead of ``A^T``
    reaches backwards from the sources and nothing forwards."""
    arcs = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (5, 0), (6, 5), (4, 7)]
    graph = from_edge_list(arcs, num_vertices=8)
    for task in ("mssp", "bkhs"):
        plan = check_batch(graph, task, 3, 1, 6, plan_name, direction)
        assert plan.pulls or direction == "push"


@BOTH_WAYS
def test_vertices_without_in_arcs_receive_nothing(plan_name, direction):
    """``reduceat`` gives an empty segment the element at its start —
    the first in-arc of the *next* vertex, or an index error past the
    last arc — so pull must skip vertices without in-arcs: here 0, 3
    (between two that have them) and the last one."""
    arcs = [(0, 1), (0, 2), (3, 2), (3, 4), (5, 4), (5, 1), (0, 4)]
    graph = from_edge_list(arcs, num_vertices=6)
    assert set(np.flatnonzero(np.bincount(graph.indices, minlength=6) == 0)) == {0, 3, 5}
    for task in ("mssp", "bkhs"):
        plan = check_batch(graph, task, 6, 2, 4, plan_name, direction)
        assert plan.pulls or direction == "push"


@BOTH_WAYS
def test_a_block_that_ends_in_vertices_without_in_arcs(plan_name, direction):
    """The empty-segment trap once per block: streamed, a row block of
    ``A^T`` ends in a run of vertices without in-arcs (2, 3, 4) and the
    next block starts at vertex 5, so reducing every row of the block
    would start past its last arc."""
    arcs = [(0, 1), (1, 5), (5, 6), (6, 0), (2, 7), (3, 7), (4, 7)]
    graph = from_edge_list(arcs, num_vertices=8)
    assert in_degree_blocks(graph) == [[1], [1, 0, 0, 0], [1], [1], [3]]
    for task in ("mssp", "bkhs"):
        plan = check_batch(graph, task, 8, 4, 5, plan_name, direction)
        assert plan.pulls or direction == "push"


@BOTH_WAYS
def test_a_block_that_starts_with_vertices_without_in_arcs(plan_name, direction):
    """Vertex 0's three in-arcs are a block of their own, so the next
    block's first rows (1, 2) have no in-arcs: its reduction starts at
    its first vertex that has some, not at its first row."""
    arcs = [(1, 0), (2, 0), (4, 0), (0, 3), (3, 4)]
    graph = from_edge_list(arcs, num_vertices=5)
    assert in_degree_blocks(graph) == [[3], [0, 0, 1], [1]]
    for task in ("mssp", "bkhs"):
        plan = check_batch(graph, task, 5, 6, 4, plan_name, direction)
        assert plan.pulls or direction == "push"


@BOTH_WAYS
def test_a_graph_of_isolated_vertices_has_nothing_to_pull(plan_name, direction):
    graph = from_edges(
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), num_vertices=70
    )
    for task in ("mssp", "bkhs"):
        plan = check_batch(graph, task, 65, 5, 3, plan_name, direction)
        assert plan.pulls == 0 and plan.pushed_arcs == 0


@BOTH_WAYS
@pytest.mark.parametrize("sources", [65, 130])
def test_word_columns_stay_apart_across_words_and_rounds(
    plan_name, direction, sources
):
    """A cycle with chords, every vertex a source: each word column
    carries different bits through each vertex every round, so a
    column gathered into another's row, or an arc buffer left over
    from the word or the round before, lands wrong bits."""
    n = sources + 3
    ring = np.arange(n)
    graph = from_edges(
        np.concatenate([ring, ring]),
        np.concatenate([(ring + 1) % n, (ring * 7 + 3) % n]),
        num_vertices=n,
    )
    for task in ("mssp", "bkhs"):
        plan = check_batch(graph, task, sources, 9, 6, plan_name, direction)
        assert plan.pulls or direction == "push"


@BOTH_WAYS
def test_a_frontier_of_sinks_ends_the_batch_silently(plan_name, direction):
    """Every source is a sink: the first round has no arc to walk in
    either direction, pushes nothing, and is priced with the frontier
    it could not expand (``check_mssp``'s silent terminating round)."""
    graph = from_edge_list([(3, 0), (3, 1), (4, 2), (4, 0)], num_vertices=5)

    class Sinks:
        """Stands in for the batch RNG: sources 0, 1, 2."""

        def choice(self, n, size, replace):
            return np.arange(size)

    with ForcedPlan(plan_name, ".", direction) as plan:
        kernel = MSSPKernel(graph, router_for(graph, 2), Sinks(), sample_limit=None)
        kernel.start_batch(3)
        check_mssp(kernel, 10)
        assert kernel.round_index == 1 and kernel.finished
        assert plan.pulls == 0 and plan.pushed_arcs == 0


@BOTH_WAYS
def test_self_loops_and_parallel_arcs(plan_name, direction):
    arcs = [(0, 0), (0, 1), (0, 1), (1, 1), (1, 2), (2, 0), (2, 3), (2, 3), (3, 3)]
    graph = from_edge_list(arcs, num_vertices=5)
    assert graph.num_arcs == len(arcs)  # nothing deduplicated
    for task in ("mssp", "bkhs"):
        plan = check_batch(graph, task, 4, 0, 5, plan_name, direction)
        assert plan.pulls or direction == "push"


@pytest.mark.parametrize("task", ["mssp", "bkhs"])
def test_a_streamed_graph_pulls_its_heavy_rounds_block_by_block(task):
    """Edges on disk, vertex state in RAM, ``A^T`` on disk too: with
    the direction left to the round, a graph over the ``--max-ram``
    budget (the ``mapped`` plan) pulls exactly the rounds the one-block
    run pulls, walks its ``A^T`` maps in many blocks each time, and
    every round lands the words of the per-source reference
    (``check_batch``)."""
    graph = chung_lu(140, 5.0, seed=11)
    inline = check_batch(graph, task, 65, 3, 4, "inline", None)
    plan = check_batch(graph, task, 65, 3, 4, "mapped", None)
    assert plan.pulls == inline.pulls > 0
    assert set(inline.pull_blocks) == {1} and min(plan.pull_blocks) > 1


def test_clip_mode_is_not_what_guards_the_index_range(tmp_path):
    """The pull gather runs ``mode="clip"`` for speed; what keeps
    an arc position in range is the validation of ``indptr`` — by
    ``Graph`` in RAM, by ``open_mapped`` on disk, where a streamed
    graph's push rounds gather ``indices`` by it. An ``indptr.npy``
    pointing past the last arc never becomes a graph whose rounds
    would clip silently."""
    from repro.errors import GraphFormatError
    from repro.graph.io import open_mapped, save_mapped

    graph = chung_lu(140, 5.0, seed=11)
    directory = save_mapped(graph, tmp_path / "g.csr").directory
    for corrupt in (
        lambda indptr: indptr.__setitem__(70, graph.num_arcs + 9),
        lambda indptr: indptr.__setitem__(-1, graph.num_arcs + 9),
        lambda indptr: indptr.__setitem__(0, -1),
    ):
        indptr = graph.indptr.copy()
        corrupt(indptr)
        np.save(f"{directory}/indptr.npy", indptr)
        with pytest.raises(GraphFormatError, match="indptr"):
            open_mapped(directory)
    np.save(f"{directory}/indptr.npy", graph.indptr)
    assert open_mapped(directory) == graph


@pytest.mark.parametrize(
    "make",
    [MSSPKernel, lambda *args: BKHSKernel(*args, k=3)],
    ids=["mssp", "bkhs"],
)
def test_a_round_expands_the_union_frontier_once(make, monkeypatch):
    """Sources 0 and 1 both reach hub 2 in round 1; round 2 does the
    hub's per-arc work once per word, never once per source. Pushing,
    a round expands exactly the union frontier's arcs (the hub's five,
    once); pulling, it gathers exactly the graph's ``m`` per word. The
    leaves go nowhere: round 3 has no arc to walk in either direction.
    """
    graph = from_edge_list(
        [(0, 2), (1, 2)] + [(2, leaf) for leaf in range(3, 8)],
        num_vertices=8,
    )
    expanded, gathered = [], []
    expand, take = tasks_base.expand_frontier, np.take

    def counting_expand(*args, **kwargs):
        result = expand(*args, **kwargs)
        expanded.append(int(result[0].size))
        return result

    def counting_take(array, indices, **kwargs):
        gathered.append(int(indices.size))
        return take(array, indices, **kwargs)

    monkeypatch.setattr(tasks_base, "expand_frontier", counting_expand)

    class FirstTwo:
        """Stands in for the batch RNG: sources 0 and 1."""

        def choice(self, n, size, replace):
            return np.arange(size)

    for direction, arcs_expanded, arcs_gathered in (
        ("push", [2, 5, 0], [2, 5]),
        ("pull", [0], [graph.num_arcs] * 2),
    ):
        with ForcedPlan("inline", ".", direction):
            kernel = make(graph, router_for(graph, 2), FirstTwo())
            kernel.start_batch(2)
            with monkeypatch.context() as patch:
                patch.setattr(np, "take", counting_take)
                for _ in range(3):
                    kernel.step()
        assert kernel.frontier_keys().size == 0  # the leaves go nowhere
        assert (expanded, gathered) == (arcs_expanded, arcs_gathered)
        expanded.clear(), gathered.clear()
