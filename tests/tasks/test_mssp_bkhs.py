"""Correctness tests for MSSP and BKHS kernels against references.

The exact-solver comparisons run on every block plan a round can take
(``TaskKernel.block_plan``): byte-identity between the plans proves
consistency, only ``tasks/exact.py`` proves truth.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import csr
from repro.graph.build import from_edges
from repro.graph.generators import chain, chung_lu, grid_2d
from repro.graph.io import save_mapped
from repro.graph.mirrors import build_mirror_plan
from repro.graph.partition import hash_partition
from repro.messages.routing import BroadcastRouter, PointToPointRouter
from repro.perf import kernel_pool
from repro.rng import make_rng
from repro.errors import TaskError
from repro.tasks import base as tasks_base
from repro.tasks.base import BitFrontier, TaskKernel, choose_sources
from repro.tasks.bkhs import BKHSKernel, bkhs_task
from repro.tasks.exact import (
    bfs_distances,
    dijkstra_distances,
    k_hop_set,
    shortest_path_distances,
)
from repro.tasks.mssp import MSSPKernel, mssp_task


#: one exclusive block / many exclusive blocks / read-only pooled blocks
PLANS = ("inline", "mapped", "pooled")

#: every (block plan, forced direction) a bit-parallel round can take;
#: a mapped graph pulls along its on-disk A^T, block by block.
DIRECTED_PLANS = (
    ("inline", "push"), ("inline", "pull"),
    ("pooled", "push"), ("pooled", "pull"),
    ("mapped", "push"), ("mapped", "pull"),
)


class ForcedPlan:
    """While active, puts every kernel round on block plan ``name``
    however small the graph — and, with ``direction``, every
    bit-parallel round that has an arc to walk on ``"push"`` or
    ``"pull"`` — and records what each round took. Every global
    touched is restored on exit."""

    def __init__(self, name, directory, direction=None):
        self.name = name
        self.directory = Path(directory)
        self.direction = direction
        self.rounds = []  # (number of blocks, pooled) per pushed round
        self.pulls = 0  # rounds that pulled
        self.pull_blocks = []  # A^T blocks walked per pulled round
        self.pushed_arcs = 0  # out-arcs of the frontiers that pushed

    def __enter__(self):
        self._saved = (
            csr.MIN_STREAM_BLOCK_ARCS,
            csr.streaming_budget_bytes(),
            kernel_pool.kernel_workers(),
            kernel_pool.min_shard_candidates(),
            TaskKernel.block_plan,
            BitFrontier._gather,
            tasks_base.PULL_ARC_RATIO,
        )
        block_plan, gather = TaskKernel.block_plan, BitFrontier._gather

        def recording(kernel, verts):
            cuts, pooled = block_plan(kernel, verts)
            self.rounds.append((len(cuts), pooled))
            self.pushed_arcs += int(kernel.graph.degrees[verts].sum())
            return cuts, pooled

        def recording_gather(bits, arena):
            self.pulls += 1
            landed = gather(bits, arena)
            self.pull_blocks.append(len(bits.graph.transposition_blocks()))
            return landed

        TaskKernel.block_plan = recording
        BitFrontier._gather = recording_gather
        if self.name == "mapped":
            csr.MIN_STREAM_BLOCK_ARCS = 1
            csr.configure_streaming(max_ram_bytes=1)
        elif self.name == "pooled":
            kernel_pool.configure_kernel_workers(2, min_shard_candidates=1)
        if self.direction is not None:
            # frontier arcs x ratio >= m: never, or whenever there is one
            tasks_base.PULL_ARC_RATIO = 0 if self.direction == "push" else 1 << 40
        return self

    def __exit__(self, *exc):
        (
            csr.MIN_STREAM_BLOCK_ARCS,
            budget,
            workers,
            min_shard,
            TaskKernel.block_plan,
            BitFrontier._gather,
            tasks_base.PULL_ARC_RATIO,
        ) = self._saved
        csr.configure_streaming(budget)
        kernel_pool.configure_kernel_workers(
            workers, min_shard_candidates=min_shard
        )

    def graph(self, graph):
        """``graph`` as this plan's kernels must see it."""
        if self.name != "mapped":
            return graph
        return save_mapped(graph, tempfile.mkdtemp(dir=self.directory))

    def forced(self):
        """Did every round go the forced direction? (A frontier without
        an out-arc has nothing to pull and 'pushes' zero arcs.)"""
        if self.direction == "pull":
            return self.pushed_arcs == 0
        return self.direction is None or self.pulls == 0

    def taken(self):
        """Did some round really run the way the plan's name says —
        and, with a forced direction, all of them that way? A pull
        round walks ``A^T``'s row blocks inline on every plan — many
        when the graph streams, else one — so under ``"pull"`` that is
        all there is to take."""
        if not self.forced():
            return False
        if self.direction == "pull":
            return bool(self.pull_blocks) and (
                (max(self.pull_blocks) > 1) == (self.name == "mapped")
            )
        if self.name == "inline":
            return set(self.rounds) == {(1, False)}
        if self.name == "pooled":
            return any(pooled for _, pooled in self.rounds)
        return any(blocks > 1 and not pooled for blocks, pooled in self.rounds)


@pytest.fixture
def plan(request, tmp_path):
    """The block plan the test's kernels take: ``inline`` unless the
    test is parametrized over it (``indirect=True``)."""
    with ForcedPlan(getattr(request, "param", "inline"), tmp_path) as forced:
        yield forced


def run_kernel(kernel, workload):
    kernel.start_batch(workload)
    for _ in rounds_of(kernel):
        pass
    return kernel


def rounds_of(kernel):
    """Step a started kernel to its end, yielding the round index
    after every round."""
    for _ in range(100_000):
        done = kernel.step().done
        yield kernel.round_index
        if done:
            break


def hop_limited_distances(graph, source, hops):
    """Shortest distances over paths of at most ``hops`` arcs: the
    synchronous Bellman-Ford invariant, as the plain reference loop."""
    dist = np.full(graph.num_vertices, np.inf)
    dist[source] = 0.0
    for _ in range(hops):
        relaxed = dist.copy()
        for u, v, weight in graph.iter_edges():
            relaxed[v] = min(relaxed[v], dist[u] + weight)
        dist = relaxed
    return dist


def router_for(graph, machines=4):
    partition = hash_partition(graph, machines)
    plan = build_mirror_plan(graph, partition)
    return PointToPointRouter(graph, plan)


class TestMSSPCorrectness:
    def test_unweighted_matches_bfs(self, plan):
        graph = plan.graph(chung_lu(150, 6.0, seed=5))
        kernel = MSSPKernel(
            graph, router_for(graph), make_rng(2), sample_limit=None
        )
        kernel.start_batch(10)
        truth = np.stack([bfs_distances(graph, s) for s in kernel._sources])
        for level in rounds_of(kernel):
            # Truth every round, not only at the end: the frontier is
            # the BFS level, each cell once, in row-major order.
            np.testing.assert_array_equal(
                kernel.frontier_keys(), np.flatnonzero(truth == level)
            )
        np.testing.assert_array_equal(kernel.reached_table(), truth)
        assert plan.taken()

    def test_weighted_matches_dijkstra(self, weighted_graph, plan):
        weighted_graph = plan.graph(weighted_graph)
        kernel = MSSPKernel(
            weighted_graph,
            router_for(weighted_graph, 2),
            make_rng(2),
            sample_limit=None,
        )
        kernel.start_batch(3)
        for hops in rounds_of(kernel):
            # A round relaxes from the distances the round started
            # with: after it, paths of at most ``hops`` arcs, no more.
            for source, dist in kernel.result.items():
                np.testing.assert_allclose(
                    dist, hop_limited_distances(weighted_graph, source, hops)
                )
        for source, dist in kernel.result.items():
            np.testing.assert_allclose(
                dist, dijkstra_distances(weighted_graph, source)
            )
        assert plan.taken()

    def test_chain_distances(self):
        graph = chain(20, directed=False)
        kernel = MSSPKernel(
            graph, router_for(graph, 2), make_rng(0), sample_limit=None
        )
        run_kernel(kernel, 5)
        for source, dist in kernel.result.items():
            expected = np.abs(np.arange(20) - source).astype(float)
            np.testing.assert_array_equal(dist, expected)

    def test_rounds_track_eccentricity(self):
        graph = grid_2d(6, 6, directed=False)
        kernel = MSSPKernel(
            graph, router_for(graph, 2), make_rng(0), sample_limit=1
        )
        run_kernel(kernel, 1)
        source = next(iter(kernel.result))
        ecc = int(
            np.max(kernel.result[source][np.isfinite(kernel.result[source])])
        )
        # One relaxation round per BFS level + the terminating round.
        assert kernel.round_index == ecc + 1

    def test_sampling_scales_counts(self):
        graph = chung_lu(150, 6.0, seed=5)
        limited = MSSPKernel(
            graph, router_for(graph), make_rng(2), sample_limit=4
        )
        limited.start_batch(40)
        full = MSSPKernel(
            graph, router_for(graph), make_rng(2), sample_limit=None
        )
        full.start_batch(40)
        lim_first = limited.step()
        full_first = full.step()
        assert limited._scale == pytest.approx(10.0)
        # Scaled counts approximate the full simulation's round-1 load.
        assert lim_first.wire_messages == pytest.approx(
            full_first.wire_messages, rel=0.6
        )

    def test_unreachable_stays_infinite(self, plan):
        # One arc: too small for any plan to cut, so no ``taken()``.
        graph = plan.graph(from_edges(
            np.array([0]), np.array([1]), num_vertices=4
        ))  # vertices 2, 3 unreachable from 0
        kernel = MSSPKernel(
            graph, router_for(graph, 2), make_rng(0), sample_limit=None
        )
        kernel.start_batch(4)
        # Force source set to include 0 for determinism of the check.
        for _ in range(100):
            if kernel.step().done:
                break
        for source, dist in kernel.result.items():
            expected = shortest_path_distances(graph, source)
            np.testing.assert_array_equal(dist, expected)


class TestBKHSCorrectness:
    def test_counts_match_bruteforce(self, plan):
        graph = plan.graph(chung_lu(120, 5.0, seed=9))
        kernel = BKHSKernel(
            graph, router_for(graph), make_rng(3), k=2, sample_limit=None
        )
        kernel.start_batch(8)
        truth = np.stack([bfs_distances(graph, s) for s in kernel._sources])
        for level in rounds_of(kernel):
            if level <= 2:  # round k + 1 only terminates
                np.testing.assert_array_equal(
                    kernel.frontier_keys(), np.flatnonzero(truth == level)
                )
        for source, count in kernel.result.items():
            assert count == int(k_hop_set(graph, source, 2).sum())
        assert plan.taken()

    def test_reachable_sets_match(self, plan):
        graph = plan.graph(grid_2d(5, 5, directed=False))
        kernel = BKHSKernel(
            graph, router_for(graph, 2), make_rng(3), k=3, sample_limit=None
        )
        run_kernel(kernel, 4)
        for source, mask in kernel.reachable_sets().items():
            np.testing.assert_array_equal(
                mask, k_hop_set(graph, source, 3)
            )
        assert plan.taken()

    def test_fixed_round_count(self):
        graph = chung_lu(100, 6.0, seed=4)
        for k in (1, 2, 4):
            kernel = BKHSKernel(
                graph, router_for(graph), make_rng(3), k=k, sample_limit=4
            )
            run_kernel(kernel, 4)
            assert kernel.round_index == k + 1

    def test_k_must_be_positive(self):
        graph = chain(5)
        with pytest.raises(Exception):
            BKHSKernel(graph, router_for(graph, 2), make_rng(0), k=0)

    def test_broadcast_router_accepted(self):
        graph = chung_lu(100, 6.0, seed=4)
        partition = hash_partition(graph, 4)
        plan = build_mirror_plan(graph, partition, degree_threshold=10)
        router = BroadcastRouter(graph, plan)
        kernel = BKHSKernel(graph, router, make_rng(3), k=2, sample_limit=4)
        run_kernel(kernel, 4)
        for source, count in kernel.result.items():
            assert count == int(k_hop_set(graph, source, 2).sum())


@pytest.mark.parametrize("plan", PLANS[1:], indirect=True)
class TestTruthOnEveryPlan:
    """The exact-solver tests above (``inline`` there) on the plans that
    cut the frontier."""

    _mssp, _bkhs = TestMSSPCorrectness, TestBKHSCorrectness
    test_unweighted_matches_bfs = _mssp.test_unweighted_matches_bfs
    test_weighted_matches_dijkstra = _mssp.test_weighted_matches_dijkstra
    test_unreachable_stays_infinite = _mssp.test_unreachable_stays_infinite
    test_counts_match_bruteforce = _bkhs.test_counts_match_bruteforce
    test_reachable_sets_match = _bkhs.test_reachable_sets_match


class TestChooseSources:
    """Inputs that used to be mangled silently now fail loudly."""

    @pytest.mark.parametrize("workload", [0.4, 0.5])
    def test_workload_rounding_to_zero_sources(self, random_graph, workload):
        # 0.5 rounds to 0 too (banker's rounding); either way the batch
        # would be priced at scale 0.0, i.e. at zero messages.
        with pytest.raises(TaskError, match="zero sources"):
            choose_sources(random_graph, workload, 64, make_rng(0))

    @pytest.mark.parametrize("sample_limit", [0, -3])
    def test_non_positive_sample_limit(self, random_graph, sample_limit):
        with pytest.raises(TaskError, match="sample_limit"):
            choose_sources(random_graph, 8.0, sample_limit, make_rng(0))

    def test_sources_are_distinct_and_scaled(self, random_graph):
        n = random_graph.num_vertices
        sampled = choose_sources(random_graph, 4.0 * n, None, make_rng(0))
        assert np.array_equal(np.sort(sampled.sources), np.arange(n))
        assert sampled.scale_factor == 4.0 and sampled.requested == 4 * n


class TestTaskSpecs:
    def test_mssp_task(self, random_graph):
        task = mssp_task(random_graph, 64)
        assert task.name == "mssp"
        assert task.params["sample_limit"] == 64

    def test_bkhs_task(self, random_graph):
        task = bkhs_task(random_graph, 64, k=3)
        assert task.params["k"] == 3


@given(
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(PLANS),
)
@settings(max_examples=60, deadline=None)
def test_mssp_property_matches_bfs(n, m, seed, plan_name):
    """Property test: MSSP distances equal BFS on random digraphs, on
    every block plan (drawn with the example: a function-scoped fixture
    would be shared by all of them)."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    graph = from_edges(src, dst, num_vertices=n, dedup=True)
    with tempfile.TemporaryDirectory() as scratch:
        with ForcedPlan(plan_name, scratch) as plan:
            mapped = plan.graph(graph)
            kernel = MSSPKernel(
                mapped, router_for(mapped, 2), make_rng(seed),
                sample_limit=None,
            )
            run_kernel(kernel, min(3, n))
            result = kernel.result
            del kernel, mapped  # unmap before the directory goes
    for source, dist in result.items():
        np.testing.assert_array_equal(dist, bfs_distances(graph, source))
