"""The frontier round's block seam (``TaskKernel.block_plan`` /
``run_blocks``): any cut of the frontier, run as exclusive or as
read-only blocks, computes the bytes of the one-block round; and the
per-slot arenas of pooled blocks live as long as the job's arena."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.arena import ScratchArena
from repro.graph.build import from_edges
from repro.graph.generators import chung_lu
from repro.graph.mirrors import build_mirror_plan
from repro.graph.partition import hash_partition
from repro.messages.routing import PointToPointRouter
from repro.perf import kernel_pool
from repro.rng import make_rng
from repro.tasks import base as tasks_base
from repro.tasks.bkhs import BKHSKernel
from repro.tasks.mssp import MSSPKernel


def router_for(graph, machines=2):
    plan = build_mirror_plan(graph, hash_partition(graph, machines))
    return PointToPointRouter(graph, plan)


def random_cuts(kernel, rng):
    """A ``block_plan`` that cuts each round's frontier at random
    points (repeats give empty blocks) and flips a coin for exclusive
    versus read-only blocks."""

    def block_plan(verts):
        points = rng.integers(0, verts.size + 1, size=rng.integers(0, 6))
        edges = [0, *sorted(int(p) for p in points), verts.size]
        return list(zip(edges[:-1], edges[1:])), bool(rng.integers(0, 2))

    kernel.block_plan = block_plan
    return kernel


def state_bytes(kernel):
    return kernel.reached_table().tobytes(), kernel.frontier_keys().tobytes()


@given(
    n=st.integers(min_value=2, max_value=25),
    m=st.integers(min_value=0, max_value=90),
    seed=st.integers(min_value=0, max_value=10**6),
    task=st.sampled_from(["mssp", "mssp-weighted", "bkhs"]),
)
@settings(max_examples=150, deadline=None)
def test_block_cut_invariance(n, m, seed, task):
    """Every round, under arbitrary frontier cuts: byte-equal state,
    frontier and ``RoundSummary`` against the one-block run."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    weights = rng.integers(1, 5, size=m) * 0.5 if "weighted" in task else None
    graph = from_edges(src, dst, weights, num_vertices=n, dedup=True)

    def make():
        if task == "bkhs":
            return BKHSKernel(
                graph, router_for(graph), make_rng(seed), k=4,
                sample_limit=None,
            )
        return MSSPKernel(
            graph, router_for(graph), make_rng(seed), sample_limit=None
        )

    whole, cut = make(), random_cuts(make(), rng)
    whole.start_batch(min(4, n))
    cut.start_batch(min(4, n))
    assert state_bytes(cut) == state_bytes(whole)
    while not whole.finished:
        assert cut.step() == whole.step()
        assert state_bytes(cut) == state_bytes(whole)
    assert cut.finished


class TestPooledArenasLivePerJob:
    """Pooled blocks draw from child arenas of the engine-injected job
    arena, so the second batch of a job re-uses the first one's
    buffers instead of allocating its own."""

    @pytest.fixture(autouse=True)
    def _two_workers(self):
        workers = kernel_pool.kernel_workers()
        min_shard = kernel_pool.min_shard_candidates()
        kernel_pool.configure_kernel_workers(2, min_shard_candidates=1)
        yield
        kernel_pool.configure_kernel_workers(
            workers, min_shard_candidates=min_shard
        )

    @staticmethod
    def batches(kernel_type):
        """A job's batches, one per call (same seed: the same rounds
        every time); each returns the buffers the pooled slots have
        allocated so far."""
        graph = chung_lu(300, 6.0, seed=3)
        job_arena = ScratchArena()

        def batch():
            kernel = kernel_type(
                graph, router_for(graph, 4), make_rng(5), sample_limit=8
            )
            kernel.use_arena(job_arena)
            kernel.start_batch(8)
            while not kernel.step().done:
                pass
            return sum(child.allocations for child in job_arena.children(2))

        return batch

    @pytest.mark.parametrize("kernel_type", [MSSPKernel, BKHSKernel])
    def test_later_batches_reuse_the_first_ones_buffers(
        self, kernel_type, monkeypatch
    ):
        # Every round pushes, so every round that can be is pooled (a
        # pull round is one inline block and takes nothing from a slot).
        monkeypatch.setattr(tasks_base, "PULL_ARC_RATIO", 0)
        batch = self.batches(kernel_type)
        first = batch()
        assert first > 0, "no round was pooled"
        # The tail of a batch is still inside the keepalive window when
        # the next one starts, so the second batch may top the pool up;
        # from then on a batch allocates nothing.
        second = batch()
        assert second - first < first
        assert batch() == second

    @pytest.mark.parametrize("kernel_type", [MSSPKernel, BKHSKernel])
    def test_pooled_slots_settle_when_the_heavy_rounds_pull(self, kernel_type):
        """With the direction left to the round, the heavy rounds pull
        inline and only the thin ones are pooled: fewer pooled rounds
        to spread the keepalive window over, the same steady state."""
        batch = self.batches(kernel_type)
        first = batch()
        assert first > 0, "no round was pooled"
        second = batch()
        assert second - first <= first
        assert batch() == second

    def test_children_are_distinct_and_stable(self):
        arena = ScratchArena()
        pair = arena.children(2)
        assert pair[0] is not pair[1] and arena not in pair
        assert arena.children(3)[:2] == pair
