"""The frontier round's block seam (``TaskKernel.block_plan`` /
``run_blocks``): any cut of the frontier, run as exclusive or as
read-only blocks, computes the bytes of the one-block round."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.build import from_edges
from repro.graph.mirrors import build_mirror_plan
from repro.graph.partition import hash_partition
from repro.messages.routing import PointToPointRouter
from repro.rng import make_rng
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
    task=st.sampled_from(["mssp", "bkhs"]),
)
@settings(max_examples=150, deadline=None)
def test_block_cut_invariance(n, m, seed, task):
    """Every round, under arbitrary frontier cuts: byte-equal state,
    frontier and ``RoundSummary`` against the one-block run."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    graph = from_edges(src, dst, num_vertices=n, dedup=True)

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
