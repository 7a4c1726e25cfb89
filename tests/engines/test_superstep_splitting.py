"""Tests for the Giraph superstep-splitting extension (Section 2.2 iii)."""

import pytest

from repro.batching.executor import MultiProcessingJob
from repro.cluster.cluster import galaxy8
from repro.engines.registry import engine_profile
from repro.graph.datasets import load_dataset
from repro.tasks.bppr import bppr_task


@pytest.fixture(scope="module")
def graph():
    return load_dataset("dblp", scale=400)


class TestSuperstepSplitting:
    def test_profile_registered(self):
        profile = engine_profile("giraph(split)")
        assert profile.superstep_split_threshold_messages is not None
        assert engine_profile("giraph").superstep_split_threshold_messages is None

    def test_splitting_rescues_full_parallelism(self, graph):
        """A workload that overloads stock Giraph at 1 batch completes
        under splitting — per-sub-step traffic stays below the walls."""
        plain = MultiProcessingJob("giraph", galaxy8(scale=400)).run(
            bppr_task(graph, 8192), num_batches=1, seed=1
        )
        split = MultiProcessingJob("giraph(split)", galaxy8(scale=400)).run(
            bppr_task(graph, 8192), num_batches=1, seed=1
        )
        assert plain.overloaded
        assert not split.overloaded

    def test_total_messages_preserved(self, graph):
        """Splitting changes when messages move, not how many. At
        W = 8 192 the heavy rounds split (stock Giraph cannot even hold
        them), yet the sub-steps sum to what the walk sends unsplit:
        32 x the W = 256 run, in which no round splits (expected-mass
        traffic scales with W; only the mass-epsilon tail differs)."""
        light = MultiProcessingJob("giraph", galaxy8(scale=400)).run(
            bppr_task(graph, 256), num_batches=1, seed=1
        )
        split = MultiProcessingJob("giraph(split)", galaxy8(scale=400)).run(
            bppr_task(graph, 8192), num_batches=1, seed=1
        )
        threshold = engine_profile(
            "giraph(split)"
        ).superstep_split_threshold_messages
        heaviest = max(r.total_messages for r in split.batches[0].rounds)
        assert heaviest > threshold  # rounds did split
        assert split.total_messages == pytest.approx(
            32 * light.total_messages, rel=1e-5
        )

    def test_light_rounds_not_split(self, graph):
        """Below the threshold the engines behave identically."""
        plain = MultiProcessingJob("giraph", galaxy8(scale=400)).run(
            bppr_task(graph, 64), num_batches=1, seed=1
        )
        split = MultiProcessingJob("giraph(split)", galaxy8(scale=400)).run(
            bppr_task(graph, 64), num_batches=1, seed=1
        )
        assert split.seconds == pytest.approx(plain.seconds)

    def test_splitting_substitutes_for_batching(self, graph):
        """With splitting on, extra workload batching only adds startup
        cost — the engine already caps per-step congestion itself."""
        job = MultiProcessingJob("giraph(split)", galaxy8(scale=400))
        one = job.run(bppr_task(graph, 8192), num_batches=1, seed=1)
        four = job.run(bppr_task(graph, 8192), num_batches=4, seed=1)
        assert not one.overloaded
        assert one.seconds < four.seconds

    def test_memory_capped_by_splitting(self, graph):
        plain = MultiProcessingJob("giraph", galaxy8(scale=400)).run(
            bppr_task(graph, 2048), num_batches=1, seed=1
        )
        split = MultiProcessingJob("giraph(split)", galaxy8(scale=400)).run(
            bppr_task(graph, 2048), num_batches=1, seed=1
        )
        assert split.peak_memory_bytes < plain.peak_memory_bytes
