"""Differential determinism suite: perf knobs must never change results.

Every performance layer in :mod:`repro.perf` — worker pools, the
artifact cache — promises the same contract: it changes *when and
where* work runs, never what it computes. This suite runs the same
experiments under each knob's settings and asserts the outputs are
byte-identical:

* ``--jobs 1`` vs ``--jobs N`` (``REPRO_TEST_JOBS``, default 2), with
  no cache directory, a warm one, and a cold one the pool fills;
* a cold artifact cache vs a warm one (memory and disk);
* per-round metric streams across serial and forked sweeps;
* the online scheduler (``repro.sched``): the same seeded arrival
  stream must yield byte-identical service metrics — per-batch round
  traces included — under serial vs forked fan-out and cold vs warm
  caches.

"Byte-identical" is literal: rendered Markdown rows and
``json.dumps``-serialised metric streams are compared as strings, so
even a float's last bit flipping fails the suite.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.batching.executor import MultiProcessingJob
from repro.cluster.cluster import cluster_by_name
from repro.engines.registry import ENGINE_NAMES
from repro.experiments.base import ExperimentConfig
from repro.experiments.common import sweep_batches
from repro.experiments.runner import run_all, run_experiment
from repro.graph.datasets import load_dataset
from repro.perf import kernel_pool
from repro.perf.cache import clear_cache, configure_cache, get_cache
from repro.tasks.base import make_task

SCALE = 4000
JOBS = int(os.environ.get("REPRO_TEST_JOBS", "2"))
IDS = ["fig2", "fig8"]
CONFIG = dict(scale=SCALE, quick=True)


@pytest.fixture(autouse=True)
def _isolated_perf_state():
    """Fresh cache and kernel pool per test; restore the cache config."""
    cache = get_cache()
    directory, capacity = cache.directory, cache.capacity
    configure_cache(capacity=256)
    clear_cache()
    kernel_pool.reset_kernel_pool()
    yield
    cache.directory, cache.capacity = directory, capacity
    clear_cache()
    kernel_pool.reset_kernel_pool()


def _markdown(results):
    return "\n".join(result.to_markdown() for result in results)


def _run(jobs, only=IDS):
    clear_cache()
    config = ExperimentConfig(jobs=jobs, **CONFIG)
    return _markdown(run_all(config, only=only, jobs=jobs))


class TestJobsInvariance:
    """A pool worker gets each graph from its own artifact cache —
    inherited through fork, opened from the cache directory, or built —
    and renders what the serial loop renders in every one of those."""

    def test_serial_vs_pool(self):
        # No cache directory: each worker builds or inherits its graphs.
        assert _run(jobs=1) == _run(jobs=JOBS)

    #: fig2 and fig4 both load dblp: the first two items of the pool
    #: build the same graph into a cold directory at once.
    SHARING = ["fig2", "fig4", "fig8"]

    @pytest.mark.parametrize("directory", ["warm", "cold"])
    def test_serial_vs_pool_over_a_cache_directory(self, tmp_path, directory):
        serial = _run(jobs=1, only=self.SHARING)
        configure_cache(directory=str(tmp_path))
        if directory == "warm":
            _run(jobs=1, only=self.SHARING)  # fills it: the pool only opens
        before = get_cache().stats.corruptions
        assert _run(jobs=JOBS, only=self.SHARING) == serial
        assert get_cache().stats.corruptions == before
        assert list(tmp_path.glob("*.csr/graph.json"))


class TestCacheInvariance:
    def test_cold_vs_warm_memory_cache(self):
        config = ExperimentConfig(jobs=1, **CONFIG)
        clear_cache()
        cold = run_experiment("fig8", config).to_markdown()
        warm = run_experiment("fig8", config).to_markdown()
        assert get_cache().stats.hits > 0
        assert cold == warm

    def test_cold_vs_warm_disk_cache(self, tmp_path):
        configure_cache(directory=str(tmp_path))
        config = ExperimentConfig(jobs=1, **CONFIG)
        clear_cache()
        cold = run_experiment("fig8", config).to_markdown()
        clear_cache()  # drop memory so the disk store must serve
        warm = run_experiment("fig8", config).to_markdown()
        assert get_cache().stats.disk_hits > 0
        assert cold == warm


#: ``--max-ram`` of the streaming runs: twitter@4000 (~370 K arcs,
#: predicted build peak ~30 MB) is built out of core and streams six
#: blocks of the production floor; web-st@4000 is built in RAM and
#: fits one block.
BUDGET = 1 << 20


class TestMappedGraphInvariance:
    """Graphs opened from CSR directories and rounds streamed in blocks
    vs arrays in RAM and one-block rounds: same Markdown rows, same
    metric streams, same graph bits. The budget is also a modelled
    quantity (GraphD's buffer cap follows it), so runs are compared
    under one budget; what differs is the block floor — whether
    anything streams — and where the graphs live."""

    @pytest.fixture(autouse=True)
    def _restore_streaming(self):
        from repro.graph import csr

        floor = csr.MIN_STREAM_BLOCK_ARCS
        yield
        csr.MIN_STREAM_BLOCK_ARCS = floor
        csr.configure_streaming(None)

    def _budget_run(self, jobs, directory=None, streams=True):
        """A run under ``BUDGET``: with ``directory`` every graph is
        opened from it, ``streams=False`` lifts the block floor over
        every graph so each round is one block."""
        from repro.graph import csr

        csr.configure_streaming(BUDGET)
        if not streams:
            csr.MIN_STREAM_BLOCK_ARCS = 1 << 40
        configure_cache(directory="" if directory is None else str(directory))
        markdown = _run(jobs=jobs)
        twitter = load_dataset("twitter", scale=SCALE)  # fig8's, from the LRU
        assert (csr.streaming_block_arcs(twitter) is not None) == streams
        return markdown

    def test_mapped_vs_in_ram_serial(self, tmp_path):
        streamed = self._budget_run(1, tmp_path)
        assert list(tmp_path.glob("twitter-*.csr/graph.json"))
        assert streamed == self._budget_run(1, streams=False)

    def test_mapped_vs_in_ram_pool(self, tmp_path):
        assert self._budget_run(JOBS, tmp_path) == self._budget_run(
            JOBS, streams=False
        )

    def test_mapped_cold_vs_warm(self, tmp_path):
        cold = self._budget_run(1, tmp_path)
        # Same directory: the second run reopens the CSR files on disk.
        warm = self._budget_run(1, tmp_path)
        assert get_cache().stats.disk_hits > 0
        assert cold == warm

    def test_chunked_build_bits_at_scale_400(self, tmp_path):
        from repro.graph.datasets import PAPER_DATASETS

        profile = PAPER_DATASETS["twitter"]
        in_ram = profile.instantiate(scale=400)
        mapped = profile.instantiate_mapped(
            scale=400, directory=str(tmp_path / "twitter.csr")
        )
        import numpy as np

        assert (
            np.asarray(in_ram.indptr).tobytes()
            == np.asarray(mapped.indptr).tobytes()
        )
        assert (
            np.asarray(in_ram.indices).tobytes()
            == np.asarray(mapped.indices).tobytes()
        )
        assert in_ram.fingerprint == mapped.fingerprint

    def test_engine_outputs_at_scale_400(self, tmp_path):
        from repro.graph.csr import configure_streaming, streaming_block_arcs

        def metrics():
            graph = load_dataset("twitter", scale=400)
            cluster = cluster_by_name("galaxy-8", scale=400)
            job = MultiProcessingJob("pregel+", cluster)
            run = job.run(make_task("mssp", graph, 64.0),
                          num_batches=2, seed=5)
            return graph, json.dumps(
                run.to_dict(include_rounds=True), sort_keys=True
            )

        graph, in_ram = metrics()
        assert graph.directory is None
        assert streaming_block_arcs(graph) is None
        clear_cache()
        # pregel+ models no budget of its own, so the budgeted run may
        # be compared with the unbudgeted one.
        configure_streaming(BUDGET)
        configure_cache(directory=str(tmp_path))
        graph, mapped = metrics()
        assert graph.directory is not None
        assert streaming_block_arcs(graph) == 1 << 16
        assert in_ram == mapped


class TestRoundStreamInvariance:
    """Per-round metric streams, not just rendered tables."""

    def _streams(self, jobs):
        clear_cache()
        graph = load_dataset("dblp", scale=SCALE)
        cluster = cluster_by_name("galaxy-8", scale=SCALE)
        runs = sweep_batches(
            "pregel+",
            cluster,
            lambda: make_task("mssp", graph, 64.0),
            batch_counts=[1, 2, 4],
            seed=7,
            jobs=jobs,
        )
        return json.dumps(
            [m.to_dict(include_rounds=True) for m in runs],
            sort_keys=True,
        )

    def test_serial_vs_forked_round_streams(self):
        assert self._streams(jobs=1) == self._streams(jobs=JOBS)

    def test_repeat_runs_are_stable(self):
        graph = load_dataset("dblp", scale=SCALE)
        cluster = cluster_by_name("galaxy-8", scale=SCALE)
        job = MultiProcessingJob("pregel+", cluster)
        task = make_task("bppr", graph, 256.0)
        first = job.run(task, num_batches=2, seed=11)
        second = job.run(make_task("bppr", graph, 256.0),
                         num_batches=2, seed=11)
        assert json.dumps(
            first.to_dict(include_rounds=True), sort_keys=True
        ) == json.dumps(
            second.to_dict(include_rounds=True), sort_keys=True
        )


class TestSuspendResumeInvariance:
    """Barrier suspend/resume must be invisible in the metrics: a batch
    frozen at superstep barriers and resumed — for every engine and
    every preemptable task kind — must serialize byte-identically
    (``pack_job``) to the same batch run straight through."""

    KINDS = ("bppr", "mssp", "bkhs")
    BATCH_UNITS = 16.0

    def _job(self, engine_name, kind, suspend):
        from repro.engines.base import BatchCheckpoint, EngineSession
        from repro.engines.registry import create_engine
        from repro.sim.metrics import JobMetrics, pack_job

        graph = load_dataset("dblp", scale=SCALE)
        cluster = cluster_by_name("galaxy-8", scale=SCALE)
        engine = create_engine(engine_name, cluster)
        session = EngineSession(
            engine, make_task(kind, graph, self.BATCH_UNITS), seed=7
        )

        def at_even_barriers(batch):
            return len(batch.rounds) % 2 == 0

        callback = at_even_barriers if suspend else None
        suspends = 0
        job = JobMetrics(
            engine=engine.name,
            task=kind,
            dataset=graph.name,
            cluster=cluster.name,
            num_machines=cluster.num_machines,
            total_workload=2 * self.BATCH_UNITS,
            batch_sizes=[self.BATCH_UNITS, self.BATCH_UNITS],
        )
        for _ in range(2):
            result = session.run_batch(
                self.BATCH_UNITS, should_suspend=callback
            )
            while isinstance(result, BatchCheckpoint):
                suspends += 1
                result = session.resume(should_suspend=callback)
            job.batches.append(result)
        return bytes(pack_job(job)["payload"]), suspends

    @pytest.mark.parametrize("engine_name", ENGINE_NAMES)
    def test_every_engine_and_kind(self, engine_name):
        total_suspends = 0
        for kind in self.KINDS:
            interrupted, suspends = self._job(engine_name, kind, True)
            straight, zero = self._job(engine_name, kind, False)
            assert zero == 0
            assert interrupted == straight, (engine_name, kind)
            total_suspends += suspends
        assert total_suspends > 0, "no barrier ever fired; test is vacuous"


class TestSchedulerInvariance:
    """The online scheduler under the same knobs: one seeded stream
    must produce the same latency tables, batch logs, and per-round
    traces no matter where or how often it runs."""

    RATES = (0.4, 0.8)

    def _one_stream(self, rate):
        from repro.engines.registry import create_engine
        from repro.sched.arrivals import generate_arrivals
        from repro.sched.service import SchedulerService

        graph = load_dataset("dblp", scale=SCALE)
        cluster = cluster_by_name("galaxy-8", scale=SCALE)
        service = SchedulerService(
            create_engine("pregel+", cluster),
            graph,
            kinds=("bppr",),
            seed=13,
            record_rounds=True,
        )
        requests = generate_arrivals(
            rate, 12, seed=13, kinds=("bppr",), units_range=(8, 48)
        )
        metrics = service.run(requests, arrival_rate=rate)
        return json.dumps(
            metrics.to_dict(include_latencies=True), sort_keys=True
        )

    def _streams(self, jobs):
        from repro.perf.parallel import parallel_map_fork

        clear_cache()
        return parallel_map_fork(
            lambda i: self._one_stream(self.RATES[i]),
            len(self.RATES),
            jobs=jobs,
        )

    def test_serial_vs_forked_scheduler_streams(self):
        assert self._streams(jobs=1) == self._streams(jobs=JOBS)

    def test_cold_vs_warm_training_cache(self):
        clear_cache()
        cold = self._one_stream(0.4)
        warm = self._one_stream(0.4)  # training probes now cache-hit
        assert get_cache().stats.hits > 0
        assert cold == warm


class TestMultiTenantServeInvariance:
    """Multi-tenant serving knobs (engine routing table, tenant quotas,
    the content-keyed result cache) must not move a byte of the serve
    digest when they cannot matter: the cache on a duplicate-free
    stream, a routing table naming the base engine, and quota mappings
    that never bind or merely permute."""

    def _serve(self, policy=None, base_engine="pregel+"):
        from repro.engines.registry import create_engine
        from repro.sched.arrivals import TaskRequest
        from repro.sched.service import SchedulerService

        graph = load_dataset("dblp", scale=SCALE)
        cluster = cluster_by_name("galaxy-8", scale=SCALE)
        service = SchedulerService(
            create_engine(base_engine, cluster),
            graph,
            kinds=("bppr",),
            seed=17,
            record_rounds=True,
            policy=policy,
        )
        tenants = ("acme", "globex")
        # Hand-rolled duplicate-free stream: every request has a unique
        # unit count, so no two share a content key.
        requests = [
            TaskRequest(i, "bppr", 8.0 + i, float(3 * i),
                        tenant=tenants[i % 2])
            for i in range(8)
        ]
        metrics = service.run(requests)
        return metrics.to_dict(include_latencies=True)

    def test_cache_on_vs_off_duplicate_free_stream(self):
        from repro.sched.policy import ServicePolicy

        off = self._serve()
        on = self._serve(ServicePolicy(result_cache=True))
        cache = on.pop("result_cache")
        # Every request missed and executed: the cache stored but never
        # served, so the schedule digest must be untouched.
        assert cache["hits"] == 0 and cache["coalesced"] == 0
        assert cache["misses"] == 8 and cache["stores"] == 8
        assert json.dumps(on, sort_keys=True) == json.dumps(
            off, sort_keys=True
        )

    def test_cache_hits_replay_exact_payload_bytes(self):
        from repro.engines.registry import create_engine
        from repro.sched.arrivals import TaskRequest
        from repro.sched.policy import ServicePolicy
        from repro.sched.service import SchedulerService

        graph = load_dataset("dblp", scale=SCALE)
        cluster = cluster_by_name("galaxy-8", scale=SCALE)

        def responses(requests):
            service = SchedulerService(
                create_engine("pregel+", cluster),
                graph,
                kinds=("bppr",),
                seed=17,
                policy=ServicePolicy(result_cache=True),
            )
            service.run(requests)
            return service.responses

        warm = responses(
            [
                TaskRequest(0, "bppr", 8.0, 0.0),
                TaskRequest(1, "bppr", 8.0, 1.0e6),  # pure cache hit
            ]
        )
        cold = responses([TaskRequest(5, "bppr", 8.0, 0.0)])
        assert warm[1] == warm[0] == cold[5]

    def test_route_to_base_engine_is_identity(self):
        from repro.sched.policy import ServicePolicy

        unrouted = self._serve()
        routed = self._serve(ServicePolicy(routes={"bppr": "pregel+"}))
        assert json.dumps(routed, sort_keys=True) == json.dumps(
            unrouted, sort_keys=True
        )

    def test_routed_kind_matches_native_base_engine(self):
        from repro.sched.policy import ServicePolicy

        native = self._serve(base_engine="graphlab(async)")
        routed = self._serve(
            ServicePolicy(routes={"bppr": "graphlab(async)"}),
            base_engine="pregel+",
        )
        # Only the service-level engine header may differ: every batch
        # ran on graphlab(async) either way.
        assert native.pop("engine") == "graphlab(async)"
        assert routed.pop("engine") == "pregel+"
        assert json.dumps(routed, sort_keys=True) == json.dumps(
            native, sort_keys=True
        )

    def test_quota_permutation_and_generous_quotas(self):
        from repro.sched.policy import ServicePolicy

        first = self._serve(
            ServicePolicy(tenant_quotas={"acme": 0.9, "globex": 0.8})
        )
        permuted = self._serve(
            ServicePolicy(tenant_quotas={"globex": 0.8, "acme": 0.9})
        )
        assert json.dumps(first, sort_keys=True) == json.dumps(
            permuted, sort_keys=True
        )
        # Quotas generous enough never to bind must not change the
        # admission order — only the batch log's tenant attribution
        # (absent with quotas off) may differ.
        bare = self._serve()
        for entry in first["batches"]:
            entry.pop("tenants")
        assert json.dumps(first, sort_keys=True) == json.dumps(
            bare, sort_keys=True
        )


class TestCalibrationInvariance:
    """Online ask-tell calibration (``--calibrate``): the degenerate
    policy — calibration and tenant cache quotas off — must keep the
    serve digest byte-identical to the default, and a warm restart from
    persisted coefficients must reproduce the cold run's digest with
    zero probe runs."""

    def _serve(self, policy=None, kinds=("bppr",)):
        from repro.engines.registry import create_engine
        from repro.sched.arrivals import generate_arrivals
        from repro.sched.service import SchedulerService

        graph = load_dataset("dblp", scale=SCALE)
        cluster = cluster_by_name("galaxy-8", scale=SCALE)
        service = SchedulerService(
            create_engine("pregel+", cluster),
            graph,
            kinds=kinds,
            seed=13,
            record_rounds=True,
            policy=policy,
            task_params={"mssp": {"sample_limit": 16}},
        )
        requests = generate_arrivals(
            0.4, 12, seed=13, kinds=kinds, units_range=(8, 48)
        )
        metrics = service.run(requests, arrival_rate=0.4)
        return metrics.to_dict(include_latencies=True)

    def test_degenerate_policy_matches_default_byte_for_byte(self):
        from repro.sched.policy import ServicePolicy

        default = self._serve()
        clear_cache()
        degenerate = self._serve(
            ServicePolicy(calibrate=False, tenant_cache_quotas=None)
        )
        assert json.dumps(degenerate, sort_keys=True) == json.dumps(
            default, sort_keys=True
        )

    def test_warm_restart_reproduces_cold_digest(self, tmp_path):
        # Multi-kind on purpose: probe training prepares the kinds in
        # policy order while a warm restart prepares them in arrival
        # order, so any preparation-order dependence (e.g. two kinds
        # sharing one router prep) breaks this digest and only this
        # digest.
        from repro.sched.policy import ServicePolicy

        configure_cache(directory=str(tmp_path))
        kinds = ("bppr", "mssp")
        policy = ServicePolicy(calibrate=True)
        cold = self._serve(policy, kinds=kinds)
        cold_cal = cold.pop("calibration")
        assert cold_cal["training_runs"] > 0
        assert not cold_cal["warm_start"]
        clear_cache()  # drop memory so the disk store must serve
        warm = self._serve(policy, kinds=kinds)
        warm_cal = warm.pop("calibration")
        # Zero probe executions on restart: the coefficients and probe
        # samples came back from the artifact cache.
        assert warm_cal["training_runs"] == 0
        assert warm_cal["warm_start"]
        assert warm_cal["probe_seconds_saved"] > 0
        # Only the training provenance may differ — the scheduling
        # trajectory itself is reproduced byte-for-byte.
        assert json.dumps(warm, sort_keys=True) == json.dumps(
            cold, sort_keys=True
        )


class TestKernelShardInvariance:
    """Intra-task sharded kernels (``--kernel-workers``): the shard
    count changes where rounds run, never what they compute — every
    ``pack_job`` payload and rendered experiment row must stay
    byte-identical across shard counts 1/2/7, pool on/off and mapped
    graphs."""

    KINDS = ("bppr", "mssp", "bkhs")
    WORKER_COUNTS = (1, 2, 7)
    BATCH_UNITS = 16.0

    def _job(self, kind, workers):
        from repro.engines.base import EngineSession
        from repro.engines.registry import create_engine
        from repro.sim.metrics import JobMetrics, pack_job

        clear_cache()
        kernel_pool.reset_kernel_pool()
        if workers > 1:
            kernel_pool.configure_kernel_workers(
                workers, min_shard_candidates=1
            )
        graph = load_dataset("dblp", scale=SCALE)
        cluster = cluster_by_name("galaxy-8", scale=SCALE)
        engine = create_engine("pregel+", cluster)
        session = EngineSession(
            engine, make_task(kind, graph, self.BATCH_UNITS), seed=7
        )
        job = JobMetrics(
            engine=engine.name,
            task=kind,
            dataset=graph.name,
            cluster=cluster.name,
            num_machines=cluster.num_machines,
            total_workload=2 * self.BATCH_UNITS,
            batch_sizes=[self.BATCH_UNITS, self.BATCH_UNITS],
        )
        for _ in range(2):
            job.batches.append(session.run_batch(self.BATCH_UNITS))
        dispatches = kernel_pool.kernel_pool_stats()["sharded_dispatches"]
        kernel_pool.reset_kernel_pool()
        return bytes(pack_job(job)["payload"]), dispatches

    @pytest.mark.parametrize("kind", KINDS)
    def test_pack_job_across_shard_counts(self, kind):
        serial, _ = self._job(kind, 1)
        for workers in self.WORKER_COUNTS[1:]:
            sharded, dispatches = self._job(kind, workers)
            assert dispatches > 0, (kind, workers, "sharding never ran")
            assert sharded == serial, (kind, workers)

    def test_experiments_across_shard_counts(self):
        baseline = _run(jobs=1)
        for workers in self.WORKER_COUNTS[1:]:
            kernel_pool.configure_kernel_workers(
                workers, min_shard_candidates=1
            )
            assert _run(jobs=1) == baseline, workers

    def test_pool_off_matches_inline_shards(self):
        """The same shard plan run inline (pool off) and on the pool."""
        import numpy as np

        from repro.graph.csr import segment_min_sharded, segment_sum_sharded

        rng = np.random.default_rng(3)
        rows = rng.integers(0, 6, size=503)
        cols = rng.integers(0, 41, size=503)
        values = rng.random(503)
        counts = np.ones(503)
        inline_min = segment_min_sharded(rows, cols, values, 41, 5)
        inline_sum = segment_sum_sharded(rows, cols, counts, 41, 5)
        kernel_pool.configure_kernel_workers(5, min_shard_candidates=1)
        pooled_min = segment_min_sharded(rows, cols, values, 41, 5)
        pooled_sum = segment_sum_sharded(rows, cols, counts, 41, 5)
        for inline, pooled in ((inline_min, pooled_min),
                               (inline_sum, pooled_sum)):
            for a, b in zip(inline, pooled):
                assert a.tobytes() == b.tobytes()

    def test_mapped_graphs_with_shards(self, tmp_path, monkeypatch):
        from repro.graph import csr

        # One budget on both sides (GraphD models it): first no graph
        # streams and none is on disk, then the large ones do and all are.
        csr.configure_streaming(BUDGET)
        try:
            monkeypatch.setattr(csr, "MIN_STREAM_BLOCK_ARCS", 1 << 40)
            baseline = _run(jobs=1)
            monkeypatch.undo()
            kernel_pool.configure_kernel_workers(7, min_shard_candidates=1)
            configure_cache(directory=str(tmp_path))
            mapped_sharded = _run(jobs=1)
        finally:
            csr.configure_streaming(None)
        assert mapped_sharded == baseline


class TestShardSplitProperties:
    """Hypothesis: the sharded segment reductions are shard-split
    invariant — any shard count folds to the exact bytes of the
    monolithic reduction (min always; sum in the all-ones /
    integer-valued exactness regime every call site keeps)."""

    @staticmethod
    def _compare(fn_mono, fn_sharded, rows, cols, values, num_cols, shards):
        import numpy as np

        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        mono = fn_mono(rows, cols, values, num_cols)
        sharded = fn_sharded(rows, cols, values, num_cols, shards)
        for a, b in zip(mono, sharded):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_segment_min_shard_split_invariance(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.graph.csr import segment_min, segment_min_sharded

        @settings(max_examples=60, deadline=None)
        @given(data=st.data())
        def run(data):
            num_rows = data.draw(st.integers(1, 5))
            num_cols = data.draw(st.integers(1, 9))
            size = data.draw(st.integers(0, 80))
            rows = data.draw(
                st.lists(st.integers(0, num_rows - 1),
                         min_size=size, max_size=size)
            )
            cols = data.draw(
                st.lists(st.integers(0, num_cols - 1),
                         min_size=size, max_size=size)
            )
            values = data.draw(
                st.lists(
                    st.floats(allow_nan=False, width=64),
                    min_size=size, max_size=size,
                )
            )
            shards = data.draw(st.integers(1, 9))
            self._compare(
                segment_min, segment_min_sharded,
                rows, cols, values, num_cols, shards,
            )

        run()

    def test_segment_sum_shard_split_invariance(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.graph.csr import segment_sum, segment_sum_sharded

        @settings(max_examples=60, deadline=None)
        @given(data=st.data())
        def run(data):
            num_rows = data.draw(st.integers(1, 5))
            num_cols = data.draw(st.integers(1, 9))
            size = data.draw(st.integers(0, 80))
            rows = data.draw(
                st.lists(st.integers(0, num_rows - 1),
                         min_size=size, max_size=size)
            )
            cols = data.draw(
                st.lists(st.integers(0, num_cols - 1),
                         min_size=size, max_size=size)
            )
            # The exactness regime: integer-valued float64 counts (the
            # walk tallies every production call site passes).
            values = data.draw(
                st.lists(st.integers(-(2 ** 40), 2 ** 40),
                         min_size=size, max_size=size)
            )
            shards = data.draw(st.integers(1, 9))
            self._compare(
                segment_sum, segment_sum_sharded,
                rows, cols, values, num_cols, shards,
            )

        run()
