"""Property and integration tests for the serving tier's result cache
(repro.perf.cache.ResultCache + repro.sched.service wiring).

Three invariants carry the feature:

* **single-flight** — N duplicate concurrent requests cause exactly one
  engine execution, and every response carries byte-identical payload;
* **TTL monotonicity** — once a cached entry has expired it never
  resurfaces (without a fresh store);
* **bytes budget** — the cache's resident bytes never exceed its LRU
  budget, under arbitrary interleavings of stores and expiries.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import cluster_by_name
from repro.engines.registry import create_engine
from repro.graph.datasets import load_dataset
from repro.perf.cache import ResultCache
from repro.sched.arrivals import TaskRequest
from repro.sched.policy import ServicePolicy
from repro.sched.service import SchedulerService

SCALE = 400


@pytest.fixture(scope="module")
def graph():
    return load_dataset("dblp", scale=SCALE)


@pytest.fixture(scope="module")
def cluster():
    return cluster_by_name("galaxy-8", scale=SCALE)


def make_service(cluster, graph, kinds=("bppr",), **policy_kwargs):
    policy = ServicePolicy(result_cache=True, **policy_kwargs)
    return SchedulerService(
        create_engine("pregel+", cluster),
        graph,
        kinds=kinds,
        seed=9,
        policy=policy,
    )


class TestSingleFlightService:
    """The invariant through the whole serving stack."""

    def test_duplicates_execute_exactly_once(self, cluster, graph):
        service = make_service(cluster, graph)
        requests = [TaskRequest(i, "bppr", 8.0, 0.0) for i in range(5)]
        metrics = service.run(requests)

        assert len(service.executed_batches) == 1
        assert metrics.result_cache["coalesced"] == 4
        assert metrics.result_cache["stores"] == 1
        served = sorted(t.served_by for t in metrics.latencies)
        assert served == ["coalesced"] * 4 + ["executed"]
        payloads = {bytes(service.responses[i]) for i in range(5)}
        assert len(payloads) == 1

    def test_hit_is_byte_identical_to_cold_run(self, cluster, graph):
        service = make_service(cluster, graph)
        requests = [
            TaskRequest(0, "bppr", 8.0, 0.0),
            TaskRequest(1, "bppr", 8.0, 1.0e6),  # long after completion
        ]
        metrics = service.run(requests)
        assert metrics.result_cache["hits"] == 1
        assert service.responses[1] == service.responses[0]

        # A fresh service executing the same content cold must produce
        # the exact bytes the hit replayed.
        cold = make_service(cluster, graph)
        cold.run([TaskRequest(7, "bppr", 8.0, 0.0)])
        assert cold.responses[7] == service.responses[1]

    def test_different_content_never_shares_payloads(self, cluster, graph):
        service = make_service(cluster, graph)
        requests = [
            TaskRequest(0, "bppr", 8.0, 0.0),
            TaskRequest(1, "bppr", 9.0, 0.0),  # different units
        ]
        metrics = service.run(requests)
        assert metrics.result_cache["coalesced"] == 0
        assert service.responses[0] != service.responses[1]

    def test_dropped_leader_drops_its_joiners(self, cluster, graph):
        service = make_service(
            cluster,
            graph,
            kinds=("bppr", "mssp"),
            drop_expired=True,
        )
        requests = [
            # A long job occupies the service first.
            TaskRequest(0, "mssp", 24.0, 0.0),
            # Leader with a hopeless deadline, plus one duplicate that
            # coalesces onto it while it waits.
            TaskRequest(1, "bppr", 8.0, 1.0, deadline_seconds=0.5),
            TaskRequest(2, "bppr", 8.0, 2.0),
        ]
        metrics = service.run(requests)
        assert metrics.dropped_requests == 2
        dropped = sorted(d["task_id"] for d in metrics.drop_log)
        assert dropped == [1, 2]
        assert all(d["reason"] == "expired" for d in metrics.drop_log)
        assert 1 not in service.responses and 2 not in service.responses


class TestResultCacheProtocol:
    def test_enlist_requires_a_leader(self):
        cache = ResultCache()
        with pytest.raises(KeyError):
            cache.enlist(("k",), "token")

    def test_leader_then_joiners_fan_out_in_order(self):
        cache = ResultCache()
        key = ("k",)
        assert cache.leader(key) is True
        assert cache.leader(key) is False
        cache.enlist(key, "a")
        cache.enlist(key, "b")
        assert cache.complete(key, b"payload", 0.0) == ["a", "b"]
        assert not cache.inflight(key)
        assert cache.lookup(key, 0.0) == b"payload"
        assert cache.stats.coalesced == 2

    def test_abandon_returns_joiners_and_clears_the_key(self):
        cache = ResultCache()
        key = ("k",)
        cache.leader(key)
        cache.enlist(key, "x")
        assert cache.abandon(key) == ["x"]
        assert not cache.inflight(key)
        assert cache.lookup(key, 0.0) is None
        # The key is free again: a new leader can register.
        assert cache.leader(key) is True

    def test_oversized_payload_is_not_stored(self):
        cache = ResultCache(max_bytes=4)
        cache.leader(("k",))
        cache.complete(("k",), b"12345", 0.0)
        assert len(cache) == 0
        assert cache.total_bytes == 0
        assert cache.stats.evictions == 1


class TestTTLExpiry:
    @settings(max_examples=80, deadline=None)
    @given(
        ttl=st.floats(min_value=0.1, max_value=50.0),
        stored_at=st.floats(min_value=0.0, max_value=100.0),
        probes=st.lists(
            st.floats(min_value=0.0, max_value=1000.0),
            min_size=1,
            max_size=12,
        ),
    )
    def test_expiry_is_exact_and_monotonic(self, ttl, stored_at, probes):
        cache = ResultCache(ttl_seconds=ttl)
        key = ("k",)
        assert cache.lookup(key, stored_at) is None
        assert cache.leader(key)
        cache.complete(key, b"abc", stored_at)

        alive = True
        for now in sorted(stored_at + p for p in probes):
            hit = cache.lookup(key, now) is not None
            assert hit == ((now - stored_at) <= ttl)
            # Monotonic: once expired, never alive again.
            assert alive or not hit
            alive = hit


class TestBytesBudget:
    @settings(max_examples=80, deadline=None)
    @given(
        budget=st.integers(min_value=1, max_value=4000),
        ttl=st.one_of(
            st.none(), st.floats(min_value=0.5, max_value=30.0)
        ),
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),     # key id
                st.integers(min_value=1, max_value=2000),  # payload size
                st.floats(min_value=0.0, max_value=20.0),  # time step
            ),
            max_size=40,
        ),
    )
    def test_never_exceeds_budget(self, budget, ttl, ops):
        cache = ResultCache(ttl_seconds=ttl, max_bytes=float(budget))
        now = 0.0
        for key_id, size, step in ops:
            now += step
            key = ("k", key_id)
            if cache.lookup(key, now) is None and cache.leader(key):
                cache.complete(key, b"x" * size, now)
            assert cache.total_bytes <= budget
            assert cache.total_bytes >= 0
            assert len(cache) <= budget  # every entry holds >= 1 byte

class TestTenantQuotas:
    """Per-tenant byte quotas mirror the admission memory quotas: a
    tenant over its cap evicts its *own* least-recent entries first,
    and never dips into another tenant's residency."""

    def _cache(self, **tenant_bytes):
        return ResultCache(max_bytes=100.0, tenant_bytes=tenant_bytes)

    def _store(self, cache, key_id, payload, tenant, now=0.0):
        key = ("k", key_id)
        cache.leader(key)
        cache.complete(key, payload, now, tenant=tenant)

    def test_tenant_over_cap_evicts_its_own_lru(self):
        cache = self._cache(acme=10.0)
        self._store(cache, 0, b"aaaa", "acme")     # 4 bytes
        self._store(cache, 1, b"bbbb", "acme")     # 8 bytes
        self._store(cache, 2, b"gggggggg", "globex")
        self._store(cache, 3, b"cccc", "acme")     # would be 12 > 10
        # acme's oldest entry went; globex's survived untouched.
        assert cache.lookup(("k", 0), 0.0) is None
        assert cache.lookup(("k", 1), 0.0) == b"bbbb"
        assert cache.lookup(("k", 3), 0.0) == b"cccc"
        assert cache.lookup(("k", 2), 0.0) == b"gggggggg"
        assert cache.tenant_resident_bytes("acme") == 8.0

    def test_payload_over_tenant_cap_is_never_stored(self):
        cache = self._cache(acme=4.0)
        self._store(cache, 0, b"12345", "acme")
        assert cache.lookup(("k", 0), 0.0) is None
        assert cache.tenant_resident_bytes("acme") == 0.0
        assert cache.tenant_summary()["acme"]["cache_evictions"] == 1

    def test_unlisted_tenant_shares_global_budget_only(self):
        cache = self._cache(acme=8.0)
        self._store(cache, 0, b"x" * 60, "globex")
        self._store(cache, 1, b"y" * 40, "globex")
        assert cache.total_bytes == 100.0

    def test_tenant_summary_counts_hits_and_evictions(self):
        cache = self._cache(acme=8.0)
        self._store(cache, 0, b"aaaa", "acme")
        assert cache.lookup(("k", 0), 0.0, tenant="acme") == b"aaaa"
        assert cache.lookup(("k", 0), 0.0, tenant="globex") == b"aaaa"
        self._store(cache, 1, b"bbbbbbbb", "acme")  # evicts key 0
        summary = cache.tenant_summary()
        assert summary["acme"]["cache_hits"] == 1
        assert summary["acme"]["cache_stores"] == 2
        assert summary["acme"]["cache_evictions"] == 1
        assert summary["acme"]["cache_bytes"] == 8.0
        assert summary["globex"]["cache_hits"] == 1

    def test_quota_invariant_under_arbitrary_interleavings(self):
        @settings(max_examples=60, deadline=None)
        @given(
            caps=st.tuples(
                st.integers(min_value=1, max_value=40),
                st.integers(min_value=1, max_value=40),
            ),
            ops=st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=7),     # key id
                    st.integers(min_value=1, max_value=30),    # size
                    st.sampled_from(["acme", "globex", "dey"]),
                ),
                max_size=40,
            ),
        )
        def check(caps, ops):
            tenant_bytes = {"acme": float(caps[0]), "globex": float(caps[1])}
            cache = ResultCache(
                max_bytes=60.0, tenant_bytes=tenant_bytes
            )
            for key_id, size, tenant in ops:
                key = ("k", key_id)
                if cache.lookup(key, 0.0, tenant=tenant) is None:
                    if cache.leader(key):
                        cache.complete(key, b"x" * size, 0.0, tenant=tenant)
                assert cache.total_bytes <= 60.0
                for name, cap in tenant_bytes.items():
                    assert cache.tenant_resident_bytes(name) <= cap

        check()


class TestTenantQuotaService:
    def test_quotas_surface_in_tenant_summary(self, cluster, graph):
        service = make_service(
            cluster,
            graph,
            result_cache_bytes=1e9,
            tenant_cache_quotas={"acme": 0.5, "globex": 0.5},
        )
        requests = [
            TaskRequest(0, "bppr", 8.0, 0.0, tenant="acme"),
            TaskRequest(1, "bppr", 8.0, 1.0e6, tenant="globex"),  # hit
        ]
        metrics = service.run(requests)
        assert metrics.tenant_cache is not None
        summary = metrics.tenant_summary()
        assert summary["acme"]["cache_stores"] == 1
        assert summary["globex"]["cache_hits"] == 1
        assert summary["acme"]["cache_bytes"] > 0
