"""The query-serving subsystem: fingerprints, epochs, caches, admission, server.

The load-bearing guarantees under test:

* **Bit-identity** — a cached answer is indistinguishable from a freshly
  computed one at the same α (the cache can only change *when* work
  happens, never *what* comes back).  Pinned by direct tests and a
  hypothesis property.
* **Invalidation by key rotation** — mutating any relation advances the
  database's publication epoch, so the result cache can never serve a
  pre-mutation answer afterwards, on every storage backend under both the
  serial and process shard executors.
* **Admission policies** — reject sheds, queue blocks, degrade-alpha steps
  α down the documented ladder and reports the served α and η.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import SHARD_EXECUTORS, assert_identical, to_backend
from repro import Beas, QueryServer, configure, parse_query, query_fingerprint
from repro.algebra import predicates
from repro.algebra.ast import Scan
from repro.errors import QueryError, ServerOverloadedError, ServingError
from repro.relational.store import list_backends
from repro.serving import (
    ALPHA_DEGRADE_LADDER,
    AdmissionController,
    CacheBackend,
    LRUTTLCache,
    MISSING,
    NullCache,
    ServingStats,
    cache_backend_class,
    list_cache_backends,
    make_cache,
    percentile,
    register_cache_backend,
)

QUERIES = [
    "SELECT e.eid, e.salary FROM emp e WHERE e.dept = 2",
    "SELECT e.eid FROM emp e WHERE e.salary <= 60 AND e.grade = 'g1'",
    "SELECT e.eid, d.name FROM emp e, dept d WHERE e.dept = d.did AND d.did = 1",
    "SELECT e.dept, SUM(e.salary) FROM emp e GROUP BY e.dept",
]


@pytest.fixture(autouse=True)
def _clear_program_cache():
    """The program cache is process-wide: empty it (conftest restores the settings)."""
    yield
    predicates.clear_program_cache()


# ---------------------------------------------------------------------------
# Canonical query fingerprints
# ---------------------------------------------------------------------------


class TestQueryFingerprint:
    def test_identical_queries_identical_fingerprints(self):
        sql = QUERIES[0]
        assert query_fingerprint(parse_query(sql)) == query_fingerprint(parse_query(sql))

    def test_different_constant_differs(self):
        a = parse_query("SELECT e.eid FROM emp e WHERE e.dept = 2")
        b = parse_query("SELECT e.eid FROM emp e WHERE e.dept = 3")
        assert query_fingerprint(a) != query_fingerprint(b)

    def test_value_types_distinguished(self):
        a = parse_query("SELECT e.eid FROM emp e WHERE e.dept = 2")
        b = parse_query("SELECT e.eid FROM emp e WHERE e.dept = 2.0")
        assert query_fingerprint(a) != query_fingerprint(b)

    def test_every_query_shape_unique(self):
        prints = {query_fingerprint(parse_query(sql)) for sql in QUERIES}
        assert len(prints) == len(QUERIES)

    def test_distinct_instances_same_fingerprint(self):
        # Same constructor arguments => same fingerprint, regardless of how
        # or when the instances were produced (no id()/hash-seed dependence).
        assert query_fingerprint(Scan("emp", "e")) == query_fingerprint(Scan("emp", "e"))
        assert query_fingerprint(Scan("emp", "e")) != query_fingerprint(Scan("emp", "f"))

    def test_rejects_non_ast(self):
        with pytest.raises(QueryError):
            query_fingerprint("SELECT * FROM emp")

    def test_result_carries_fingerprint(self, tiny_beas):
        ast = parse_query(QUERIES[0])
        result = tiny_beas.answer(ast, alpha=0.5)
        assert result.fingerprint == query_fingerprint(ast)


# ---------------------------------------------------------------------------
# Publication epochs
# ---------------------------------------------------------------------------


class TestPublicationEpoch:
    def test_append_advances_epoch(self, tiny_db):
        before = tiny_db.publication_epoch
        tiny_db.relation("emp").append((999, 1, 55.0, "g1"))
        assert tiny_db.publication_epoch > before

    def test_epoch_stable_without_mutation(self, tiny_db):
        assert tiny_db.publication_epoch == tiny_db.publication_epoch
        tiny_db.scan("emp")  # reads never advance the epoch
        assert tiny_db.publication_epoch == tiny_db.publication_epoch

    def test_set_relation_keeps_epoch_monotonic(self, tiny_db, tiny_schema):
        from repro import Relation

        tiny_db.relation("dept").append((9, "dept_9", 1900.0))
        before = tiny_db.publication_epoch
        # Replace with a fresh instance whose own store counter restarts at 0.
        replacement = Relation(
            tiny_schema.relation("dept"), [(d, f"d{d}", 100.0 * d) for d in range(3)]
        )
        tiny_db.set_relation("dept", replacement)
        assert tiny_db.publication_epoch > before

    def test_every_backend_mutation_advances(self, tiny_db, backend):
        db = to_backend(tiny_db, backend)
        before = db.publication_epoch
        db.relation("emp").append((998, 0, 44.0, "g0"))
        assert db.publication_epoch > before


# ---------------------------------------------------------------------------
# Compiled-program cache (predicates layer)
# ---------------------------------------------------------------------------


class TestProgramCache:
    def test_disabled_by_default_then_hits_when_enabled(self, tiny_db):
        from repro.algebra.predicates import (
            AttrRef,
            CompareOp,
            Comparison,
            Conjunction,
            Const,
        )

        schema = tiny_db.relation("emp").schema
        cond = Conjunction.of(
            [Comparison(AttrRef(None, "salary"), CompareOp.LE, Const(60.0))]
        )
        configure(program_cache_capacity=0)
        predicates.clear_program_cache()
        p1 = predicates.cached_program(cond, schema)
        p2 = predicates.cached_program(cond, schema)
        assert p1 is not p2  # disabled: fresh compile each time

        configure(program_cache_capacity=4)
        p3 = predicates.cached_program(cond, schema)
        p4 = predicates.cached_program(cond, schema)
        assert p3 is p4
        info = predicates.program_cache_info()
        assert info["hits"] >= 1 and info["size"] == 1

        store = tiny_db.relation("emp").store
        assert p1.mask(store) == p3.mask(store)  # cache never changes results

    def test_lru_eviction_at_capacity(self, tiny_db):
        from repro.algebra.predicates import (
            AttrRef,
            CompareOp,
            Comparison,
            Conjunction,
            Const,
        )

        schema = tiny_db.relation("emp").schema
        configure(program_cache_capacity=2)
        predicates.clear_program_cache()
        for threshold in (10.0, 20.0, 30.0):
            cond = Conjunction.of(
                [Comparison(AttrRef(None, "salary"), CompareOp.LE, Const(threshold))]
            )
            predicates.cached_program(cond, schema)
        assert predicates.program_cache_info()["size"] == 2

    def test_shrinking_capacity_evicts(self, tiny_db):
        from repro.algebra.predicates import (
            AttrRef,
            CompareOp,
            Comparison,
            Conjunction,
            Const,
        )

        schema = tiny_db.relation("emp").schema
        configure(program_cache_capacity=8)
        predicates.clear_program_cache()
        for threshold in (10.0, 20.0, 30.0):
            cond = Conjunction.of(
                [Comparison(AttrRef(None, "salary"), CompareOp.LE, Const(threshold))]
            )
            predicates.cached_program(cond, schema)
        configure(program_cache_capacity=1)
        assert predicates.program_cache_info()["size"] == 1
        configure(program_cache_capacity=0)
        assert predicates.program_cache_info()["size"] == 0


# ---------------------------------------------------------------------------
# Cache backends
# ---------------------------------------------------------------------------


class TestCacheBackends:
    def test_lru_get_put_and_eviction(self):
        cache = LRUTTLCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes recency
        cache.put("c", 3)  # evicts "b" (LRU)
        assert cache.get("b") is MISSING
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.info()["evictions"] == 1

    def test_cached_none_distinct_from_missing(self):
        cache = LRUTTLCache()
        cache.put("k", None)
        assert cache.get("k") is None
        assert cache.get("absent") is MISSING

    def test_ttl_expiry(self):
        cache = LRUTTLCache(max_entries=4, ttl_seconds=0.01)
        cache.put("k", 1)
        assert cache.get("k") == 1
        time.sleep(0.03)
        assert cache.get("k") is MISSING
        assert cache.info()["expirations"] == 1

    def test_put_overflow_sweeps_expired_before_evicting(self):
        """Regression: overflow discards dead (TTL-expired) entries first.

        The old code LRU-popped on overflow without looking at timestamps,
        so a live entry could be evicted to make room while expired entries
        kept occupying slots until someone happened to ``get`` their exact
        keys.
        """
        cache = LRUTTLCache(max_entries=3, ttl_seconds=0.01)
        cache.put("dead-1", 1)
        cache.put("dead-2", 2)
        time.sleep(0.03)  # both entries are now past their TTL
        cache.put("live", 3)
        cache.put("overflow", 4)  # 4th entry: sweep the dead, keep the live
        assert cache.get("live") == 3
        assert cache.get("overflow") == 4
        info = cache.info()
        assert info["size"] == 2
        # The sweep counts as expiration, not eviction — no live entry died.
        assert info["expirations"] == 2
        assert info["evictions"] == 0

    def test_put_overflow_still_evicts_lru_when_nothing_expired(self):
        cache = LRUTTLCache(max_entries=2, ttl_seconds=60.0)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("a") is MISSING  # oldest live entry was LRU-evicted
        assert cache.get("b") == 2
        assert cache.get("c") == 3
        info = cache.info()
        assert info["evictions"] == 1
        assert info["expirations"] == 0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            LRUTTLCache(max_entries=0)
        with pytest.raises(ValueError):
            LRUTTLCache(ttl_seconds=0)

    def test_null_cache_never_stores(self):
        cache = NullCache()
        cache.put("k", 1)
        assert cache.get("k") is MISSING
        assert len(cache) == 0

    def test_invalidate_and_clear(self):
        cache = LRUTTLCache()
        cache.put("k", 1)
        assert cache.invalidate("k") is True
        assert cache.invalidate("k") is False
        cache.put("k", 1)
        cache.clear()
        assert len(cache) == 0

    def test_registry(self):
        assert set(list_cache_backends()) >= {"lru-ttl", "none"}
        assert cache_backend_class("lru-ttl") is LRUTTLCache
        with pytest.raises(ValueError):
            cache_backend_class("no-such-cache")
        with pytest.raises(ValueError):
            register_cache_backend("", LRUTTLCache)

    def test_register_custom_backend(self):
        class DictCache(LRUTTLCache):
            backend = "test-dict"

        register_cache_backend("test-dict", DictCache)
        try:
            assert "test-dict" in list_cache_backends()
            assert isinstance(make_cache("test-dict"), DictCache)
        finally:
            from repro.serving import cache as cache_module

            cache_module._CACHE_BACKENDS.pop("test-dict", None)

    def test_make_cache_specs(self):
        instance = LRUTTLCache(max_entries=3)
        assert make_cache(instance) is instance
        built = make_cache("lru-ttl", max_entries=7, ttl_seconds=9.0)
        assert built.max_entries == 7 and built.ttl_seconds == 9.0
        assert isinstance(make_cache(None), LRUTTLCache)
        assert isinstance(make_cache("none"), NullCache)
        with pytest.raises(ValueError):
            make_cache("bogus")
        with pytest.raises(ValueError):
            make_cache(42)


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_default_policy_is_the_setting(self):
        configure(admission_policy="reject")
        assert AdmissionController().policy == "reject"

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_concurrency=0)
        with pytest.raises(ValueError):
            AdmissionController(policy="nope")
        with pytest.raises(ValueError):
            AdmissionController(ladder=(0.5, 0.25))  # must start at 1.0
        with pytest.raises(ValueError):
            AdmissionController(ladder=(1.0, 1.5))  # out of (0, 1]
        with pytest.raises(ValueError):
            AdmissionController(ladder=(1.0, 0.5, 0.5))  # not decreasing

    def test_alpha_validation(self):
        controller = AdmissionController(policy="queue")
        with pytest.raises(ValueError):
            controller.admit(0.0)
        with pytest.raises(ValueError):
            controller.admit(1.5)

    def test_reject_sheds_at_saturation(self):
        controller = AdmissionController(max_concurrency=2, policy="reject")
        controller.admit(0.5)
        controller.admit(0.5)
        with pytest.raises(ServerOverloadedError) as exc_info:
            controller.admit(0.5)
        assert exc_info.value.in_flight == 2
        assert exc_info.value.max_concurrency == 2
        controller.release()
        ticket = controller.admit(0.5)  # a freed slot admits again
        assert ticket.served_alpha == 0.5 and not ticket.degraded

    def test_queue_blocks_until_release(self):
        controller = AdmissionController(max_concurrency=1, policy="queue")
        controller.admit(0.5)
        admitted = threading.Event()

        def second():
            controller.admit(0.5)
            admitted.set()

        thread = threading.Thread(target=second)
        thread.start()
        try:
            assert not admitted.wait(0.05)  # still parked: no free slot
            controller.release()
            assert admitted.wait(2.0)  # woken by the freed slot
        finally:
            thread.join(2.0)
        assert controller.in_flight == 1

    def test_degrade_ladder(self):
        controller = AdmissionController(max_concurrency=2, policy="degrade-alpha")
        tickets = [controller.admit(0.8) for _ in range(2 * len(ALPHA_DEGRADE_LADDER) + 3)]
        rungs = [t.ladder_rung for t in tickets]
        # Every 2 in-flight steps one rung down, capped at the last rung.
        expected = [min(i // 2, len(ALPHA_DEGRADE_LADDER) - 1) for i in range(len(tickets))]
        assert rungs == expected
        for ticket in tickets:
            assert ticket.served_alpha == pytest.approx(
                0.8 * ALPHA_DEGRADE_LADDER[ticket.ladder_rung]
            )
            assert ticket.degraded == (ticket.ladder_rung > 0)

    def test_release_without_admit(self):
        controller = AdmissionController()
        with pytest.raises(ServingError):
            controller.release()


# ---------------------------------------------------------------------------
# Serving stats
# ---------------------------------------------------------------------------


class TestServingStats:
    def test_percentile(self):
        samples = list(range(1, 101))
        assert percentile(samples, 0.50) == 50
        assert percentile(samples, 0.95) == 95
        assert percentile(samples, 0.99) == 99
        assert percentile(samples, 1.0) == 100
        assert percentile([], 0.5) is None
        with pytest.raises(ValueError):
            percentile(samples, 0.0)

    def test_snapshot_shape(self):
        stats = ServingStats()
        stats.record_request(0.01, 0.5, result_cache_hit=False, plan_cache_hit=False, degraded=False)
        stats.record_request(0.001, 0.5, result_cache_hit=True, plan_cache_hit=False, degraded=False)
        stats.record_request(0.02, 0.25, result_cache_hit=False, plan_cache_hit=True, degraded=True, wait_seconds=0.1)
        snap = stats.snapshot()
        assert snap["counters"]["requests"] == 3
        assert snap["counters"]["result_cache_hits"] == 1
        assert snap["counters"]["plan_cache_hits"] == 1
        assert snap["counters"]["degraded"] == 1
        assert snap["counters"]["queued"] == 1
        assert snap["result_cache_hit_rate"] == pytest.approx(1 / 3)
        assert snap["latency_seconds"]["samples"] == 3
        assert snap["served_alpha_histogram"] == {"0.25": 1, "0.5": 2}
        import json

        json.dumps(snap)  # must be JSON-serializable as-is

    def test_validation(self):
        with pytest.raises(ValueError):
            ServingStats(max_latency_samples=0)

    def test_latency_window_slides(self):
        """Regression: the sample buffer is a ring over the *latest* requests.

        The old code stopped appending at ``max_latency_samples``, freezing
        the percentiles on the first window forever — a server that got slow
        after warm-up would keep reporting its warm-up latencies.
        """
        stats = ServingStats(max_latency_samples=4)
        for _ in range(4):
            stats.record_request(1.0, 0.5, result_cache_hit=False, plan_cache_hit=False, degraded=False)
        for _ in range(4):
            stats.record_request(2.0, 0.5, result_cache_hit=False, plan_cache_hit=False, degraded=False)
        snap = stats.snapshot()
        assert snap["counters"]["requests"] == 8  # counters are unbounded
        assert snap["latency_seconds"]["samples"] == 4  # window is bounded
        assert snap["latency_seconds"]["p50"] == 2.0  # ...and slid past the 1.0s
        assert snap["latency_seconds"]["max"] == 2.0

    def test_latency_window_partial_overwrite(self):
        stats = ServingStats(max_latency_samples=3)
        for seconds in (1.0, 2.0, 3.0, 4.0):
            stats.record_request(seconds, 0.5, result_cache_hit=False, plan_cache_hit=False, degraded=False)
        snap = stats.snapshot()
        # Ring holds {2.0, 3.0, 4.0}: the oldest sample (1.0) was overwritten.
        assert snap["latency_seconds"]["samples"] == 3
        assert snap["latency_seconds"]["p50"] == 3.0
        assert snap["latency_seconds"]["max"] == 4.0


# ---------------------------------------------------------------------------
# QueryServer end to end
# ---------------------------------------------------------------------------


class TestQueryServer:
    def test_warm_hit_is_bit_identical(self, tiny_beas):
        server = QueryServer(tiny_beas)
        for sql in QUERIES:
            cold = server.serve(sql, alpha=0.5)
            warm = server.serve(sql, alpha=0.5)
            assert not cold.result_cache_hit and warm.result_cache_hit
            assert_identical(cold.rows, warm.rows)
            assert warm.eta == cold.eta
            fresh = tiny_beas.answer(sql, alpha=0.5)
            assert_identical(warm.rows, fresh.rows)
            assert warm.result.eta == fresh.eta

    def test_distinct_alphas_distinct_entries(self, tiny_beas):
        server = QueryServer(tiny_beas)
        server.serve(QUERIES[0], alpha=0.5)
        other = server.serve(QUERIES[0], alpha=0.25)
        assert not other.result_cache_hit  # different α never shares an entry

    def test_enforce_budget_keying(self, tiny_beas):
        server = QueryServer(tiny_beas)
        server.serve(QUERIES[0], alpha=0.5, enforce_budget=True)
        unenforced = server.serve(QUERIES[0], alpha=0.5, enforce_budget=False)
        assert not unenforced.result_cache_hit

    def test_plan_memo_hit_on_result_miss(self, tiny_beas):
        server = QueryServer(tiny_beas)
        server.serve(QUERIES[0], alpha=0.5)
        server.result_cache.clear()  # keep the plan memo
        replay = server.serve(QUERIES[0], alpha=0.5)
        assert not replay.result_cache_hit and replay.plan_cache_hit

    def test_a_text_is_fingerprinted_once(self, tiny_beas, monkeypatch):
        """Miss, result hit or a later ``Beas.answer``: one fingerprint per text, the one the engine reports."""
        from repro.core import framework
        from repro.serving import server as server_module

        calls = [0]

        def counted(ast):
            calls[0] += 1
            return query_fingerprint(ast)

        monkeypatch.setattr(server_module, "query_fingerprint", counted)
        monkeypatch.setattr(framework, "query_fingerprint", counted)
        server = QueryServer(tiny_beas)
        for expected_hit in (False, True):
            envelope = server.serve(QUERIES[2], alpha=0.5)
            assert envelope.result_cache_hit is expected_hit
            assert calls[0] == 1
            assert envelope.result.fingerprint == envelope.fingerprint == query_fingerprint(
                parse_query(QUERIES[2])
            )
        assert tiny_beas.answer(QUERIES[2], alpha=0.5).fingerprint == envelope.fingerprint
        assert calls[0] == 1
        # A QueryNode is not looked up: it is fingerprinted per request, as before.
        assert server.serve(parse_query(QUERIES[2]), alpha=0.5).fingerprint == envelope.fingerprint
        assert calls[0] == 2

    def test_degraded_alpha_reported(self, tiny_beas):
        admission = AdmissionController(max_concurrency=1, policy="degrade-alpha")
        server = QueryServer(tiny_beas, admission=admission)
        admission.admit(0.5)  # occupy the only slot
        try:
            envelope = server.serve(QUERIES[0], alpha=0.5)
        finally:
            admission.release()
        assert envelope.degraded
        assert envelope.served_alpha == pytest.approx(0.25)
        assert envelope.requested_alpha == 0.5
        assert envelope.eta == envelope.result.eta
        assert envelope.result.alpha == pytest.approx(0.25)  # served, not requested
        snap = server.stats.snapshot()
        assert snap["counters"]["degraded"] == 1
        assert "0.25" in snap["served_alpha_histogram"]

    def test_degraded_entry_not_served_to_full_alpha(self, tiny_beas):
        admission = AdmissionController(max_concurrency=1, policy="degrade-alpha")
        server = QueryServer(tiny_beas, admission=admission)
        admission.admit(0.5)
        try:
            server.serve(QUERIES[0], alpha=0.5)  # cached under α=0.25
        finally:
            admission.release()
        full = server.serve(QUERIES[0], alpha=0.5)  # unloaded: full α now
        assert not full.result_cache_hit
        assert full.served_alpha == 0.5

    def test_null_cache_server(self, tiny_beas):
        server = QueryServer(tiny_beas, result_cache="none")
        first = server.serve(QUERIES[0], alpha=0.5)
        second = server.serve(QUERIES[0], alpha=0.5)
        assert not first.result_cache_hit and not second.result_cache_hit
        assert_identical(first.rows, second.rows)

    def test_reject_policy_through_server(self, tiny_beas):
        admission = AdmissionController(max_concurrency=1, policy="reject")
        server = QueryServer(tiny_beas, admission=admission)
        admission.admit(0.5)
        try:
            with pytest.raises(ServerOverloadedError):
                server.serve(QUERIES[0], alpha=0.5)
        finally:
            admission.release()
        # The failed admission must not leak a slot.
        assert admission.in_flight == 0
        assert server.serve(QUERIES[0], alpha=0.5).rows is not None

    def test_concurrent_serving_respects_limit_and_identity(self, tiny_beas):
        admission = AdmissionController(max_concurrency=2, policy="queue")
        server = QueryServer(tiny_beas, admission=admission)
        reference = tiny_beas.answer(QUERIES[1], alpha=0.5)
        errors, envelopes = [], []

        def client():
            try:
                for _ in range(5):
                    envelopes.append(server.serve(QUERIES[1], alpha=0.5))
            except Exception as exc:  # pragma: no cover - failure diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not errors
        assert len(envelopes) == 30
        for envelope in envelopes:
            assert_identical(envelope.rows, reference.rows)
        assert admission.in_flight == 0
        assert server.stats.snapshot()["counters"]["requests"] == 30

    def test_cache_info_shape(self, tiny_beas):
        server = QueryServer(tiny_beas)
        server.serve(QUERIES[0], alpha=0.5)
        info = server.cache_info()
        assert info["result_cache"]["backend"] == "lru-ttl"
        assert info["in_flight"] == 0
        assert info["policy"] in ("reject", "queue", "degrade-alpha")
        assert info["program_cache"]["capacity"] >= 0
        server.serve(QUERIES[0], alpha=0.25)
        assert server.cache_info()["statements"] == {"size": 1, "capacity": 1024, "hits": 1, "misses": 1}
        assert server.cache_info()["plans"] == {"size": 2, "capacity": 512}

    @pytest.mark.parametrize("executor", SHARD_EXECUTORS)
    def test_envelope_reports_only_its_own_request(self, tiny_db, tiny_beas, executor):
        """Router counters are process-wide, so a per-request delta would
        credit concurrent requests' shard tasks to whichever request read
        last: the envelope carries none, and ``cache_info()`` reports them
        whole."""
        configure(shard_executor=executor, process_min_rows=1)
        beas = Beas(to_backend(tiny_db, "sharded"), access_schema=tiny_beas.access_schema)
        server = QueryServer(beas)
        before = server.cache_info()["affinity"]
        envelope = server.serve(QUERIES[0], alpha=0.5)
        fields = {field.name for field in dataclasses.fields(envelope)}
        assert not fields & {"affinity_hits", "affinity_misses", "dispatch_retries"}
        after = server.cache_info()
        routed = sum(after["affinity"][key] - before[key] for key in ("hits", "steals"))
        assert (routed > 0) == (executor == "process")  # only the process executor routes
        assert "retries" in after["dispatch"]
        assert "dispatch_retries" not in server.stats.snapshot()["counters"]

    def test_clear_caches(self, tiny_beas):
        server = QueryServer(tiny_beas)
        server.serve(QUERIES[0], alpha=0.5)
        server.clear_caches()
        assert len(server.result_cache) == 0 and len(tiny_beas.plans) == 0
        assert server.cache_info()["statements"]["size"] == 0
        assert not server.serve(QUERIES[0], alpha=0.5).result_cache_hit


# ---------------------------------------------------------------------------
# Invalidation rides publication retirement, across backends × executors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("executor", SHARD_EXECUTORS)
@pytest.mark.parametrize("backend_name", sorted(set(list_backends())))
def test_mutation_invalidates_result_cache(tiny_db, backend_name, executor):
    """The result cache never serves a pre-mutation answer after a mutation.

    Mutating any relation store — including a :class:`ShardedStore`, where
    the same ``_invalidate`` call retires the process-mode publication —
    advances the publication epoch and thereby rotates every cache key.
    """
    from repro import ConstraintSpec

    configure(shard_executor=executor, process_min_rows=1)
    db = to_backend(tiny_db, backend_name)
    beas = Beas(
        db,
        constraints=[ConstraintSpec("dept", ("did",), ("name", "budget"), n=1)],
    )
    server = QueryServer(beas)
    sql = "SELECT e.eid FROM emp e WHERE e.dept = 2"
    cold = server.serve(sql, alpha=0.9)
    warm = server.serve(sql, alpha=0.9)
    assert warm.result_cache_hit

    # Mutate mid-stream: the sharded backends retire their publication
    # here, and every backend bumps its epoch.
    db.relation("emp").append((997, 2, 61.0, "g2"))

    post = server.serve(sql, alpha=0.9)
    assert not post.result_cache_hit  # the stale entry was never consulted
    assert not post.plan_cache_hit
    assert post.publication_epoch > warm.publication_epoch
    # The served answer is exactly what an uncached engine computes now.
    assert_identical(post.rows, beas.answer(sql, alpha=0.9).rows)
    # And hitting again post-mutation caches under the new epoch.
    assert server.serve(sql, alpha=0.9).result_cache_hit
    assert cold.fingerprint == post.fingerprint  # same query, new epoch


# ---------------------------------------------------------------------------
# Property: cached and uncached answers are bit-identical at equal α
# ---------------------------------------------------------------------------


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    sql=st.sampled_from(QUERIES),
    alpha=st.floats(min_value=0.05, max_value=1.0, allow_nan=False, allow_infinity=False),
)
def test_cached_answers_bit_identical_property(tiny_beas, sql, alpha):
    server = QueryServer(tiny_beas)
    fresh = tiny_beas.answer(sql, alpha=alpha)
    cold = server.serve(sql, alpha=alpha)
    warm = server.serve(sql, alpha=alpha)
    assert warm.result_cache_hit
    assert_identical(cold.rows, fresh.rows)
    assert_identical(warm.rows, fresh.rows)
    assert cold.eta == warm.eta == fresh.eta
    assert cold.result.tuples_accessed == fresh.tuples_accessed
    assert fresh.fingerprint == cold.fingerprint == warm.fingerprint


def test_cache_backend_contract_is_abstract():
    with pytest.raises(NotImplementedError):
        CacheBackend()
