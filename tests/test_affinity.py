"""Sticky shard→worker affinity routing and the fused select+gather operator.

Covers the routing table itself (deterministic rendezvous mapping, work
stealing, slot repair after worker death), the probe timeout, the
warm-cache contract (a repeated query maps zero shard files again), and
bit-identity of the fused ``select_gather`` path — with and without
per-shard α-budget slices — against the serial reference.
"""

from __future__ import annotations

import random
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import configure, current_config
from repro.algebra.predicates import AttrRef, CompareOp, Comparison, Conjunction, Const
from repro.relational import parallel
from repro.relational.distance import NUMERIC, TRIVIAL
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.store import _truncate_mask, shard_budget_slices

from conftest import SHARD_EXECUTORS, identity_key

PROCESS_OK = "process" in SHARD_EXECUTORS
needs_process = pytest.mark.skipif(
    not PROCESS_OK, reason="process pool unavailable on this platform"
)

SCHEMA = RelationSchema(
    "t", [Attribute("id", TRIVIAL), Attribute("x", NUMERIC), Attribute("y", NUMERIC)]
)
CONDITION = Conjunction.of(
    [
        Comparison(AttrRef(None, "x"), CompareOp.LE, Const(60.0)),
        Comparison(AttrRef(None, "y"), CompareOp.GT, Const(25.0)),
    ]
)


def make_rows(count: int, seed: int = 11):
    rng = random.Random(seed)
    return [
        (rng.randrange(max(1, count // 50)), rng.uniform(0, 100), rng.uniform(0, 100))
        for _ in range(count)
    ]


def store_rows(store):
    return [identity_key(store.row(index)) for index in range(len(store))]


def force_process():
    configure(shard_executor="process", process_min_rows=1)


# ---------------------------------------------------------------------------
# The probe timeout
# ---------------------------------------------------------------------------

class TestProbeTimeout:
    def test_wedged_probe_times_out_and_strikes_breaker(
        self, monkeypatch
    ):
        """A pool that wedges during spawn must fail the probe within the
        configured timeout and count against the breaker — not stall the
        first query for a minute."""

        class WedgedRouter:
            def submit(self, token, fn, *args):
                return Future(), None  # never completes

        failures_before = parallel._pool_failures
        monkeypatch.setattr(parallel, "_ensure_router", lambda: WedgedRouter())
        monkeypatch.setattr(parallel, "PROBE_TIMEOUT", 0.05)
        try:
            assert parallel.probe_process_executor() is False
            assert parallel._pool_failures == failures_before + 1
        finally:
            parallel._pool_failures = failures_before


# ---------------------------------------------------------------------------
# The router itself: rendezvous mapping, stealing, repair
# ---------------------------------------------------------------------------

class _RecordingPool:
    """A fake slot pool whose futures stay pending until resolved by hand."""

    def __init__(self):
        self.futures = []

    def submit(self, fn, *args):
        future = Future()
        self.futures.append(future)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _BrokenFuturePool:
    """A fake slot pool whose every task dies like a killed worker."""

    def submit(self, fn, *args):
        future = Future()
        future.set_exception(BrokenProcessPool("worker died"))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestRouter:
    def test_deterministic_token_mapping(self):
        tokens = [f"psm_shard_{index}" for index in range(48)]
        first = parallel._AffinityRouter(4)
        second = parallel._AffinityRouter(4)
        homes = [first.home_index(token) for token in tokens]
        assert homes == [second.home_index(token) for token in tokens]
        # Memoized resolution returns the same answer.
        assert homes == [first.home_index(token) for token in tokens]
        # Rendezvous actually spreads tokens across slots.
        assert len(set(homes)) > 1
        assert all(0 <= home < 4 for home in homes)

    def test_repair_moves_tokens_only_from_or_to_repaired_slot(self):
        router = parallel._AffinityRouter(5)
        tokens = [f"tok-{index}" for index in range(200)]
        before = {token: router.home_index(token) for token in tokens}
        repaired = 2
        router.repair(router._slots[repaired])
        after = {token: router.home_index(token) for token in tokens}
        moved = {token for token in tokens if before[token] != after[token]}
        assert moved  # a bumped generation re-draws the slot's scores
        for token in moved:
            assert before[token] == repaired or after[token] == repaired
        assert router.stats()["rehashes"] == 1

    def test_work_stealing_overflows_to_idle_slot(self, monkeypatch):
        monkeypatch.setattr(
            parallel._AffinityRouter, "_create_pool", staticmethod(_RecordingPool)
        )
        router = parallel._AffinityRouter(2)
        token = "hot-shard"
        home = router.home_index(token)
        _f1, s1 = router.submit(token, parallel._worker_ping)
        _f2, s2 = router.submit(token, parallel._worker_ping)
        assert s1.index == home and s2.index == home  # below the threshold
        _f3, s3 = router.submit(token, parallel._worker_ping)
        assert s3.index != home  # threshold reached, other slot idle: stolen
        stats = router.stats()
        assert stats["hits"] == 2 and stats["steals"] == 1
        # Completion drains the inflight counters via the done callbacks.
        for slot in router._slots:
            if slot.pool is not None:
                for future in slot.pool.futures:
                    future.set_result(True)
        assert all(slot.inflight == 0 for slot in router._slots)

    def test_single_slot_router_never_steals(self, monkeypatch):
        monkeypatch.setattr(
            parallel._AffinityRouter, "_create_pool", staticmethod(_RecordingPool)
        )
        router = parallel._AffinityRouter(1)
        for _ in range(4):
            _future, slot = router.submit("only", parallel._worker_ping)
            assert slot.index == 0
        assert router.stats() == {
            "hits": 4,
            "steals": 0,
            "rehashes": 0,
            "reroutes": 0,
            "slots": 1,
        }

    def test_ensure_router_lifecycle(self):
        router = parallel._ensure_router()
        assert router.slot_count == current_config().worker_count
        assert parallel._ensure_router() is router  # memoized
        parallel.reset_process_pool()  # full re-hash: the router is discarded
        assert parallel._router is None
        # Until the next query creates one there is nothing to count or ask.
        assert parallel.affinity_stats() == {
            "hits": 0,
            "steals": 0,
            "rehashes": 0,
            "reroutes": 0,
            "slots": 0,
        }
        assert parallel.worker_cache_stats() is None
        fresh = parallel._ensure_router()
        assert fresh is not router

    def test_broken_slot_repairs_in_place_and_falls_back(
        self, monkeypatch
    ):
        """Dead workers on the router repair only their slot: the query
        falls back to threads (correct answer), the breaker takes a single
        strike, and the repair is visible as a rehash."""
        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        program = CONDITION.program(SCHEMA)
        configure(shard_executor="serial")
        ref_mask, ref_store = relation.store.select_gather(program.run_part)
        force_process()
        parallel.reset_process_pool()
        monkeypatch.setattr(
            parallel._AffinityRouter, "_create_pool", staticmethod(_BrokenFuturePool)
        )
        failures_before = parallel._pool_failures
        try:
            mask, selected = relation.store.select_gather(program.run_part)
            assert bytes(mask) == bytes(ref_mask)
            assert store_rows(selected) == store_rows(ref_store)
            assert parallel.affinity_stats()["rehashes"] >= 1
            assert parallel._pool_failures == failures_before + 1
        finally:
            parallel._pool_failures = failures_before
            monkeypatch.undo()
            parallel.reset_process_pool()


# ---------------------------------------------------------------------------
# Warm caches: a repeated query rebuilds nothing
# ---------------------------------------------------------------------------

@needs_process
class TestWarmCaches:
    def test_repeat_select_maps_no_shard_file_again(self, monkeypatch):
        # Workers ≈ shards — the regime the router exists for — and
        # stealing pinned off so the routing is purely sticky (a steal
        # lands on a cold thief by design; that path is covered above).
        monkeypatch.setattr(parallel, "_STEAL_THRESHOLD", 10**6)
        relation = Relation(SCHEMA, make_rows(1200), backend="sharded")
        shard_count = len(relation.store.shards)
        configure(shard_workers=shard_count)
        force_process()
        parallel.reset_process_pool()
        program = CONDITION.program(SCHEMA)

        first_mask, first = relation.store.select_gather(program.run_part)
        warm = parallel.worker_cache_stats()
        assert warm is not None
        # Every shard mapped exactly once, somewhere; no worker builds an index.
        assert sum(stat["store_decodes"] for stat in warm) == shard_count
        assert all(stat["index_builds"] == 0 for stat in warm)

        second_mask, second = relation.store.select_gather(program.run_part)
        assert bytes(second_mask) == bytes(first_mask)
        assert store_rows(second) == store_rows(first)
        # The repeated query hit only warm workers: zero new decodes.
        assert parallel.worker_cache_stats() == warm

        parallel.reset_process_pool()


# ---------------------------------------------------------------------------
# Fused select+gather: bit-identity, budget slices, wire accounting
# ---------------------------------------------------------------------------

class TestSelectGather:
    def test_truncate_mask_keeps_first_survivors(self):
        mask = bytearray([1, 0, 1, 1, 0, 1])
        _truncate_mask(mask, 2)
        assert mask == bytearray([1, 0, 1, 0, 0, 0])
        untouched = bytearray([1, 1, 0])
        _truncate_mask(untouched, 5)
        assert untouched == bytearray([1, 1, 0])

    def test_shard_budget_slices(self):
        relation = Relation(SCHEMA, make_rows(400), backend="sharded")
        slices = shard_budget_slices(relation.store, 0.25)
        views = relation.store.shard_views()
        assert len(slices) == len(views)
        assert all(
            budget == -(-len(view) // 4) for budget, view in zip(slices, views)
        )
        assert shard_budget_slices(relation.store, 0.0) == [0] * len(views)
        row_backed = Relation(SCHEMA, make_rows(10), backend="row")
        assert shard_budget_slices(row_backed.store, 0.5) == [5]
        for bad in (-0.1, 1.0001, 2):
            with pytest.raises(ValueError):
                shard_budget_slices(relation.store, bad)

    def test_select_gather_matches_serial_reference(self, backend):
        """Every backend × executor cell: fused (or fallback) select+gather
        agrees bit-for-bit with the serial path on the same store, with and
        without α-budget slices (which depend on the shard layout, so the
        reference is this store under the serial executor)."""
        rows = make_rows(900)
        relation = Relation(SCHEMA, rows, backend=backend)
        program = CONDITION.program(SCHEMA)
        store = relation.store
        for alpha in (None, 0.0, 0.3, 1.0):
            limits = None if alpha is None else shard_budget_slices(store, alpha)
            cell = configure(shard_executor="serial")
            ref_mask, ref_store = store.select_gather(program.run_part, limits)
            reference = store_rows(ref_store)
            configure(cell)
            mask, selected = store.select_gather(program.run_part, limits)
            assert bytes(mask) == bytes(ref_mask), f"alpha={alpha}"
            assert store_rows(selected) == reference, f"alpha={alpha}"

    @needs_process
    def test_fused_path_crosses_once_and_counts_bytes(self):
        relation = Relation(SCHEMA, make_rows(3000), backend="sharded")
        program = CONDITION.program(SCHEMA)
        configure(shard_executor="serial")
        ref_mask, ref_store = relation.store.select_gather(program.run_part)
        reference = store_rows(ref_store)
        force_process()
        before = parallel.select_gather_stats()
        mask, selected = relation.store.select_gather(program.run_part)
        after = parallel.select_gather_stats()
        assert bytes(mask) == bytes(ref_mask)
        assert store_rows(selected) == reference
        # One fused round: the shards crossed the boundary once each, and
        # the returned payload bytes were accounted.
        assert after["calls"] == before["calls"] + 1
        assert after["result_bytes"] > before["result_bytes"]

    @needs_process
    def test_fused_object_columns_round_trip(self):
        rows = [
            (f"id-{index % 37}", float(index % 100), float((index * 7) % 100))
            for index in range(2000)
        ]
        relation = Relation(SCHEMA, rows, backend="sharded")
        program = CONDITION.program(SCHEMA)
        configure(shard_executor="serial")
        ref_mask, ref_store = relation.store.select_gather(program.run_part)
        reference = store_rows(ref_store)
        force_process()
        before = parallel.select_gather_stats()
        mask, selected = relation.store.select_gather(program.run_part)
        after = parallel.select_gather_stats()
        assert bytes(mask) == bytes(ref_mask)
        assert store_rows(selected) == reference
        assert after["object_values"] > before["object_values"]

    @needs_process
    def test_all_survivors_short_circuits_to_identity(self):
        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        keep_all = Conjunction.of(
            [Comparison(AttrRef(None, "x"), CompareOp.LE, Const(1000.0))]
        )
        program = keep_all.program(SCHEMA)
        force_process()
        mask, selected = relation.store.select_gather(program.run_part)
        assert mask.count(1) == len(relation.store)
        # The worker short-circuits (no payload shipped) and the parent
        # returns the original store by identity.
        assert selected is relation.store
