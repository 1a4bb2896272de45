"""The worker pool's lifecycle and the fused select+gather operator.

Covers the probe timeout, the pool's lifecycle (memoized, retired whole
by a reset or by a dead worker, after which the query falls back in the
caller), and bit-identity of the fused ``select_gather`` path against the
serial reference, with only mask bytes on the wire.
"""

from __future__ import annotations

import random
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import configure, current_config, faults
from repro.algebra.predicates import AttrRef, CompareOp, Comparison, Conjunction, Const
from repro.relational import parallel
from repro.relational.distance import NUMERIC, TRIVIAL
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema

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

        class WedgedPool:
            def submit(self, fn, *args):
                return Future()  # never completes

        failures_before = parallel._pool_failures
        monkeypatch.setattr(parallel, "_ensure_pool", WedgedPool)
        monkeypatch.setattr(parallel, "PROBE_TIMEOUT", 0.05)
        try:
            assert parallel.probe_process_executor() is False
            assert parallel._pool_failures == failures_before + 1
        finally:
            parallel._pool_failures = failures_before


# ---------------------------------------------------------------------------
# The pool: memoized, retired whole
# ---------------------------------------------------------------------------

class _BrokenFuturePool:
    """A fake pool whose every task dies like a killed worker."""

    def submit(self, fn, *args):
        future = Future()
        future.set_exception(BrokenProcessPool("worker died"))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestPool:
    def test_ensure_pool_lifecycle(self):
        pool = parallel._ensure_pool()
        assert pool._max_workers == current_config().worker_count
        assert parallel._ensure_pool() is pool  # memoized
        parallel.reset_process_pool()  # the pool is retired
        assert parallel._pool is None
        assert parallel.worker_cache_stats() is None  # a pin: there is no router
        fresh = parallel._ensure_pool()
        assert fresh is not pool

    def test_every_pool_carries_the_settings_and_a_fresh_fault_nonce(self):
        """A respawned worker must draw other faults than the one it
        replaces, or a kill/heal cycle would re-kill every replacement."""
        first = parallel._ensure_pool()
        parallel.reset_process_pool()
        second = parallel._ensure_pool()
        settings, spec, nonce = second._initargs
        assert settings == current_config() and spec == faults.active_spec()
        assert nonce != first._initargs[2]

    def test_abandoning_a_replaced_pool_keeps_the_live_one(self):
        """A dispatch that gives up on a pool a concurrent reset already
        replaced kills that pool only, never its successor."""
        stale = parallel._ensure_pool()
        parallel.reset_process_pool()
        live = parallel._ensure_pool()
        parallel._abandon([], stale)
        assert parallel._pool is live
        parallel._abandon([], live)
        assert parallel._pool is None

    @needs_process
    def test_retiring_an_idle_pool_leaves_no_worker(self):
        assert parallel.probe_process_executor()
        workers = list(parallel._pool._processes.values())
        assert workers
        parallel.reset_process_pool()
        assert not any(worker.is_alive() for worker in workers)

    def test_dead_workers_retire_the_pool_and_fall_back(self, monkeypatch):
        """Every task dies: the query falls back to the caller (correct
        answer), the breaker takes a single strike, and the pool is retired
        so the next query starts a fresh one."""
        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        program = CONDITION.program(SCHEMA)
        configure(shard_executor="serial")
        ref_mask, ref_store = relation.store.select_gather(program.run_part)
        force_process()
        parallel.reset_process_pool()
        broken = _BrokenFuturePool()
        retired = []
        monkeypatch.setattr(parallel, "_ensure_pool", lambda: broken)
        monkeypatch.setattr(parallel, "_retire_pool", retired.append)
        failures_before = parallel._pool_failures
        try:
            mask, selected = relation.store.select_gather(program.run_part)
            assert bytes(mask) == bytes(ref_mask)
            assert store_rows(selected) == store_rows(ref_store)
            assert retired == [broken]
            assert parallel._pool_failures == failures_before + 1
        finally:
            parallel._pool_failures = failures_before


# ---------------------------------------------------------------------------
# Fused select+gather: bit-identity, wire accounting
# ---------------------------------------------------------------------------

class TestSelectGather:
    def test_select_gather_matches_serial_reference(self, backend):
        """Every backend × executor cell: fused (or fallback) select+gather
        agrees bit-for-bit with the serial path on the same store."""
        relation = Relation(SCHEMA, make_rows(900), backend=backend)
        program = CONDITION.program(SCHEMA)
        store = relation.store
        cell = configure(shard_executor="serial")
        ref_mask, ref_store = store.select_gather(program.run_part)
        configure(cell)
        mask, selected = store.select_gather(program.run_part)
        assert bytes(mask) == bytes(ref_mask)
        assert store_rows(selected) == store_rows(ref_store)

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
        # what came back was one mask byte per row, nothing else.
        assert after["calls"] == before["calls"] + 1
        assert after["result_bytes"] == before["result_bytes"] + len(relation)

    @needs_process
    def test_fused_object_columns_round_trip(self):
        """Object, None and NaN columns come out of a shipped select_gather
        bit-identical to serial — and none of their values crosses back."""
        rows = [
            (
                None if index % 11 == 0 else f"id-{index % 37}",
                float("nan") if index % 13 == 0 else float(index % 100),
                None if index % 17 == 0 else float((index * 7) % 100),
            )
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
        assert after["calls"] == before["calls"] + 1  # it really shipped
        assert bytes(mask) == bytes(ref_mask)
        assert store_rows(selected) == reference
        assert after["result_bytes"] == before["result_bytes"] + len(rows)
        assert set(after) == {"calls", "result_bytes"}

    @needs_process
    def test_the_benchmark_pins_count_dispatched_tasks(self):
        """benchmarks/e2e reads ``affinity_stats``, ``worker_cache_stats`` and
        ``dispatch_stats()["retries"]``: every task is a "hit", nothing is
        stolen or retried, and no worker reports cache counters."""
        relation = Relation(SCHEMA, make_rows(3000), backend="sharded")
        program = CONDITION.program(SCHEMA)
        force_process()
        affinity, dispatch = parallel.affinity_stats(), parallel.dispatch_stats()
        relation.store.select_gather(program.run_part)
        shards = len(relation.store.shards)
        assert parallel.affinity_stats() == {"hits": affinity["hits"] + shards, "steals": 0}
        assert parallel.dispatch_stats()["tasks"] == dispatch["tasks"] + shards
        assert parallel.dispatch_stats()["retries"] == 0
        assert parallel.worker_cache_stats() is None

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
        # Every row survived: the parent returns the original store by identity.
        assert selected is relation.store
