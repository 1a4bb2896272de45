"""The resilience contract: a failure costs latency, never α or bits.

Three layers of coverage for the failure-handling paths:

* **Circuit breaker** — the half-open recovery cycle in
  :mod:`repro.relational.parallel`: an open breaker re-admits one probe
  after the cooldown and closes on success *without*
  ``reset_process_pool()`` (this is the fails-on-old-code regression for
  the one-way breaker PR 10 replaced).
* **Dispatch resilience** — a broken pool, a worker killed mid-dispatch, a
  lost or corrupt shard file, workers wedged past the deadline and a pool
  that cannot start a worker each cost one strike and a fallback in the
  caller: every query returns a bit-identical answer (an exact answer
  through the whole query pipeline too), the next one ships, and the
  counters in :func:`~repro.relational.parallel.dispatch_stats`
  show which branch ran.  A pool that failed is retired with every worker
  in it; a lost file keeps the pool.  Consecutive failures trip the
  breaker.  Each failure is real and made by the test: ``os._exit`` and
  ``time.sleep`` sent through the live pool, a ``SIGKILL`` to a worker pid,
  a publication whose first file is unlinked or cut short before any
  worker maps it, a start method whose ``Process`` raises ``EAGAIN``.
* **Serving resilience** — a raising result-cache backend is a miss and is
  counted, one error per failing call; an open breaker costs latency, never
  served α: the answer is computed in the caller at the requested α,
  bit-identical to a healthy one.
"""

from __future__ import annotations

import errno
import gc
import os
import random
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import Beas, QueryServer, configure, current_config
from repro.algebra.predicates import AttrRef, CompareOp, Comparison, Conjunction, Const
from repro.relational import parallel
from repro.relational.distance import NUMERIC, TRIVIAL
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema

from conftest import SHARD_EXECUTORS, assert_identical, identity_key, to_backend

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


@pytest.fixture
def breaker_guard():
    """Snapshot and restore the breaker state (the settings restore themselves)."""
    failures = parallel._pool_failures
    opened_at = parallel._breaker_opened_at
    try:
        yield
    finally:
        parallel._pool_failures = failures
        parallel._breaker_opened_at = opened_at
        parallel._breaker_probe_inflight = False


def force_process():
    configure(shard_executor="process", process_min_rows=1)


def select_answer(store):
    """The fused select+gather under the current executor: mask bytes, selected rows."""
    mask, selected = store.select_gather(CONDITION.program(SCHEMA).run_part)
    return bytes(mask), [identity_key(row) for row in selected.iter_rows()]


def wait_until_gone(pids, seconds):
    """The pids still alive ``seconds`` from now (empty when all exited)."""
    deadline = time.monotonic() + seconds
    alive = list(pids)
    while alive and time.monotonic() < deadline:
        time.sleep(0.02)
        survivors = []
        for pid in alive:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            survivors.append(pid)
        alive = survivors
    return alive


# -- the six dispatch failures, each made real by the test -------------------


def break_the_pool(monkeypatch, occupy_workers):
    """A worker of the warm pool exits hard and the pool knows it: the next
    dispatch's ``submit`` raises ``BrokenProcessPool``."""
    death = parallel._ensure_pool().submit(os._exit, 13)
    assert isinstance(death.exception(timeout=30.0), BrokenProcessPool)


def kill_a_worker_mid_dispatch(monkeypatch, occupy_workers):
    """Every worker is busy; one is ``SIGKILL``-ed right after the dispatch
    submits its tasks, so awaiting them raises ``BrokenProcessPool``."""
    pool = occupy_workers(0.4)
    note_dispatch = parallel._note_dispatch

    def kill_after_submit(name, increment=1):
        note_dispatch(name, increment)
        if name == "tasks":
            os.kill(next(iter(pool._processes)), signal.SIGKILL)

    monkeypatch.setattr(parallel, "_note_dispatch", kill_after_submit)


def unlink_a_published_file(monkeypatch, occupy_workers):
    """A fresh publication loses its first file before any worker maps it
    (the unlink race): the worker's open raises ``FileNotFoundError``."""
    publish = parallel.ShardPublication

    def unlinking_publication(store):
        publication = publish(store)
        parallel._forget_files(publication.written[:1])
        return publication

    monkeypatch.setattr(parallel, "ShardPublication", unlinking_publication)


def wedge_every_worker(monkeypatch, occupy_workers):
    """Every worker sleeps 30 s and the deadline is 0.3 s: the dispatch's
    tasks never start before it passes."""
    occupy_workers(30.0)
    monkeypatch.setattr(parallel, "DISPATCH_DEADLINE", 0.3)


def corrupt_a_published_file(monkeypatch, occupy_workers):
    """A fresh publication's first file is cut short before any worker maps
    it: the worker's open quarantines it and raises ``CorruptShardError``."""
    publish = parallel.ShardPublication

    def corrupting_publication(store):
        publication = publish(store)
        with open(publication.written[0], "r+b") as handle:
            handle.truncate(20)  # the magic and length survive, the header does not
        return publication

    monkeypatch.setattr(parallel, "ShardPublication", corrupting_publication)


def refuse_to_start_a_worker(monkeypatch, occupy_workers):
    """No pool is live and the next one cannot start a worker (the fork
    fails with ``EAGAIN``): the dispatch's first ``submit`` raises ``OSError``."""
    parallel.reset_process_pool()
    context = parallel._mp_context()

    class NoProcesses:
        def __getattr__(self, name):
            return getattr(context, name)

        def Process(self, *_args, **_kwargs):
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(parallel, "_mp_context", NoProcesses)


# Every failure a dispatch can meet, with the counter it bumps besides
# ``fallbacks`` and whether its shard tasks reached the pool.
DISPATCH_FAULTS = [
    pytest.param(break_the_pool, None, False, id="broken-pool"),
    pytest.param(kill_a_worker_mid_dispatch, None, True, id="dead-worker"),
    pytest.param(unlink_a_published_file, "fatal", True, id="lost-shard-file"),
    pytest.param(wedge_every_worker, "timeouts", True, id="wedged-worker"),
    pytest.param(corrupt_a_published_file, "fatal", True, id="corrupt-shard-file"),
    pytest.param(refuse_to_start_a_worker, None, False, id="no-worker-starts"),
]


# ---------------------------------------------------------------------------
# Circuit breaker: half-open recovery (the fails-on-old-code regression)
# ---------------------------------------------------------------------------


class TestBreakerRecovery:
    def test_open_breaker_recovers_without_reset(self, breaker_guard):
        # Before PR 10, _pool_failures >= _MAX_POOL_FAILURES disabled the
        # process executor for the life of the interpreter; only an explicit
        # reset_process_pool() cleared it.  The breaker must now re-admit a
        # probe after the cooldown and close itself on success.
        configure(breaker_cooldown=0.05)
        for _ in range(parallel._MAX_POOL_FAILURES):
            parallel._breaker_strike()
        state = parallel.breaker_state()
        assert state["state"] == "open"
        assert parallel._breaker_enter() is None  # cooling down: refused
        recoveries_before = state["recoveries"]

        time.sleep(0.06)
        assert parallel.breaker_state()["state"] == "half-open"
        token = parallel._breaker_enter()
        assert token == "probe"
        # Exactly one probe at a time; concurrent dispatches stay refused.
        assert parallel._breaker_enter() is None
        parallel._breaker_exit(token, True)

        closed = parallel.breaker_state()
        assert closed["state"] == "closed"
        assert closed["failures"] == 0
        assert closed["recoveries"] == recoveries_before + 1

    def test_failed_probe_restarts_the_cooldown(self, breaker_guard):
        configure(breaker_cooldown=0.05)
        for _ in range(parallel._MAX_POOL_FAILURES):
            parallel._breaker_strike()
        time.sleep(0.06)
        token = parallel._breaker_enter()
        assert token == "probe"
        parallel._breaker_exit(token, False)  # the pool is still broken
        reopened = parallel.breaker_state()
        assert reopened["state"] == "open"
        assert reopened["seconds_until_probe"] > 0  # full cooldown again
        assert parallel._breaker_enter() is None

    def test_no_verdict_release_changes_nothing(self, breaker_guard):
        failures_before = parallel._pool_failures
        token = parallel._breaker_enter()
        assert token == "closed"
        parallel._breaker_exit(token, None)  # application error: no verdict
        assert parallel._pool_failures == failures_before

    def test_trips_are_counted(self, breaker_guard):
        trips_before = parallel.breaker_state()["trips"]
        for _ in range(parallel._MAX_POOL_FAILURES):
            parallel._breaker_strike()
        assert parallel.breaker_state()["trips"] == trips_before + 1
        # Re-striking while already open is the same trip, not a new one.
        parallel._breaker_strike()
        assert parallel.breaker_state()["trips"] == trips_before + 1

    def test_dispatch_stats_shape(self):
        stats = parallel.dispatch_stats()
        for key in ("tasks", "timeouts", "fallbacks", "fatal"):
            assert isinstance(stats[key], int)
        assert stats["retries"] == 0  # pinned for benchmarks/e2e: nothing retries
        assert stats["deadline_seconds"] == parallel.DISPATCH_DEADLINE
        assert stats["breaker"]["state"] in ("closed", "open", "half-open")


# ---------------------------------------------------------------------------
# Dispatch resilience against real process pools
# ---------------------------------------------------------------------------


@needs_process
class TestDispatchResilience:
    def _reference(self, relation):
        previous = configure(shard_executor="serial")
        answer = select_answer(relation.store)
        configure(previous)
        return answer

    @pytest.mark.parametrize("fault, counter, submitted", DISPATCH_FAULTS)
    def test_a_failed_dispatch_falls_back_in_the_caller(
        self, fault, counter, submitted, breaker_guard, monkeypatch, occupy_workers, store_dir
    ):
        relation = Relation(SCHEMA, make_rows(3000), backend="sharded")
        reference = self._reference(relation)
        force_process()
        failures_before = parallel._pool_failures
        before = parallel.dispatch_stats()
        fault(monkeypatch, occupy_workers)
        try:
            assert select_answer(relation.store) == reference
        finally:
            monkeypatch.undo()  # the next query gets the full deadline
        after = parallel.dispatch_stats()
        # One strike, one fallback: nothing retried the dispatch.
        assert parallel._pool_failures == failures_before + 1
        assert after["fallbacks"] == before["fallbacks"] + 1
        for name in ("timeouts", "fatal"):
            assert after[name] == before[name] + (name == counter)
        shards = len(relation.store.shards)
        assert after["tasks"] == before["tasks"] + (shards if submitted else 0)
        # The next query ships, and its verdict closes the breaker.
        calls_before = parallel.select_gather_stats()["calls"]
        assert select_answer(relation.store) == reference
        assert parallel.select_gather_stats()["calls"] == calls_before + 1
        assert parallel._pool_failures == 0
        assert parallel.breaker_state()["state"] == "closed"

    @pytest.mark.parametrize(
        "fault, retires",
        [
            pytest.param(break_the_pool, True, id="broken-pool"),
            pytest.param(kill_a_worker_mid_dispatch, True, id="dead-worker"),
            pytest.param(unlink_a_published_file, False, id="lost-shard-file"),
            pytest.param(wedge_every_worker, True, id="wedged-worker"),
            pytest.param(corrupt_a_published_file, False, id="corrupt-shard-file"),
        ],
    )
    def test_only_a_failed_pool_is_retired(
        self, fault, retires, breaker_guard, monkeypatch, occupy_workers, store_dir
    ):
        """A dead or wedged worker retires its whole pool, and no worker of it
        survives; a lost or corrupt file says nothing about the workers, so
        the same pool answers the next query."""
        relation = Relation(SCHEMA, make_rows(3000), backend="sharded")
        reference = self._reference(relation)
        force_process()
        pool = parallel._ensure_pool()
        retired = []  # (pool, its worker pids) per retirement
        retire_pool = parallel._retire_pool

        def recording_retire(victim):
            retired.append((victim, list(victim._processes or ())))
            retire_pool(victim)

        monkeypatch.setattr(parallel, "_retire_pool", recording_retire)
        fault(monkeypatch, occupy_workers)
        try:
            assert select_answer(relation.store) == reference
        finally:
            monkeypatch.undo()
        if retires:
            assert [victim for victim, _pids in retired] == [pool]
            assert wait_until_gone(retired[0][1], 2.0) == []
        else:
            assert retired == []
            assert parallel._pool is pool
        assert select_answer(relation.store) == reference
        assert (parallel._pool is pool) is not retires

    def test_a_corrupt_published_file_is_quarantined_and_replaced(
        self, breaker_guard, monkeypatch, occupy_workers, store_dir
    ):
        relation = Relation(SCHEMA, make_rows(3000), backend="sharded")
        reference = self._reference(relation)
        force_process()
        corrupt_a_published_file(monkeypatch, occupy_workers)
        try:
            assert select_answer(relation.store) == reference
        finally:
            monkeypatch.undo()
        damaged = relation.store._publication.written[0]
        assert not os.path.exists(damaged)
        quarantined = [name for name in os.listdir(store_dir) if name.endswith(".quarantined")]
        assert quarantined == [os.path.basename(damaged) + ".quarantined"]
        # The next query publishes fresh files and ships them.
        calls_before = parallel.select_gather_stats()["calls"]
        assert select_answer(relation.store) == reference
        assert parallel.select_gather_stats()["calls"] == calls_before + 1
        assert damaged not in relation.store._publication.written

    @pytest.mark.parametrize(
        "fault",
        [
            pytest.param(break_the_pool, id="broken-pool"),
            pytest.param(unlink_a_published_file, id="lost-shard-file"),
        ],
    )
    def test_consecutive_failures_trip_the_breaker(
        self, fault, breaker_guard, monkeypatch, occupy_workers, store_dir
    ):
        """Every failed dispatch is a strike, whether the workers or the files
        failed; the last one opens the breaker, queries then stay in the
        caller until the cooldown ends, and a shipped probe closes it."""
        relation = Relation(SCHEMA, make_rows(3000), backend="sharded")
        reference = self._reference(relation)
        force_process()
        configure(breaker_cooldown=1.0)
        parallel._pool_failures = 0
        trips_before = parallel.breaker_state()["trips"]
        fallbacks_before = parallel.dispatch_stats()["fallbacks"]
        try:
            for _ in range(parallel._MAX_POOL_FAILURES):
                fault(monkeypatch, occupy_workers)
                assert select_answer(relation.store) == reference
        finally:
            monkeypatch.undo()
        state = parallel.breaker_state()
        assert state["state"] == "open"
        assert state["trips"] == trips_before + 1
        fallbacks = parallel.dispatch_stats()["fallbacks"]
        assert fallbacks == fallbacks_before + parallel._MAX_POOL_FAILURES
        calls_before = parallel.select_gather_stats()["calls"]
        assert select_answer(relation.store) == reference  # open: answered in the caller
        assert parallel.select_gather_stats()["calls"] == calls_before
        assert parallel.dispatch_stats()["fallbacks"] == fallbacks  # refused, not failed
        time.sleep(current_config().breaker_cooldown + 0.05)
        assert select_answer(relation.store) == reference
        assert parallel.select_gather_stats()["calls"] == calls_before + 1  # the probe shipped
        assert parallel.breaker_state()["state"] == "closed"

    @pytest.mark.parametrize(
        "fault",
        [
            pytest.param(break_the_pool, id="broken-pool"),
            pytest.param(unlink_a_published_file, id="lost-shard-file"),
            pytest.param(wedge_every_worker, id="wedged-worker"),
            pytest.param(corrupt_a_published_file, id="corrupt-shard-file"),
            pytest.param(refuse_to_start_a_worker, id="no-worker-starts"),
        ],
    )
    def test_a_failed_dispatch_keeps_the_exact_answer(
        self, tiny_db, tiny_beas, fault, breaker_guard, monkeypatch, occupy_workers, store_dir
    ):
        """Through the whole query pipeline: the exact answer's scan of a
        sharded base relation fails to dispatch and is answered in the
        caller, bit-identical to the healthy answer."""
        beas = Beas(to_backend(tiny_db, "sharded"), access_schema=tiny_beas.access_schema)
        query = "SELECT e.eid, e.salary FROM emp e WHERE e.dept = 2"
        force_process()
        calls_before = parallel.select_gather_stats()["calls"]
        healthy = beas.answer_exact(query)
        assert parallel.select_gather_stats()["calls"] > calls_before  # the scan ships
        parallel.shutdown()  # the next query publishes afresh, under the fault
        fallbacks_before = parallel.dispatch_stats()["fallbacks"]
        fault(monkeypatch, occupy_workers)
        try:
            broken = beas.answer_exact(query)
        finally:
            monkeypatch.undo()
        assert parallel.dispatch_stats()["fallbacks"] > fallbacks_before
        assert_identical(broken, healthy)

    def test_a_shipped_query_is_the_half_open_probe(self, breaker_guard):
        relation = Relation(SCHEMA, make_rows(3000), backend="sharded")
        reference = self._reference(relation)
        force_process()
        configure(breaker_cooldown=0.05)
        for _ in range(parallel._MAX_POOL_FAILURES):
            parallel._breaker_strike()
        calls_before = parallel.select_gather_stats()["calls"]
        assert select_answer(relation.store) == reference  # open: answered in the caller
        assert parallel.select_gather_stats()["calls"] == calls_before
        time.sleep(0.06)
        recoveries_before = parallel.breaker_state()["recoveries"]
        assert select_answer(relation.store) == reference
        assert parallel.select_gather_stats()["calls"] == calls_before + 1  # the probe shipped
        state = parallel.breaker_state()
        assert state["state"] == "closed"
        assert state["recoveries"] == recoveries_before + 1

    def test_a_wedged_pool_fails_each_query_on_it_once(self, breaker_guard, monkeypatch, occupy_workers):
        """Two queries share the pool when its workers wedge: each answers in
        the caller after at most one deadline, and neither hangs."""
        relations = [Relation(SCHEMA, make_rows(3000, seed), backend="sharded") for seed in (11, 12)]
        references = [self._reference(relation) for relation in relations]
        force_process()
        fallbacks_before = parallel.dispatch_stats()["fallbacks"]
        answers = [None, None]

        def ask(index):
            answers[index] = select_answer(relations[index].store)

        threads = [threading.Thread(target=ask, args=(index,)) for index in range(2)]
        wedge_every_worker(monkeypatch, occupy_workers)
        started = time.monotonic()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            parallel.reset_process_pool()
        assert not any(thread.is_alive() for thread in threads)
        assert time.monotonic() - started < 15.0
        assert answers == references
        # The first to time out retires the pool under the other, which
        # fails on it too (a strike) or sees its tasks cancelled (no verdict).
        assert 1 <= parallel.dispatch_stats()["fallbacks"] - fallbacks_before <= 2

    def test_kill_then_heal_restores_process_path(self, breaker_guard, monkeypatch, occupy_workers):
        # The acceptance criterion: a kill/heal cycle restores the process
        # path WITHOUT reset_process_pool().
        relation = Relation(SCHEMA, make_rows(3000), backend="sharded")
        reference = self._reference(relation)
        force_process()
        kill_a_worker_mid_dispatch(monkeypatch, occupy_workers)
        try:
            assert select_answer(relation.store) == reference
        finally:
            monkeypatch.undo()  # heal
        # The pool died with its worker; the next dispatch starts a fresh one.
        for _ in range(3):
            assert select_answer(relation.store) == reference
        assert parallel.breaker_state()["state"] == "closed"

    def test_an_abandoned_pool_is_collected_quietly(self, breaker_guard, monkeypatch, occupy_workers):
        """A pool given up at the deadline and then collected lets its
        manager thread exit without an exception.

        The regression: on Python 3.11 the dispatch cancelled its queued
        tasks itself, and a manager thread that reached the pool's shutdown
        only after the pool was collected failed those cancelled futures
        and died with ``InvalidStateError``.  The race is rare, so this
        guards the fix rather than reproducing the failure every run.
        """
        raised = []
        monkeypatch.setattr(threading, "excepthook", lambda args: raised.append(args.exc_type))
        relation = Relation(SCHEMA, make_rows(3000), backend="sharded")
        reference = self._reference(relation)
        force_process()
        wedge_every_worker(monkeypatch, occupy_workers)
        manager = parallel._pool._executor_manager_thread
        assert select_answer(relation.store) == reference  # answered in the caller
        assert parallel._pool is None  # the wedged pool was retired and dropped
        gc.collect()
        manager.join(30.0)
        assert not manager.is_alive()
        assert raised == []

    def test_wedged_worker_hits_the_dispatch_deadline(self, breaker_guard, monkeypatch, occupy_workers):
        relation = Relation(SCHEMA, make_rows(3000), backend="sharded")
        reference = self._reference(relation)
        force_process()
        before = parallel.dispatch_stats()
        wedged = []  # pids of every worker retired at the deadline
        retire_pool = parallel._retire_pool

        def recording_retire(pool):
            wedged.extend(pool._processes)
            retire_pool(pool)

        monkeypatch.setattr(parallel, "_retire_pool", recording_retire)
        wedge_every_worker(monkeypatch, occupy_workers)
        started = time.monotonic()
        try:
            assert select_answer(relation.store) == reference
            elapsed = time.monotonic() - started
            # The deadline is a deadline for the worker too: every process
            # that held a 30 s sleep is gone, not abandoned to wake later.
            assert wedged
            assert wait_until_gone(wedged, 2.0) == []

            # Same for shutdown(): a sleeping task in flight is killed, not
            # waited for (this is what used to stall interpreter exit).
            pool = parallel._ensure_pool()
            future = pool.submit(time.sleep, 30.0)
            while not future.running():
                assert time.monotonic() - started < 30.0
                time.sleep(0.01)
            sleeper = list(pool._processes)
            stopping = time.monotonic()
            parallel.shutdown()
            assert time.monotonic() - stopping < 2.0
            assert sleeper and wait_until_gone(sleeper, 2.0) == []
        finally:
            parallel.reset_process_pool()
        after = parallel.dispatch_stats()
        # One wedged query waits out one deadline, once, then falls back.
        assert after["timeouts"] == before["timeouts"] + 1
        assert after["fallbacks"] == before["fallbacks"] + 1
        assert elapsed < 15.0  # zero hangs past the deadline, not a 30s stall


# ---------------------------------------------------------------------------
# Serving-layer resilience
# ---------------------------------------------------------------------------


class TestServingResilience:
    def test_cache_faults_are_misses_not_failures(self, tiny_beas, monkeypatch):
        server = QueryServer(tiny_beas)
        query = "SELECT e.eid, e.salary FROM emp e WHERE e.dept = 2"
        baseline = server.serve(query, alpha=0.5)

        def unavailable(*_args):
            raise ConnectionError("result-cache backend unavailable")

        monkeypatch.setattr(server.result_cache, "get", unavailable)
        monkeypatch.setattr(server.result_cache, "put", unavailable)
        try:
            for _ in range(2):
                envelope = server.serve(query, alpha=0.5)
                assert not envelope.result_cache_hit  # every lookup "missed"
                assert_identical(envelope.rows, baseline.rows)
        finally:
            monkeypatch.undo()
        counters = server.stats.snapshot()["counters"]
        assert counters["result_cache_errors"] == 4  # a get and a put per request
        # Healed: the next request caches and hits again.
        server.serve(query, alpha=0.5)
        assert server.serve(query, alpha=0.5).result_cache_hit

    @pytest.mark.parametrize("method", ["get", "put"])
    def test_one_failing_cache_method_costs_one_error_a_request(
        self, tiny_beas, monkeypatch, method
    ):
        """A failing ``get`` leaves the ``put`` working and the other way
        round: each request counts one error, and what did reach the cache
        is what the next request finds once it heals."""
        server = QueryServer(tiny_beas)
        query = "SELECT e.eid, e.salary FROM emp e WHERE e.dept = 2"
        baseline = server.serve(query, alpha=0.5)
        server.clear_caches()

        def unavailable(*_args):
            raise ConnectionError("result-cache backend unavailable")

        monkeypatch.setattr(server.result_cache, method, unavailable)
        try:
            for _ in range(3):
                envelope = server.serve(query, alpha=0.5)
                assert not envelope.result_cache_hit
                assert_identical(envelope.rows, baseline.rows)
        finally:
            monkeypatch.undo()
        assert server.stats.snapshot()["counters"]["result_cache_errors"] == 3
        # Only the failing puts left the cache empty.
        assert server.serve(query, alpha=0.5).result_cache_hit == (method == "get")
        assert server.serve(query, alpha=0.5).result_cache_hit

    @pytest.mark.parametrize("backend_name", ["column", "sharded"])
    def test_open_breaker_keeps_served_alpha(
        self, tiny_db, tiny_beas, backend_name, breaker_guard
    ):
        """An open breaker costs latency, never α: the query is computed in
        the caller at the requested α, bit-identical to the healthy answer —
        whether or not it touches a sharded store."""
        beas = Beas(to_backend(tiny_db, backend_name), access_schema=tiny_beas.access_schema)
        server = QueryServer(beas)
        query = "SELECT e.eid, e.salary FROM emp e WHERE e.dept = 2"
        force_process()
        healthy = server.serve(query, alpha=0.5)
        assert healthy.served_alpha == 0.5
        assert not healthy.degraded

        for _ in range(parallel._MAX_POOL_FAILURES):
            parallel._breaker_strike()
        assert parallel.breaker_state()["state"] == "open"
        server.clear_caches()  # the request below must compute, not hit
        shipped_before = parallel.select_gather_stats()["calls"]
        broken = server.serve(query, alpha=0.5)
        assert parallel.select_gather_stats()["calls"] == shipped_before  # nothing reached a worker
        assert not broken.result_cache_hit
        assert broken.served_alpha == broken.requested_alpha == 0.5
        assert not broken.degraded
        assert_identical(broken.rows, healthy.rows)  # typed, in order: bit-identical
        assert repr(broken.eta) == repr(healthy.eta)

        assert "degraded" not in server.stats.snapshot()["counters"]

    def test_cache_info_exposes_the_dispatch_section(self, tiny_beas):
        info = QueryServer(tiny_beas).cache_info()
        assert info["dispatch"]["breaker"]["state"] in ("closed", "open", "half-open")
        assert "tasks" in info["dispatch"]
