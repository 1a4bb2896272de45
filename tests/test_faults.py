"""Deterministic fault injection and the resilience it is meant to prove.

Four layers of coverage for PR 10's failure-handling substrate:

* **Plan mechanics** — :class:`repro.faults.FaultPlan` parsing, validation,
  canonical round-trips, seeded determinism, per-site independence.
* **Circuit breaker** — the half-open recovery cycle in
  :mod:`repro.relational.parallel`: an open breaker re-admits one probe
  after the cooldown and closes on success *without*
  ``reset_process_pool()`` (this is the fails-on-old-code regression for
  the one-way breaker PR 10 replaced).
* **Dispatch resilience** — injected broken pools, worker kills and wedged
  workers are absorbed by retry/re-route/fallback: every query returns a
  bit-identical answer, the counters in
  :func:`~repro.relational.parallel.dispatch_stats` show how.
* **Serving resilience** — cache-backend faults are treated as misses and
  counted; an open breaker costs latency, never served α: the answer is
  computed in the caller at the requested α, bit-identical to a healthy one.

The whole-suite version of the same contract (kills at p=0.1 across every
backend × executor) lives in ``benchmarks/bench_chaos.py`` and the
chaos row of the ``tests-modes`` CI job; the contract its report check
enforces is tested here.
"""

from __future__ import annotations

import importlib.util
import os
import random
import time
from pathlib import Path

import pytest

from repro import Beas, QueryServer, configure, faults
from repro.algebra.predicates import AttrRef, CompareOp, Comparison, Conjunction, Const
from repro.errors import FaultInjectedError, ReproError
from repro.faults import FaultPlan, FaultRule
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
def plan_guard():
    """No fault plan leaks out of a test."""
    previous = faults.get_fault_plan()
    try:
        yield
    finally:
        faults.set_fault_plan(previous, reset_pools=False)


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


# ---------------------------------------------------------------------------
# FaultRule / FaultPlan mechanics
# ---------------------------------------------------------------------------


class TestFaultRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultRule(probability=1.5)
        with pytest.raises(ValueError):
            FaultRule(probability=-0.1)
        with pytest.raises(ValueError):
            FaultRule(probability=0.5, count=0)
        with pytest.raises(ValueError):
            FaultRule(at=(0,))
        with pytest.raises(ValueError):
            FaultRule(probability=0.5, arg=-1.0)
        with pytest.raises(ValueError):
            FaultRule(probability=0.5, arg=float("nan"))
        with pytest.raises(ValueError):
            FaultRule()  # neither p nor at

    def test_spec_fragment(self):
        assert FaultRule(probability=0.25, count=2).spec() == "p=0.25,count=2"
        assert FaultRule(at=(5, 2), arg=0.5).spec() == "at=2|5,arg=0.5"


class TestFaultPlan:
    def test_spec_round_trip_is_canonical(self):
        spec = "parallel.worker.slow:arg=0.05,p=0.2;seed=42;parallel.worker.kill:p=0.1,count=3"
        plan = FaultPlan.parse(spec)
        canonical = plan.spec()
        assert canonical == (
            "seed=42;parallel.worker.kill:p=0.1,count=3;"
            "parallel.worker.slow:p=0.2,arg=0.05"
        )
        assert FaultPlan.parse(canonical).spec() == canonical

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.parse("parallel.worker.kil:p=0.1")

    def test_test_prefixed_sites_allowed(self):
        plan = FaultPlan.parse("test.anything.goes:p=1")
        assert plan.should_fire("test.anything.goes")

    def test_malformed_specs_rejected(self):
        for bad in (
            "seed=banana;parallel.worker.kill:p=0.1",
            "parallel.worker.kill",  # no colon
            "parallel.worker.kill:p=",  # no value
            "parallel.worker.kill:rate=0.1",  # unknown key
            "parallel.worker.kill:p=lots",
            "seed=42",  # no sites at all
            "",
        ):
            with pytest.raises(ValueError):
                FaultPlan.parse(bad)

    def test_at_schedule_fires_exactly(self):
        plan = FaultPlan.parse("test.x:at=2|4")
        pattern = [plan.should_fire("test.x") for _ in range(6)]
        assert pattern == [False, True, False, True, False, False]

    def test_count_caps_fires(self):
        plan = FaultPlan.parse("test.x:p=1,count=2")
        assert sum(plan.should_fire("test.x") for _ in range(10)) == 2

    def test_seeded_determinism(self):
        spec = "seed=7;test.x:p=0.3"
        first = FaultPlan.parse(spec)
        second = FaultPlan.parse(spec)
        pattern_a = [first.should_fire("test.x") for _ in range(200)]
        pattern_b = [second.should_fire("test.x") for _ in range(200)]
        assert pattern_a == pattern_b
        assert any(pattern_a) and not all(pattern_a)

    def test_nonce_changes_the_draws(self):
        spec = "seed=7;test.x:p=0.3"
        base = FaultPlan.parse(spec)
        renonced = base.with_nonce("incarnation-2")
        pattern_a = [base.should_fire("test.x") for _ in range(200)]
        pattern_b = [renonced.should_fire("test.x") for _ in range(200)]
        assert pattern_a != pattern_b

    def test_sites_draw_independently(self):
        # Adding a second site to the plan must not change when the first
        # one fires — each site owns its own seeded stream.
        alone = FaultPlan.parse("seed=9;test.a:p=0.4")
        paired = FaultPlan.parse("seed=9;test.a:p=0.4;test.b:p=0.9")
        pattern_alone = []
        pattern_paired = []
        for _ in range(100):
            pattern_alone.append(alone.should_fire("test.a"))
            paired.should_fire("test.b")  # interleave draws on the other site
            pattern_paired.append(paired.should_fire("test.a"))
        assert pattern_alone == pattern_paired

    def test_arg_and_stats(self):
        plan = FaultPlan.parse("test.x:at=1,arg=0.25")
        assert plan.arg("test.x") == 0.25
        assert plan.arg("test.other", default=3.5) == 3.5
        plan.should_fire("test.x")
        plan.should_fire("test.x")
        assert plan.stats() == {"test.x": {"calls": 2, "fires": 1}}


class TestFaultKnob:
    def test_inject_is_noop_without_plan(self, plan_guard):
        faults.set_fault_plan(None, reset_pools=False)
        assert faults.inject("parallel.worker.kill") is False
        assert faults.fault_arg("parallel.worker.slow", 0.5) == 0.5
        assert faults.fault_stats() == {}
        assert faults.active_spec() is None

    def test_set_fault_plan_validates(self, plan_guard):
        with pytest.raises(ValueError):
            faults.set_fault_plan(42)
        with pytest.raises(ValueError):
            faults.set_fault_plan("no.such.site:p=1")
        with pytest.raises(ValueError):
            faults.set_fault_plan("parallel.worker.kill:p=2")

    def test_set_fault_plan_round_trips(self, plan_guard):
        previous = faults.set_fault_plan("seed=3;test.x:p=1", reset_pools=False)
        try:
            installed = faults.get_fault_plan()
            assert installed is not None
            assert installed.spec() == "seed=3;test.x:p=1"
            assert faults.active_spec() == "seed=3;test.x:p=1"
            assert faults.inject("test.x") is True
        finally:
            faults.set_fault_plan(previous, reset_pools=False)

    def test_env_override_parses(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN_PROBE", "seed=5;test.x:at=1")
        plan = faults._env_fault_plan("REPRO_FAULT_PLAN_PROBE")
        assert plan is not None and plan.seed == 5
        monkeypatch.setenv("REPRO_FAULT_PLAN_PROBE", "   ")
        assert faults._env_fault_plan("REPRO_FAULT_PLAN_PROBE") is None


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
        for key in ("retries", "timeouts", "fallbacks", "fatal"):
            assert isinstance(stats[key], int)
        assert stats["configured_retries"] == parallel.DISPATCH_RETRIES
        assert stats["deadline_seconds"] == parallel.DISPATCH_DEADLINE
        assert stats["breaker"]["state"] in ("closed", "open", "half-open")


# ---------------------------------------------------------------------------
# Dispatch resilience under injected faults (real process pools)
# ---------------------------------------------------------------------------


@needs_process
class TestDispatchResilience:
    def _reference(self, relation):
        previous = configure(shard_executor="serial")
        answer = select_answer(relation.store)
        configure(previous)
        return answer

    def test_injected_broken_pool_is_retried(
        self, plan_guard, breaker_guard
    ):
        relation = Relation(SCHEMA, make_rows(3000), backend="sharded")
        reference = self._reference(relation)
        force_process()
        configure(retry_backoff=0.0)
        retries_before = parallel.dispatch_stats()["retries"]
        faults.set_fault_plan("seed=3;parallel.dispatch.broken:at=1")
        try:
            assert select_answer(relation.store) == reference
        finally:
            faults.set_fault_plan(None, reset_pools=False)
        stats = parallel.dispatch_stats()
        assert stats["retries"] > retries_before
        # The retry succeeded, so the dispatch verdict closed the breaker.
        assert stats["breaker"]["state"] == "closed"

    def test_worker_kill_mid_query_stays_bit_identical(
        self, plan_guard, breaker_guard
    ):
        relation = Relation(SCHEMA, make_rows(3000), backend="sharded")
        reference = self._reference(relation)
        force_process()
        configure(retry_backoff=0.0)
        # Every worker incarnation dies on its first task; retries re-route
        # and respawn until the rounds run out, then the caller's serial
        # fallback serves the exact same bytes.
        faults.set_fault_plan("seed=5;parallel.worker.kill:at=1")
        try:
            assert select_answer(relation.store) == reference
        finally:
            faults.set_fault_plan(None, reset_pools=False)

    def test_kill_then_heal_restores_process_path(
        self, plan_guard, breaker_guard
    ):
        # The acceptance criterion: a kill/heal cycle restores the process
        # path WITHOUT reset_process_pool().
        relation = Relation(SCHEMA, make_rows(3000), backend="sharded")
        reference = self._reference(relation)
        force_process()
        configure(retry_backoff=0.0)
        faults.set_fault_plan("seed=5;parallel.worker.kill:at=1")
        try:
            assert select_answer(relation.store) == reference
        finally:
            faults.set_fault_plan(None, reset_pools=False)  # heal
        # Workers spawned while the plan was live may still carry it; the
        # dispatch absorbs their deaths and re-routes to clean respawns.
        for _ in range(3):
            assert select_answer(relation.store) == reference
        assert parallel.breaker_state()["state"] == "closed"

    def test_wedged_worker_hits_the_dispatch_deadline(
        self, plan_guard, breaker_guard, monkeypatch
    ):
        relation = Relation(SCHEMA, make_rows(3000), backend="sharded")
        reference = self._reference(relation)
        force_process()
        configure(retry_backoff=0.0)
        monkeypatch.setattr(parallel, "DISPATCH_RETRIES", 1)
        monkeypatch.setattr(parallel, "DISPATCH_DEADLINE", 0.3)
        timeouts_before = parallel.dispatch_stats()["timeouts"]
        wedged = []  # pids of every worker retired at the deadline
        retire_pool = parallel._retire_pool

        def recording_retire(pool):
            wedged.extend(pool._processes)
            retire_pool(pool)

        monkeypatch.setattr(parallel, "_retire_pool", recording_retire)
        started = time.monotonic()
        faults.set_fault_plan("seed=2;parallel.worker.slow:p=1,arg=30")
        try:
            assert select_answer(relation.store) == reference
            elapsed = time.monotonic() - started
            # The deadline is a deadline for the worker too: every process
            # that held a 30 s sleep is gone, not abandoned to wake later.
            assert wedged
            assert wait_until_gone(wedged, 2.0) == []

            # Same for shutdown(): a sleeping task in flight is killed, not
            # waited for (this is what used to stall interpreter exit).
            future, slot = parallel._ensure_router().submit(
                "wedge", parallel._worker_fault_probe
            )
            while not future.running():
                assert time.monotonic() - started < 30.0
                time.sleep(0.01)
            sleeper = list(slot.pool._processes)
            stopping = time.monotonic()
            parallel.shutdown()
            assert time.monotonic() - stopping < 2.0
            assert sleeper and wait_until_gone(sleeper, 2.0) == []
        finally:
            faults.set_fault_plan(None, reset_pools=False)
            parallel.reset_process_pool()
        assert parallel.dispatch_stats()["timeouts"] > timeouts_before
        # Zero hangs past the deadline: bounded rounds, not a 30s stall.
        assert elapsed < 15.0

    def test_publication_unlink_race_falls_back(
        self, plan_guard, breaker_guard
    ):
        relation = Relation(SCHEMA, make_rows(3000), backend="sharded")
        reference = self._reference(relation)
        force_process()
        configure(retry_backoff=0.0)
        fatal_before = parallel.dispatch_stats()["fatal"]
        faults.set_fault_plan("seed=4;parallel.publish.unlink:at=1")
        try:
            assert select_answer(relation.store) == reference
        finally:
            faults.set_fault_plan(None, reset_pools=False)
        # The vanished file is fatal for this publication (retrying the
        # same handles cannot help) — one clean fallback, no wrong answer.
        assert parallel.dispatch_stats()["fatal"] > fatal_before
        # The next query republishes and the process path works again.
        assert select_answer(relation.store) == reference


def load_chaos_bench():
    """``benchmarks/bench_chaos.py`` as a module (it is a script, not a package)."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_chaos.py"
    spec = importlib.util.spec_from_file_location("bench_chaos", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestChaosReport:
    @staticmethod
    def cell(executor, shards, routed):
        return {
            "backend": "sharded" if shards > 1 else "column",
            "executor": executor,
            "shards": shards,
            "queries": 2,
            "identical": 2,
            "typed_errors": 0,
            "wrong_answers": 0,
            "hangs": 0,
            "healed_without_reset": True,
            "p50_seconds": 0.0,
            "max_seconds": 0.0,
            "dispatch_delta": {},
            "breaker": {"state": "closed"},
            "routed_tasks": routed,
        }

    def test_a_process_cell_that_routed_nothing_fails_the_check(self):
        """A process cell over a partitioned store that placed no task on a
        worker proved nothing; unpartitioned and serial cells never route."""
        check_report = load_chaos_bench().check_report
        report = {
            "benchmark": "chaos soak",
            "plan": "seed=1",
            "summary": {},
            "serving": {"wrong_answers": 0, "result_cache_errors": 0},
            "combos": [
                self.cell("process", 4, 3),
                self.cell("serial", 4, 0),
                self.cell("process", 1, 0),
            ],
        }
        assert check_report(report) == []
        report["combos"].append(self.cell("process", 4, 0))
        assert check_report(report) == [
            "sharded×process: routed no task to a worker (the soak proved nothing)"
        ]
        del report["combos"][-1]["routed_tasks"]
        assert check_report(report) == ["sharded×process: missing field 'routed_tasks'"]


# ---------------------------------------------------------------------------
# Serving-layer resilience
# ---------------------------------------------------------------------------


class TestServingResilience:
    def test_cache_faults_are_misses_not_failures(self, tiny_beas, plan_guard):
        server = QueryServer(tiny_beas)
        query = "SELECT e.eid, e.salary FROM emp e WHERE e.dept = 2"
        baseline = server.serve(query, alpha=0.5)
        faults.set_fault_plan(
            "seed=1;serving.cache.get:p=1;serving.cache.put:p=1", reset_pools=False
        )
        try:
            for _ in range(2):
                envelope = server.serve(query, alpha=0.5)
                assert not envelope.result_cache_hit  # every lookup "missed"
                assert_identical(envelope.rows, baseline.rows)
        finally:
            faults.set_fault_plan(None, reset_pools=False)
        counters = server.stats.snapshot()["counters"]
        assert counters["result_cache_errors"] >= 2
        # Healed: the next request caches and hits again.
        server.serve(query, alpha=0.5)
        assert server.serve(query, alpha=0.5).result_cache_hit

    @pytest.mark.parametrize("backend_name", ["row", "sharded"])
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
        assert healthy.degraded_reason is None

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
        assert broken.degraded_reason is None
        assert_identical(broken.rows, healthy.rows)  # typed, in order: bit-identical
        assert repr(broken.eta) == repr(healthy.eta)

        counters = server.stats.snapshot()["counters"]
        assert not any(name.startswith("degraded[") for name in counters)

    def test_cache_info_exposes_resilience_sections(self, tiny_beas, plan_guard):
        server = QueryServer(tiny_beas)
        faults.set_fault_plan("seed=1;test.x:p=1", reset_pools=False)
        try:
            info = server.cache_info()
            assert info["dispatch"]["breaker"]["state"] in ("closed", "open", "half-open")
            assert "retries" in info["dispatch"]
            assert info["faults"] == {"test.x": {"calls": 0, "fires": 0}}
        finally:
            faults.set_fault_plan(None, reset_pools=False)
        assert server.cache_info()["faults"] == {}

    def test_fault_injected_error_is_typed(self):
        assert issubclass(FaultInjectedError, ReproError)
