"""The plan memo: one chase and one chAT per (query, budget ``⌊α·|D|⌋``).

``Beas`` remembers ``(fingerprint, budget) → BoundedPlan`` (``Beas.plans``, a
bounded LRU written under a lock); ``answer``, ``plan``, ``explain`` and the
serving layer all plan through it.  Planning reads no data, so an entry is
valid exactly as long as its key: these tests pin that the memo answers
bit-identically to fresh planning, is keyed on the budget and not on α or
the publication epoch, stays bounded, survives threads, and is never read or
written by the paths that build and mutate plans of their own.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import Beas, QueryServer
from repro.core import framework

from conftest import assert_identical

QUERIES = [
    "SELECT e.eid, e.salary FROM emp e WHERE e.dept = 2",
    "SELECT e.eid FROM emp e WHERE e.salary <= 60 AND e.grade = 'g1'",
    "SELECT e.eid, d.name FROM emp e, dept d WHERE e.dept = d.did AND d.did = 1",
    "SELECT e.dept, SUM(e.salary) FROM emp e GROUP BY e.dept",
    "SELECT e.eid FROM emp e WHERE e.dept = 1 EXCEPT SELECT e.eid FROM emp e WHERE e.salary <= 50",
]


@pytest.fixture
def planned(monkeypatch):
    """Every call of the planners behind the memo, as ``(query, budget)`` pairs."""
    calls = []
    for name in ("plan_spc", "plan_ra", "plan_aggregate"):
        original = getattr(framework, name)

        def counted(query, db_schema, access_schema, budget, _original=original):
            calls.append((query, budget))
            return _original(query, db_schema, access_schema, budget)

        monkeypatch.setattr(framework, name, counted)
    return calls


def _levels(plan):
    return [(step.name, step.accessor.level) for step in plan.fetch_plan]


class TestHits:
    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.5, 1.0])
    def test_a_second_answer_reuses_the_plan_and_matches_fresh_planning(self, tiny_beas, alpha):
        for sql in QUERIES:
            first = tiny_beas.answer(sql, alpha)
            second = tiny_beas.answer(sql, alpha)
            assert second.plan is first.plan
            assert tiny_beas.plan(sql, alpha) is first.plan
            fresh = Beas(tiny_beas.database, access_schema=tiny_beas.access_schema).answer(sql, alpha)
            for result in (first, second):
                assert_identical(result.rows, fresh.rows)
                assert (repr(result.eta), result.tuples_accessed) == (repr(fresh.eta), fresh.tuples_accessed)
            assert fresh.plan is not first.plan and fresh.plan.describe() == first.plan.describe()

    def test_answer_plan_and_explain_plan_once(self, tiny_beas, planned):
        sql = QUERIES[2]
        tiny_beas.answer(sql, 0.5)
        tiny_beas.plan(sql, 0.5)
        tiny_beas.explain(sql, 0.5)
        tiny_beas.answer(sql, 0.5, enforce_budget=False)
        assert len(planned) == 1

    def test_two_alphas_with_one_budget_share_an_entry(self, tiny_beas, planned):
        database = tiny_beas.database
        assert database.budget_for(0.5) == database.budget_for(0.505) != database.budget_for(0.49)
        a = tiny_beas.answer(QUERIES[0], 0.5)
        b = tiny_beas.answer(QUERIES[0], 0.505)
        assert b.plan is a.plan and b.alpha == 0.505
        assert len(tiny_beas.plans) == len(planned) == 1
        tiny_beas.answer(QUERIES[0], 0.49)
        assert len(tiny_beas.plans) == len(planned) == 2

    def test_the_server_reports_memo_hits(self, tiny_beas):
        server = QueryServer(tiny_beas)
        tiny_beas.answer(QUERIES[0], 0.5)  # the engine planned it: the server's first serve hits
        envelope = server.serve(QUERIES[0], 0.5)
        assert not envelope.result_cache_hit and envelope.plan_cache_hit
        assert envelope.result.plan is tiny_beas.plan(QUERIES[0], 0.5)


class TestKey:
    def test_an_append_that_keeps_the_budget_hits(self, tiny_beas):
        database, sql, alpha = tiny_beas.database, QUERIES[0], 0.1
        before = tiny_beas.answer(sql, alpha)
        # 65 → 66 tuples: ⌊0.1·65⌋ = ⌊0.1·66⌋ = 6.
        database.relation("emp").append((998, 2, 62.0, "g1"))
        assert database.budget_for(alpha) == before.budget
        after = tiny_beas.answer(sql, alpha)
        assert after.plan is before.plan
        # The reused plan answers the mutated data as fresh planning does.
        fresh = Beas(database, access_schema=tiny_beas.access_schema).answer(sql, alpha)
        assert_identical(after.rows, fresh.rows)

    def test_an_append_that_moves_the_budget_misses(self, tiny_beas):
        database, sql, alpha = tiny_beas.database, QUERIES[0], 0.5
        before = tiny_beas.answer(sql, alpha)
        database.relation("emp").append((998, 2, 62.0, "g1"))  # ⌊0.5·65⌋ = 32, ⌊0.5·66⌋ = 33
        after = tiny_beas.answer(sql, alpha)
        assert after.budget == before.budget + 1 and after.plan is not before.plan
        assert set(tiny_beas.plans) == {(before.fingerprint, 32), (before.fingerprint, 33)}

    def test_eviction_is_least_recently_used(self, tiny_beas, planned, monkeypatch):
        monkeypatch.setattr(framework, "PLAN_MEMO_CAPACITY", 3)
        for sql in QUERIES[:3]:
            tiny_beas.plan(sql, 0.5)
        tiny_beas.plan(QUERIES[0], 0.5)  # now the most recently used
        tiny_beas.plan(QUERIES[3], 0.5)  # evicts QUERIES[1], the least recently used
        assert len(tiny_beas.plans) == 3 and len(planned) == 4
        tiny_beas.plan(QUERIES[0], 0.5)
        tiny_beas.plan(QUERIES[2], 0.5)
        assert len(planned) == 4
        tiny_beas.plan(QUERIES[1], 0.5)
        assert len(planned) == 5

    def test_each_engine_has_its_own(self, tiny_beas):
        other = Beas(tiny_beas.database, access_schema=tiny_beas.access_schema)
        tiny_beas.plan(QUERIES[0], 0.5)
        assert len(other.plans) == 0


class TestIsolation:
    def test_exact_plans_never_touch_the_memo(self, tiny_beas, planned):
        memoised = {sql: tiny_beas.plan(sql, 0.05) for sql in QUERIES}
        levels = {sql: _levels(plan) for sql, plan in memoised.items()}
        entries = dict(tiny_beas.plans)
        for sql in QUERIES:
            tiny_beas.alpha_exact(sql)
            tiny_beas.is_boundedly_evaluable(sql)
        assert dict(tiny_beas.plans) == entries
        assert len(planned) == len(QUERIES)  # the analyses plan through the planner directly
        for sql, plan in memoised.items():
            assert _levels(plan) == levels[sql]
            assert tiny_beas.plan(sql, 0.05) is plan

    def test_threads_answering_one_query_agree(self, tiny_beas):
        sql = QUERIES[2]
        reference = Beas(tiny_beas.database, access_schema=tiny_beas.access_schema).answer(sql, 0.5)
        results, errors = [], []

        def hammer():
            try:
                for _ in range(25):
                    results.append(tiny_beas.answer(sql, 0.5))
            except Exception as exc:  # surfaced below; a thread must not die silently
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and len(results) == 100
        assert len({id(result.plan) for result in results}) == 1
        assert len(tiny_beas.plans) == 1
        for result in results:
            assert_identical(result.rows, reference.rows)

    def test_clear_caches_empties_the_memo(self, tiny_beas, planned):
        server = QueryServer(tiny_beas)
        server.serve(QUERIES[0], 0.5)
        server.clear_caches()
        assert len(tiny_beas.plans) == 0
        again = server.serve(QUERIES[0], 0.5)
        assert not again.result_cache_hit and not again.plan_cache_hit
        assert len(planned) == 2
