"""The statement memo: one parse and one fingerprint per distinct SQL text.

``Beas`` remembers ``text → (AST, fingerprint)`` (``Beas.statements``, a
bounded LRU); ``Beas.answer`` and ``QueryServer.serve`` both resolve their
query through it.  The call counts here keep that from rotting back into a
parse per request; the behaviour tests pin what the memo must *not* do —
remember a failure, grow without bound, hand two threads different answers,
swallow a ``QueryNode``, or stand in for the publication epoch.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import Beas, QueryServer, Relation, parse_query, query_fingerprint
from repro.core import framework
from repro.errors import ParseError

SQL = "SELECT e.eid, d.name FROM emp e, dept d WHERE e.dept = d.did AND d.did = 1"
OTHER = "SELECT e.eid FROM emp e WHERE e.salary <= 60 AND e.grade = 'g1'"


@pytest.fixture
def counts(monkeypatch):
    """Calls of ``parse_query`` / ``query_fingerprint`` as the engine and the server see them."""
    seen = {"parse": [], "fingerprint": 0}

    def parse(text):
        seen["parse"].append(text)
        return parse_query(text)

    def fingerprint(ast):
        seen["fingerprint"] += 1
        return query_fingerprint(ast)

    monkeypatch.setattr(framework, "parse_query", parse)
    monkeypatch.setattr(framework, "query_fingerprint", fingerprint)
    monkeypatch.setattr("repro.serving.server.query_fingerprint", fingerprint)
    return seen


class TestOncePerText:
    def test_across_answers_and_alphas(self, tiny_beas, counts):
        for alpha in (0.1, 0.5, 0.5, 1.0):
            tiny_beas.answer(SQL, alpha)
        tiny_beas.plan(SQL, 0.3)
        tiny_beas.answer_exact(SQL)
        tiny_beas.explain(SQL, 0.3)
        assert counts == {"parse": [SQL], "fingerprint": 1}
        tiny_beas.answer(OTHER, 0.5)
        assert counts == {"parse": [SQL, OTHER], "fingerprint": 2}

    def test_across_serves_and_the_engine_behind_them(self, tiny_beas, counts):
        server = QueryServer(tiny_beas)
        classes = []
        for alpha in (0.5, 0.5, 0.25, 0.5):
            envelope = server.serve(SQL, alpha)
            classes.append((envelope.result_cache_hit, envelope.plan_cache_hit))
        assert classes == [(False, False), (True, False), (False, False), (True, False)]
        tiny_beas.answer(SQL, 0.5)
        assert counts == {"parse": [SQL], "fingerprint": 1}
        assert envelope.fingerprint == query_fingerprint(parse_query(SQL))

    def test_a_query_node_is_not_looked_up(self, tiny_beas, counts):
        ast = parse_query(SQL)
        server = QueryServer(tiny_beas)
        first = server.serve(ast, 0.5)
        second = server.serve(ast, 0.5)
        assert second.result_cache_hit and first.fingerprint == second.fingerprint == query_fingerprint(ast)
        assert tiny_beas.answer(ast, 0.5).fingerprint == first.fingerprint
        assert counts == {"parse": [], "fingerprint": 3}
        assert tiny_beas.statements.cache_info().currsize == 0


class TestMemoBehaviour:
    def test_a_parse_error_is_raised_every_time_and_never_stored(self, tiny_beas, counts):
        server = QueryServer(tiny_beas)
        for ask in (lambda: tiny_beas.answer("select from", 0.5), lambda: server.serve("select from", 0.5)) * 2:
            with pytest.raises(ParseError):
                ask()
        assert counts["parse"] == ["select from"] * 4
        assert tiny_beas.statements.cache_info().currsize == 0
        assert server.admission.in_flight == 0

    def test_eviction_is_bounded(self, tiny_beas):
        capacity = framework.STATEMENT_MEMO_CAPACITY
        for bound in range(capacity + 50):
            tiny_beas.plan(f"select e.eid from emp as e where e.salary <= {bound}", 0.5)
        info = tiny_beas.statements.cache_info()
        assert (info.currsize, info.maxsize, info.misses) == (capacity, capacity, capacity + 50)
        tiny_beas.plan("select e.eid from emp as e where e.salary <= 0", 0.5)  # the oldest was evicted
        assert tiny_beas.statements.cache_info().misses == capacity + 51

    def test_each_engine_has_its_own(self, tiny_beas, tiny_db):
        other = Beas(tiny_db, access_schema=tiny_beas.access_schema)
        tiny_beas.plan(SQL, 0.5)
        assert other.statements.cache_info().currsize == 0

    def test_two_threads_fifty_texts(self, tiny_beas):
        """More threads than cores on one server, switching every few bytecodes: every fingerprint is the fresh one."""
        texts = [f"select e.eid from emp as e where e.salary <= {40 + bound}" for bound in range(50)]
        expected = {text: query_fingerprint(parse_query(text)) for text in texts}
        server = QueryServer(tiny_beas)
        wrong, errors = [], []

        def hammer(offset):
            try:
                for step in range(150):
                    text = texts[(offset + step * 7) % len(texts)]
                    envelope = server.serve(text, 0.5)
                    if envelope.fingerprint != expected[text] or envelope.result.fingerprint != expected[text]:
                        wrong.append(text)
            except Exception as exc:  # surfaced below; a thread must not die silently
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(offset,)) for offset in (0, 13, 29, 41)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and not wrong
        info = server.cache_info()["statements"]
        assert info["size"] == 50 and info["hits"] + info["misses"] == 600

    def test_a_mutation_between_two_serves_still_rotates_the_key(self, tiny_beas, counts):
        """The memo spares the parse, not the epoch: ``append`` and ``set_relation`` both miss afterwards."""
        server = QueryServer(tiny_beas)
        database = tiny_beas.database
        sql = "SELECT e.eid FROM emp e WHERE e.dept = 2"
        before = server.serve(sql, 0.9)
        assert server.serve(sql, 0.9).result_cache_hit
        database.relation("emp").append((997, 2, 61.0, "g2"))
        appended = server.serve(sql, 0.9)
        assert not appended.result_cache_hit and appended.publication_epoch > before.publication_epoch
        emp = database.relation("emp")
        database.set_relation("emp", Relation(emp.schema, emp.rows[:-1]))
        replaced = server.serve(sql, 0.9)
        assert not replaced.result_cache_hit and replaced.publication_epoch > appended.publication_epoch
        assert before.fingerprint == appended.fingerprint == replaced.fingerprint
        assert counts == {"parse": [sql], "fingerprint": 1}
