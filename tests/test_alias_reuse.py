"""A set operation whose branches reuse an alias (ROADMAP item 19, table H).

A plan keys each atom's constants, attributes and frame step by alias, so
two atoms named ``p`` once shared them: every branch read the last branch's
fetch, and a ``union`` returned 1 row for 181 while reporting ``exact`` with
``η = 1``.  ``generate_plan`` now scopes aliases per branch
(:func:`~repro.algebra.spc.scope_aliases`).  Table H's six queries are held
to SQLite's rows whenever the answer reports itself exact, and ``η`` to the
measured RC accuracy always, at a small and a full α.
"""

from __future__ import annotations

import pytest

from repro.accuracy.rc import rc_accuracy
from repro.algebra.sql import parse_query
from repro.core.planner import generate_plan
from repro.experiments import build_beas
from repro.workloads import social

import sql_oracle


@pytest.fixture(scope="module")
def engine():
    return build_beas(social.generate(persons=200, pois=500))


@pytest.fixture(scope="module")
def connection(engine):
    return sql_oracle.load(engine.database)


TABLE_H = {
    "union-range-first": "select p.pid from person as p where p.pid <= 20 "
    "union select p.pid from person as p where p.pid = 3",
    "union-wide-range-first": "select p.pid from person as p where p.pid >= 20 "
    "union select p.pid from person as p where p.pid = 3",
    "union-constant-first": "select p.pid from person as p where p.pid = 3 "
    "union select p.pid from person as p where p.pid >= 20",
    "union-of-joins": "select f.fid, p.city from friend as f, person as p where f.pid = p.pid and p.pid = 3 "
    "union select f.fid, p.city from friend as f, person as p where f.pid = p.pid and p.pid = 4",
    "except": "select p.pid from person as p where p.pid <= 20 except select p.pid from person as p where p.pid = 3",
    "except-renamed": "select p.pid from person as p where p.pid <= 20 "
    "except select q.pid from person as q where q.pid = 3",
}


@pytest.mark.parametrize("alpha", (0.1, 1.0))
@pytest.mark.parametrize("sql", list(TABLE_H.values()), ids=list(TABLE_H))
def test_exact_answers_are_q_of_d(engine, connection, sql, alpha):
    expected = sql_oracle.answer(connection, sql)
    exact = engine.answer_exact(sql)
    assert sql_oracle.distinct_rows(exact.rows) == expected
    result = engine.answer(sql, alpha)
    if result.exact:
        assert sql_oracle.distinct_rows(result.rows.rows) == expected, (sql, alpha)
    assert result.eta <= rc_accuracy(result.plan.query, engine.database, result.rows, exact).accuracy


def test_every_table_h_query_is_exact_at_alpha_1(engine):
    """The checks above are not vacuous: all six are answered exactly at α = 1."""
    assert all(engine.answer(sql, 1.0).exact for sql in TABLE_H.values())


def test_later_branches_get_fresh_aliases_and_the_answer_keeps_its_columns(engine):
    ast = parse_query(TABLE_H["union-of-joins"])
    plan = engine.plan(ast, 1.0)
    assert sorted(plan.fetch_plan.frames) == ["f", "f_2", "p", "p_2"]
    schema = engine.database.schema
    assert plan.query.output_schema(schema).attribute_names == ast.output_schema(schema).attribute_names


def test_a_query_without_reuse_is_planned_as_given(engine):
    ast = parse_query(TABLE_H["except-renamed"])
    assert generate_plan(ast, engine.database.schema, engine.access_schema, budget=100).query is ast
