"""Every query atom reads the frame of one fetch step, never a join of several.

The executor hands each atom the frame of the step the chase names for it
(``FetchPlan.frames``), so that step's ``X ∪ Y`` must span the atom's
non-constant cells.  Steps that only cover the atom between them are not
enough: under ``r(a → b)`` and ``r(a → c)`` the two steps of ``select r.b, r.c
from r where r.a = 1`` are projections of ``r``, and joining them on ``a`` (not
a key) pairs every ``b`` of ``a = 1`` with every ``c`` — 25 rows for 5,
reported exact with ``η = 1``.  The phase-1 steps the frame step replaces, and
that no step reads, are dropped from the plan, so they are neither fetched nor
charged.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import Beas, ConstraintSpec, Database, Relation
from repro.accuracy.rc import rc_accuracy
from repro.experiments import build_beas
from repro.relational.distance import NUMERIC
from repro.relational.relation import row_sort_key
from repro.relational.schema import Attribute, RelationSchema
from conftest import SMOKE_CORPORA, smoke_corpus


@pytest.fixture(scope="module")
def projections():
    """``r(a, b, c)``: five ``b`` per ``a``, ``c`` a function of ``b``; ``a`` determines neither."""
    schema = RelationSchema("r", [Attribute("a", NUMERIC), Attribute("b", NUMERIC), Attribute("c", NUMERIC)])
    rows = [(a, 5 * a + k, (5 * a + k) * 37 % 101) for a in range(40) for k in range(5)]
    database = Database.from_relations([Relation(schema, rows)])
    return Beas(database, constraints=[ConstraintSpec("r", ("a",), ("b",)), ConstraintSpec("r", ("a",), ("c",))])


PROJECTION_QUERIES = (
    "select r.b, r.c from r as r where r.a = 1",
    "select r.a, count(r.b) from r as r where r.a = 1 and r.c >= 0 group by r.a",
    "select x.b, x.c from r as x where x.a = 1 except select y.b, y.c from r as y where y.a = 1 and y.b <= 6",
)


@pytest.mark.parametrize("alpha", (0.1, 1.0))
@pytest.mark.parametrize("sql", PROJECTION_QUERIES, ids=("spc", "count", "except"))
def test_covering_projections_are_not_joined(projections, sql, alpha):
    result = projections.answer(sql, alpha)
    exact = projections.answer_exact(sql)
    if result.exact:
        assert sorted(result.rows.rows, key=row_sort_key) == sorted(exact.rows, key=row_sort_key)
    assert result.eta <= rc_accuracy(result.plan.query, projections.database, result.rows, exact).accuracy


def test_only_the_steps_that_are_read_are_fetched(projections):
    """Phase 1's ``r(a → c)`` step is replaced by the frame step and read by nothing: it is not fetched or charged."""
    plan = projections.plan(PROJECTION_QUERIES[0], 1.0)
    assert [step.name for step in plan.fetch_plan] == ["T1", "T3"] and plan.fetch_plan.frames == {"r": "T3"}
    assert projections.answer(PROJECTION_QUERIES[0], 1.0).tuples_accessed == 10
    # The difference's read steps cost exactly its budget at α = 0.1; charging its unread steps too
    # priced it at 25 and refused it.
    result = projections.answer(PROJECTION_QUERIES[2], 0.1)
    assert (result.plan.tariff, result.budget, result.exact) == (20, 20, True)
    assert len(result.rows) == len(projections.answer_exact(PROJECTION_QUERIES[2])) == 3


def test_a_frame_step_that_does_not_span_its_atom_is_caught(projections):
    plan = projections.plan(PROJECTION_QUERIES[0], 1.0)
    assert spans_every_atom(plan)
    fetch_plan = plan.fetch_plan.copy()
    fetch_plan.frames["r"] = "T1"  # r(a → b) leaves out c
    assert not spans_every_atom(dataclasses.replace(plan, fetch_plan=fetch_plan))


def spans_every_atom(plan):
    """Whether every atom of ``plan`` has a frame step of its own whose ``X ∪ Y`` spans its non-constant cells."""
    if set(plan.fetch_plan.frames) != set(plan.needed_attributes):
        return False
    for alias, name in plan.fetch_plan.frames.items():
        fetched = set(plan.needed_attributes[alias]) - set(plan.constants.get(alias, {}))
        step = plan.fetch_plan.step(name)
        if step.alias != alias or not fetched <= set(step.accessor.x + step.accessor.y):
            return False
    return True


@pytest.mark.parametrize("name", sorted(SMOKE_CORPORA))
def test_smoke_corpus_plans_span_every_atom(name):
    workload, queries, alphas = smoke_corpus(name)
    beas = build_beas(workload)
    for query in queries:
        for alpha in alphas:
            assert spans_every_atom(beas.plan(query.ast, alpha)), (query.sql, alpha)
