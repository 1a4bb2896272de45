"""chAT and ``L`` under ``src/`` against the straightforward oracle, on all four workloads.

The planner derives the structure of the query and of the plan once and
carries one float per fetch step (see :mod:`repro.core.chat`); the oracle in
``chat_oracle.py`` recomputes everything per candidate.  They must agree on
every step's level, on the tariff and on ``repr(η)`` for generated SPC, RA
and aggregate queries at every α of the grid.
"""

from __future__ import annotations

import pytest

from repro.algebra import ast as ast_module
from repro.algebra.aggregates import AggregateFunction
from repro.algebra.ast import Difference, GroupBy, Project, Scan, Select, Union
from repro.algebra.predicates import AttrRef, CompareOp, Comparison, Conjunction
from repro.core.lower_bound import bound_attributes, distance_bounds, lower_bound
from repro.core.planner import generate_plan
from repro.errors import PlanError
from repro.experiments import build_beas
from repro.workloads import QueryGenerator, airca, tfacc

import chat_oracle
from conftest import union_compatible

ALPHAS = (0.002, 0.01, 0.05, 0.2, 0.5, 1.0)
QUERIES_PER_WORKLOAD = 12


@pytest.fixture(scope="module")
def engines(tpch_workload, tpch_beas, social_workload, social_beas):
    small_airca = airca.generate(flights=500, airports=20)
    small_tfacc = tfacc.generate(accidents=300, stops=100)
    return {
        "tpch": (tpch_workload, tpch_beas),
        "airca": (small_airca, build_beas(small_airca)),
        "tfacc": (small_tfacc, build_beas(small_tfacc)),
        "social": (social_workload, social_beas),
    }


@pytest.fixture(scope="module")
def planned(engines):
    """Per workload: ``[(query, [(alpha, plan), ...]), ...]`` for the generated mix."""
    out = {}
    for name, (workload, beas) in engines.items():
        queries = QueryGenerator(workload, seed=5).workload_mix(QUERIES_PER_WORKLOAD, require_nonempty=False)
        queries = [query for query in queries if union_compatible(query.ast, beas.database.schema)]
        out[name] = [
            (
                query,
                [
                    (
                        alpha,
                        generate_plan(
                            query.ast, beas.database.schema, beas.access_schema, beas.database.budget_for(alpha)
                        ),
                    )
                    for alpha in ALPHAS
                ],
            )
            for query in queries
        ]
    return out


def _levels(fetch_plan):
    return [(step.name, step.accessor.level) for step in fetch_plan]


def _at_level_zero(fetch_plan):
    """The plan as the chase left it: chAT is the only thing that raises a level."""
    fresh = fetch_plan.copy()
    for step in fresh:
        step.accessor.level = 0
    return fresh


@pytest.mark.parametrize("name", ["tpch", "airca", "tfacc", "social"])
class TestAgainstOracle:
    def test_levels_tariff_and_eta_match(self, name, engines, planned):
        schema = engines[name][1].database.schema
        classes = set()
        for query, plans in planned[name]:
            classes.add(query.query_class)
            for alpha, plan in plans:
                expected = _at_level_zero(plan.fetch_plan)
                eta = chat_oracle.chat(expected, query.ast, plan.budget, schema)
                where = f"{name}/{query.name} at alpha={alpha}"
                assert _levels(plan.fetch_plan) == _levels(expected), where
                assert plan.tariff == chat_oracle.tariff(expected), where
                assert repr(plan.eta) == repr(eta), where
        assert len(classes) >= 3, f"the generated mix covers only {sorted(classes)}"

    def test_bound_functions_match_on_final_plans(self, name, engines, planned):
        schema = engines[name][1].database.schema
        for query, plans in planned[name]:
            for _alpha, plan in plans:
                fetched = plan.resolution_map()
                assert fetched == chat_oracle.resolutions(plan.fetch_plan)
                worst = chat_oracle.worst_distance(query.ast, fetched, schema)
                assert distance_bounds(query.ast, fetched, schema) == (worst, worst)
                assert repr(lower_bound(query.ast, fetched, schema)) == repr(plan.eta)

    def test_budget_levels_and_monotone_eta(self, name, planned):
        for query, plans in planned[name]:
            previous = -1.0
            for alpha, plan in plans:
                where = f"{name}/{query.name} at alpha={alpha}"
                cheapest = chat_oracle.tariff(_at_level_zero(plan.fetch_plan))
                # The chase must cover every atom, so at tiny budgets even the
                # level-0 plan can cost more than B; chAT never adds to that.
                assert plan.tariff <= max(plan.budget, cheapest), where
                for step in plan.fetch_plan:
                    assert 0 <= step.accessor.level <= step.accessor.max_level, where
                assert 0.0 <= plan.eta <= 1.0, where
                assert plan.eta >= previous, where
                previous = plan.eta


class TestStructuralWorkIsDoneOnce:
    def test_output_schema_calls_do_not_grow_with_iterations(self, engines, planned, monkeypatch):
        """Same query, small vs. large budget: more chAT iterations, the same number of schema derivations."""
        calls = [0]
        for cls in (
            ast_module.Scan, ast_module.Select, ast_module.Project, ast_module.Product,
            ast_module.Union, ast_module.Difference, ast_module.Rename, ast_module.GroupBy,
        ):
            original = cls.output_schema

            def counted(self, db_schema, _original=original):
                calls[0] += 1
                return _original(self, db_schema)

            monkeypatch.setattr(cls, "output_schema", counted)

        compared = 0
        for name, (_workload, beas) in engines.items():
            for query, plans in planned[name]:
                small, large = plans[1][1], plans[-1][1]
                iterations = [sum(step.accessor.level for step in p.fetch_plan) for p in (small, large)]
                if _levels(_at_level_zero(small.fetch_plan)) != _levels(_at_level_zero(large.fetch_plan)):
                    continue  # the chase itself chose another plan shape at this budget
                if iterations[1] < iterations[0] + 3:
                    continue
                counts = []
                for plan in (small, large):
                    calls[0] = 0
                    generate_plan(query.ast, beas.database.schema, beas.access_schema, plan.budget)
                    counts.append(calls[0])
                assert counts[0] == counts[1] > 0, f"{name}/{query.name}: {counts} for {iterations} iterations"
                compared += 1
        assert compared >= 8


class TestCompiledSet:
    """What ``bound_attributes`` keeps, operator by operator (social's ``poi`` as ``h``)."""

    @staticmethod
    def _cheap(alias="h"):
        condition = Conjunction.of([Comparison(AttrRef.parse(f"{alias}.price"), CompareOp.LE, 50)])
        return Select(Scan("poi", alias), condition)

    def test_spc_is_selection_plus_output(self, social_db):
        query = Project(self._cheap(), (AttrRef.parse("h.city"),))
        assert bound_attributes(query, social_db.schema) == {"h.price", "h.city"}

    def test_group_by_keeps_keys_and_the_aggregated_column_except_for_count(self, social_db):
        def grouped(aggregate):
            return GroupBy(self._cheap(), (AttrRef.parse("h.city"),), aggregate, AttrRef.parse("h.address"))

        assert bound_attributes(grouped(AggregateFunction.MIN), social_db.schema) == {"h.price", "h.city", "h.address"}
        assert bound_attributes(grouped(AggregateFunction.COUNT), social_db.schema) == {"h.price", "h.city"}

    def test_union_and_difference_take_both_sides(self, social_db):
        left = Project(self._cheap("a"), (AttrRef.parse("a.city"),))
        right = Project(Scan("poi", "b"), (AttrRef.parse("b.type"),))
        for operator in (Union, Difference):
            assert bound_attributes(operator(left, right), social_db.schema) == {"a.price", "a.city", "b.type"}
            fetched = {"a.price": 0.25, "b.type": 1.0, "b.price": 3.0}
            assert distance_bounds(operator(left, right), fetched, social_db.schema) == (1.0, 1.0)


class TestUnresolvableAttributesAreNotExact:
    """An attribute ``L`` cannot resolve used to count as fetched exactly (η too high)."""

    def test_selection_attribute(self, social_db):
        condition = Conjunction.of([Comparison(AttrRef.parse("h.nope"), CompareOp.EQ, 1)])
        query = Select(Scan("poi", "h"), condition)
        with pytest.raises(PlanError, match="h.nope"):
            bound_attributes(query, social_db.schema)

    def test_output_schema(self, social_db):
        query = Project(Scan("poi", "h"), (AttrRef.parse("h.nope"),))
        with pytest.raises(PlanError, match="h.nope"):
            lower_bound(query, {}, social_db.schema)

    def test_unknown_operator_depends_on_every_fetched_attribute(self, social_db):
        class Opaque(ast_module.QueryNode):
            def children(self):
                return []

        assert bound_attributes(Opaque(), social_db.schema) is None
        assert lower_bound(Opaque(), {"h.price": 0.25, "h.city": 1.0}, social_db.schema) == 0.5
        union = Union(Scan("poi", "h"), Opaque())
        assert bound_attributes(union, social_db.schema) is None
