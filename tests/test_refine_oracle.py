"""BEAS_RA's η′ refinement under ``src/`` against the nested-scan oracle.

``refine_bound_with_induced`` computes ``d′`` with one nearest-neighbour probe
per induced answer (:func:`repro.relational.kernels.max_min_distance`); the
oracle in ``refine_oracle.py`` scans every (induced answer, answer) pair.
They must agree on ``repr(η′)`` for generated RA queries with ``except`` over
all four workloads at the αs the benchmark replays, and on the three edge
cases of Fig. 5; and the probe count must stay linear in ``|Ŝ|``.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.algebra.spc import maximal_induced_query
from repro.algebra.sql import parse_query
from repro.core.beas_ra import refine_bound_with_induced
from repro.core.executor import PlanExecutor
from repro.core.lower_bound import distance_bounds
from repro.experiments import build_beas
from repro.relational.database import AccessMeter
from repro.relational.distance import DistanceFunction
from repro.relational.kernels import NearestNeighbors
from repro.relational.relation import Relation
from repro.workloads import QueryGenerator, airca, tfacc

import refine_oracle
from conftest import union_compatible

ALPHAS = {"tpch": (0.01, 0.02, 0.05), "airca": (0.5, 1.0), "tfacc": (0.25, 1.0), "social": (0.05, 0.2)}
QUERIES_PER_WORKLOAD = 8


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


def _executed(beas, ast, alpha):
    """``(plan, executor, answers)`` of one bounded execution, or ``None`` when the budget refuses it."""
    budget = beas.database.budget_for(alpha)
    plan = beas._plan_ast(ast, budget)
    if plan.tariff > budget:
        return None
    executor = PlanExecutor(beas.database, plan, AccessMeter(budget=budget))
    return plan, executor, executor.execute()


@pytest.mark.parametrize("name", ["tpch", "airca", "tfacc", "social"])
def test_eta_prime_matches_the_nested_scan(name, engines):
    workload, beas = engines[name]
    generator = QueryGenerator(workload, seed=5)
    compared = refined = 0
    for index in range(QUERIES_PER_WORKLOAD):
        query = generator.ra(num_products=index % 3, num_selections=3 + index % 3)
        ast = query.ast
        if not union_compatible(ast, beas.database.schema):
            continue
        for alpha in ALPHAS[name]:
            executed = _executed(beas, ast, alpha)
            if executed is None:
                continue
            plan, executor, answers = executed
            expected = refine_oracle.refine_bound_with_induced(plan, executor, beas.database, answers)
            actual = refine_bound_with_induced(plan, executor, beas.database, answers)
            assert repr(actual) == repr(expected), f"{name}/{query.name} at alpha={alpha}"
            assert repr(beas.answer(ast, alpha).eta) == repr(expected)
            compared += 1
            refined += actual != plan.eta
    assert compared >= 6, f"{name}: only {compared} (query, alpha) pairs ran"
    # social's generated RA queries have η = 0 at these αs (an unbounded
    # resolution on some attribute), so there the comparison is of zeros.
    assert refined >= 1 or name == "social", f"{name}: the refinement never moved the bound"


class TestEdgeCases:
    """Fig. 5's corner cases, with the executor stubbed to hand back chosen induced answers."""

    SQL = (
        "select h.address, h.price from poi as h where h.type = 'hotel' and h.price <= 95 "
        "except select h.address, h.price from poi as h where h.type = 'hotel' and h.price <= 60"
    )

    def _refine(self, social_db, answer_rows, induced_rows, function=refine_bound_with_induced):
        query = parse_query(self.SQL)
        schema = query.output_schema(social_db.schema)
        plan = SimpleNamespace(query=query, eta=0.25)
        executor = SimpleNamespace(
            evaluate=lambda _induced: Relation(schema, induced_rows), resolutions={"h.price": 0.125}
        )
        return function(plan, executor, social_db, Relation(schema, answer_rows))

    def _both(self, social_db, answer_rows, induced_rows):
        actual = self._refine(social_db, answer_rows, induced_rows)
        expected = self._refine(social_db, answer_rows, induced_rows, refine_oracle.refine_bound_with_induced)
        assert repr(actual) == repr(expected)
        return actual

    def _bounds(self, social_db):
        query = parse_query(self.SQL)
        d_rel, _ = distance_bounds(query, {"h.price": 0.125}, social_db.schema)
        _, cov = distance_bounds(maximal_induced_query(query), {"h.price": 0.125}, social_db.schema)
        return d_rel, cov

    def test_no_induced_answers_means_no_correction(self, social_db):
        d_rel, cov = self._bounds(social_db)
        eta = self._both(social_db, [("1 Main St", 70.0)], [])
        assert eta == 1.0 / (1.0 + max(d_rel, 0.0 + cov))

    def test_no_answers_bounds_nothing(self, social_db):
        assert self._both(social_db, [], [("1 Main St", 70.0)]) == 0.0

    def test_unmatched_unbounded_attribute_bounds_nothing(self, social_db):
        """An induced answer no answer shares its (trivial-distance) key with is infinitely far."""
        query = parse_query(
            "select p.pid, p.city from person as p where p.city = 'NYC' "
            "except select p.pid, p.city from person as p where p.city = 'LA'"
        )
        schema = query.output_schema(social_db.schema)
        assert schema.attributes[0].distance.name == "trivial"
        plan = SimpleNamespace(query=query, eta=0.5)
        executor = SimpleNamespace(
            evaluate=lambda _induced: Relation(schema, [(1, "NYC"), (2, "NYC")]), resolutions={}
        )
        answers = Relation(schema, [(1, "NYC")])
        assert refine_bound_with_induced(plan, executor, social_db, answers) == 0.0
        assert refine_oracle.refine_bound_with_induced(plan, executor, social_db, answers) == 0.0

    def test_exact_cover_keeps_the_plan_side_bounds(self, social_db):
        d_rel, cov = self._bounds(social_db)
        rows = [("1 Main St", 70.0), ("2 Side St", 80.0)]
        assert self._both(social_db, rows, list(reversed(rows))) == 1.0 / (1.0 + max(d_rel, cov))

    def test_queries_without_difference_keep_the_plan_bound(self, social_db):
        plan = SimpleNamespace(query=parse_query("select h.price from poi as h where h.price <= 60"), eta=0.375)
        assert refine_bound_with_induced(plan, None, social_db, None) == 0.375


def test_refinement_probes_once_per_induced_answer(engines, monkeypatch):
    """O(|Ŝ|) kernel probes — never |S|·|Ŝ| distance calls — so the nested scan cannot come back unnoticed."""
    probes, distance_calls = [0], [0]
    min_distance, call = NearestNeighbors.min_distance, DistanceFunction.__call__

    def counted_probe(self, values):
        probes[0] += 1
        return min_distance(self, values)

    def counted_call(self, x, y):
        distance_calls[0] += 1
        return call(self, x, y)

    workload, beas = engines["airca"]
    generator = QueryGenerator(workload, seed=5)
    checked = 0
    for index in range(QUERIES_PER_WORKLOAD):
        ast = generator.ra(num_products=index % 3, num_selections=3 + index % 3).ast
        if not union_compatible(ast, beas.database.schema):
            continue
        plan, executor, answers = _executed(beas, ast, 1.0)
        induced = executor.evaluate(maximal_induced_query(ast))
        if len(answers) * len(induced) < 400:
            continue
        with monkeypatch.context() as patch:
            patch.setattr(NearestNeighbors, "min_distance", counted_probe)
            patch.setattr(DistanceFunction, "__call__", counted_call)
            probes[0] = distance_calls[0] = 0
            refine_bound_with_induced(plan, executor, beas.database, answers)
        assert 0 < probes[0] <= len(induced) * len(answers.store.shard_views())
        assert distance_calls[0] < len(answers) * len(induced) / 4, (len(answers), len(induced))
        checked += 1
    assert checked >= 1
