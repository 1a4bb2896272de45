"""Tests for the workload generators, the random query generator, and the
end-to-end storage-backend matrix (one representative ``Beas.answer`` per
workload under every registered backend)."""

import pytest

from repro import Beas
from repro.algebra.evaluator import evaluate_exact
from repro.algebra.spc import classify
from repro.experiments import build_beas
from repro.workloads import QueryGenerator, WORKLOADS, airca, social, tfacc, tpch

from conftest import assert_identical, to_backend
from template_oracle import check_conformance


class TestGenerators:
    def test_registry(self):
        assert set(WORKLOADS) == {"tpch", "airca", "tfacc", "social"}

    def test_deterministic_generation(self):
        a = tpch.generate(scale=1, seed=13)
        b = tpch.generate(scale=1, seed=13)
        assert a.database.relation_sizes() == b.database.relation_sizes()
        assert a.database.relation("orders").rows == b.database.relation("orders").rows

    def test_tpch_scale_grows_data(self):
        small = tpch.generate(scale=1).database.total_tuples
        large = tpch.generate(scale=3).database.total_tuples
        assert large > 2 * small

    def test_tpch_foreign_keys_resolve(self):
        w = tpch.generate(scale=1)
        customers = {r[0] for r in w.database.relation("customer").rows}
        assert all(r[1] in customers for r in w.database.relation("orders").rows)

    def test_social_friend_cap_respected(self, social_workload):
        counts = {}
        for pid, _ in social_workload.database.relation("friend").rows:
            counts[pid] = counts.get(pid, 0) + 1
        assert max(counts.values()) <= 6

    def test_tfacc_vehicles_reference_accidents(self):
        w = tfacc.generate(accidents=300, stops=100)
        accident_ids = {r[0] for r in w.database.relation("accidents").rows}
        assert all(r[0] in accident_ids for r in w.database.relation("vehicles").rows)

    def test_airca_flights_reference_airports(self):
        w = airca.generate(flights=500, airports=20)
        airports = {r[0] for r in w.database.relation("airports").rows}
        for row in w.database.relation("flights").rows:
            assert row[2] in airports and row[3] in airports

    @pytest.mark.parametrize("name", ["tpch", "airca", "tfacc", "social"])
    def test_declared_access_schema_conforms(self, name):
        kwargs = {"scale": 1} if name == "tpch" else {}
        if name == "airca":
            kwargs = {"flights": 800, "airports": 20}
        if name == "tfacc":
            kwargs = {"accidents": 500, "stops": 200}
        if name == "social":
            kwargs = {"persons": 200, "pois": 600, "cities": 10}
        workload = WORKLOADS[name](**kwargs)
        beas = build_beas(workload, max_level=4)
        assert check_conformance(beas.access_schema, workload.database, sample_levels=(0, 2))

    def test_workload_metadata(self, tpch_workload):
        assert tpch_workload.numeric_attributes("lineitem")
        assert tpch_workload.categorical_attributes("customer")

    def test_example_queries_run(self, social_workload):
        for sql in social.example_queries():
            result = evaluate_exact(
                __import__("repro.algebra.sql", fromlist=["parse_query"]).parse_query(sql),
                social_workload.database,
            )
            assert result is not None


class TestQueryGenerator:
    def test_spc_query_shape(self, tpch_workload):
        gen = QueryGenerator(tpch_workload, seed=1)
        q = gen.spc(num_products=2, num_selections=4)
        assert q.query_class == "SPC"
        assert q.num_products <= 2 + 1
        assert classify(q.ast) == "SPC"

    def test_aggregate_query_shape(self, tpch_workload):
        gen = QueryGenerator(tpch_workload, seed=2)
        q = gen.aggregate(num_products=1, num_selections=3)
        assert q.query_class in ("agg(SPC)", "SPC")
        q.ast  # parses

    def test_ra_query_has_difference(self, tpch_workload):
        gen = QueryGenerator(tpch_workload, seed=3)
        q = gen.ra(num_products=1, num_selections=3, num_differences=1)
        assert q.ast.has_difference()

    def test_ra_zero_differences_is_plain(self, tpch_workload):
        gen = QueryGenerator(tpch_workload, seed=4)
        q = gen.ra(num_products=1, num_selections=3, num_differences=0)
        assert not q.ast.has_difference()

    def test_generated_queries_evaluate(self, tpch_workload):
        gen = QueryGenerator(tpch_workload, seed=5)
        for q in gen.workload_mix(count=6):
            result = evaluate_exact(q.ast, tpch_workload.database)
            assert result is not None

    def test_workload_mix_composition(self, tpch_workload):
        gen = QueryGenerator(tpch_workload, seed=6)
        queries = gen.workload_mix(count=10)
        assert len(queries) == 10
        classes = {q.query_class for q in queries}
        assert "agg(SPC)" in classes or "SPC" in classes

    def test_nonempty_mix_has_nonempty_answers(self, tpch_workload):
        gen = QueryGenerator(tpch_workload, seed=7)
        queries = gen.workload_mix(count=5, require_nonempty=True)
        nonempty = sum(
            1 for q in queries if len(evaluate_exact(q.ast, tpch_workload.database)) > 0
        )
        assert nonempty >= 3

    def test_unique_names(self, tpch_workload):
        gen = QueryGenerator(tpch_workload, seed=8)
        queries = gen.workload_mix(count=8, require_nonempty=False)
        names = [q.name for q in queries]
        assert len(set(names)) == len(names)


# ---------------------------------------------------------------------------
# End-to-end backend matrix: one representative query per workload through
# Beas.answer under every registered storage backend (the ``backend`` fixture
# is parametrized over list_backends() in conftest.py).
# ---------------------------------------------------------------------------

# (workload name, representative SQL, alpha) — each query is covered by the
# workload's declared access schema, so BEAS produces a real bounded plan.
WORKLOAD_QUERIES = {
    "tpch": (
        "select o.o_totalprice from orders as o "
        "where o.o_orderstatus = 'F' and o.o_totalprice <= 20000",
        0.05,
    ),
    "airca": (
        "select f.dep_delay, f.distance from flights as f "
        "where f.carrier = 'AA' and f.dep_delay <= 10",
        0.05,
    ),
    "social": (social.example_queries()[0], 0.02),
}

_WORKLOAD_BEAS_CACHE = {}


@pytest.fixture(scope="session")
def airca_workload():
    """A small AIRCA instance for the end-to-end backend matrix."""
    return airca.generate(flights=600, airports=20, seed=29)


def _workload_beas(name, workload, backend):
    """One BEAS instance per (workload, backend), memoized for the session."""
    key = (name, backend)
    if key not in _WORKLOAD_BEAS_CACHE:
        _WORKLOAD_BEAS_CACHE[key] = Beas(
            to_backend(workload.database, backend),
            constraints=workload.constraints,
            families=workload.families,
            max_level=6,
        )
    return _WORKLOAD_BEAS_CACHE[key]


class TestBackendWorkloadMatrix:
    @pytest.mark.parametrize("name", sorted(WORKLOAD_QUERIES))
    def test_beas_answer_identical_across_backends(
        self, name, backend, tpch_workload, airca_workload, social_workload
    ):
        workload = {
            "tpch": tpch_workload,
            "airca": airca_workload,
            "social": social_workload,
        }[name]
        sql, alpha = WORKLOAD_QUERIES[name]
        reference = _workload_beas(name, workload, "column").answer(sql, alpha)
        answer = _workload_beas(name, workload, backend).answer(sql, alpha)
        assert_identical(reference.rows, answer.rows)
        assert answer.eta == pytest.approx(reference.eta)
        assert answer.tuples_accessed == reference.tuples_accessed
        assert answer.exact == reference.exact
        # The matrix is only meaningful if the query actually returns data.
        assert len(answer.rows) > 0
