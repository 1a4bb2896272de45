"""Tests for the accuracy measures: RC, MAC, F-measure."""


import pytest

from repro.accuracy.fmeasure import f_measure
from repro.accuracy.mac import mac_accuracy
from repro.accuracy.rc import rc_accuracy
from repro.algebra.evaluator import evaluate_exact
from repro.algebra.sql import parse_query
from repro.relational.relation import Relation


def output_schema(db, sql):
    return parse_query(sql).output_schema(db.schema)


class TestRCBasics:
    def test_exact_answers_have_accuracy_one(self, tiny_db):
        q = parse_query("select e.salary from emp as e where e.salary <= 50")
        exact = evaluate_exact(q, tiny_db)
        result = rc_accuracy(q, tiny_db, exact, exact)
        assert result.accuracy == 1.0
        assert result.relevance == 1.0 and result.coverage == 1.0

    def test_empty_exact_answers_give_full_coverage(self, tiny_db):
        q = parse_query("select e.salary from emp as e where e.salary <= -10")
        exact = evaluate_exact(q, tiny_db)
        assert len(exact) == 0
        approx = Relation(q.output_schema(tiny_db.schema), [(35.0,)])
        result = rc_accuracy(q, tiny_db, approx, exact)
        assert result.coverage == 1.0

    def test_empty_approx_with_nonempty_exact_is_zero(self, tiny_db):
        q = parse_query("select e.salary from emp as e where e.salary <= 50")
        exact = evaluate_exact(q, tiny_db)
        empty = Relation(q.output_schema(tiny_db.schema))
        result = rc_accuracy(q, tiny_db, empty, exact)
        assert result.coverage == 0.0
        assert result.accuracy == 0.0

    def test_near_miss_answers_are_relevant(self, tiny_db):
        """A salary slightly above the threshold is relevant under relaxation
        (the hotel-at-$99 example), but would score 0 under the F-measure."""
        q = parse_query("select e.salary from emp as e where e.salary <= 50")
        exact = evaluate_exact(q, tiny_db)
        just_above = min(
            r[2] for r in tiny_db.relation("emp").rows if r[2] > 50
        )
        approx = Relation(q.output_schema(tiny_db.schema), list(exact.rows) + [(just_above,)])
        rc = rc_accuracy(q, tiny_db, approx, exact)
        f = f_measure(approx, exact)
        assert rc.accuracy > 0.5
        assert f.f_measure < 1.0

    def test_relevance_penalises_far_answers(self, tiny_db):
        q = parse_query("select e.salary from emp as e where e.salary <= 40")
        exact = evaluate_exact(q, tiny_db)
        near = Relation(q.output_schema(tiny_db.schema), list(exact.rows))
        far = Relation(q.output_schema(tiny_db.schema), list(exact.rows) + [(99.9,)])
        assert (
            rc_accuracy(q, tiny_db, far, exact).relevance
            < rc_accuracy(q, tiny_db, near, exact).relevance
        )

    def test_coverage_penalises_missing_answers(self, tiny_db):
        q = parse_query("select e.salary from emp as e where e.salary <= 60")
        exact = evaluate_exact(q, tiny_db)
        partial = Relation(q.output_schema(tiny_db.schema), list(exact.rows)[: len(exact) // 4])
        full = rc_accuracy(q, tiny_db, exact, exact)
        part = rc_accuracy(q, tiny_db, partial, exact)
        assert part.coverage <= full.coverage

    def test_relaxation_disallowed_tightens_relevance(self, tiny_db):
        q = parse_query("select e.salary from emp as e where e.salary <= 50")
        exact = evaluate_exact(q, tiny_db)
        just_above = min(r[2] for r in tiny_db.relation("emp").rows if r[2] > 50)
        approx = Relation(q.output_schema(tiny_db.schema), [(just_above,)])
        with_relax = rc_accuracy(q, tiny_db, approx, exact, relaxation_allowed=True)
        without = rc_accuracy(q, tiny_db, approx, exact, relaxation_allowed=False)
        assert without.relevance <= with_relax.relevance


class TestRCJoinsAndDifference:
    def test_join_query_exact_is_one(self, tiny_db):
        q = parse_query(
            "select e.salary, d.budget from emp as e, dept as d "
            "where e.dept = d.did and d.budget >= 1200"
        )
        exact = evaluate_exact(q, tiny_db)
        assert rc_accuracy(q, tiny_db, exact, exact).accuracy == 1.0

    def test_difference_query(self, tiny_db):
        q = parse_query(
            "select e.salary from emp as e where e.salary <= 60 "
            "except select f.salary from emp as f where f.salary <= 40"
        )
        exact = evaluate_exact(q, tiny_db)
        assert rc_accuracy(q, tiny_db, exact, exact).accuracy == 1.0


class TestRCAggregates:
    def test_exact_aggregate_is_one(self, tiny_db):
        q = parse_query("select e.dept, count(e.eid) from emp as e group by e.dept")
        exact = evaluate_exact(q, tiny_db)
        assert rc_accuracy(q, tiny_db, exact, exact).accuracy == 1.0

    def test_count_error_reduces_coverage(self, tiny_db):
        q = parse_query("select e.dept, count(e.eid) from emp as e group by e.dept")
        exact = evaluate_exact(q, tiny_db)
        rows = [(dept, count + 5) for dept, count in exact.rows]
        approx = Relation(q.output_schema(tiny_db.schema), rows)
        result = rc_accuracy(q, tiny_db, approx, exact)
        assert result.coverage == pytest.approx(1.0 / (1.0 + 5.0))

    def test_duplicate_group_keys_kill_relevance(self, tiny_db):
        q = parse_query("select e.dept, count(e.eid) from emp as e group by e.dept")
        exact = evaluate_exact(q, tiny_db)
        rows = list(exact.rows) + [(exact.rows[0][0], 999.0)]
        approx = Relation(q.output_schema(tiny_db.schema), rows)
        result = rc_accuracy(q, tiny_db, approx, exact)
        assert result.relevance == 0.0

    def test_min_aggregate_uses_value_distance(self, tiny_db):
        q = parse_query("select e.dept, min(e.salary) from emp as e group by e.dept")
        exact = evaluate_exact(q, tiny_db)
        rows = [(dept, value + 1.0) for dept, value in exact.rows]
        approx = Relation(q.output_schema(tiny_db.schema), rows)
        result = rc_accuracy(q, tiny_db, approx, exact)
        assert 0.0 < result.coverage < 1.0


class TestOtherMeasures:
    def test_f_measure_perfect(self, tiny_db):
        q = parse_query("select e.eid from emp as e where e.salary <= 50")
        exact = evaluate_exact(q, tiny_db)
        result = f_measure(exact, exact)
        assert result.f_measure == 1.0

    def test_f_measure_zero_when_disjoint(self, tiny_db):
        q = parse_query("select e.salary from emp as e where e.salary <= 50")
        exact = evaluate_exact(q, tiny_db)
        shifted = Relation(exact.schema, [(v + 0.001,) for (v,) in exact.rows])
        assert f_measure(shifted, exact).f_measure == 0.0

    def test_f_measure_empty_sets(self, tiny_db):
        q = parse_query("select e.salary from emp as e where e.salary <= -1")
        exact = evaluate_exact(q, tiny_db)
        assert f_measure(exact, exact).f_measure == 1.0

    def test_mac_identical_sets(self, tiny_db):
        sql = "select e.salary from emp as e where e.salary <= 50"
        q = parse_query(sql)
        exact = evaluate_exact(q, tiny_db)
        schema = output_schema(tiny_db, sql)
        assert mac_accuracy(exact, exact, schema).accuracy == 1.0

    def test_mac_decreases_with_perturbation(self, tiny_db):
        sql = "select e.salary from emp as e where e.salary <= 50"
        q = parse_query(sql)
        exact = evaluate_exact(q, tiny_db)
        schema = output_schema(tiny_db, sql)
        small = Relation(schema, [(v + 1.0,) for (v,) in exact.rows])
        large = Relation(schema, [(v + 20.0,) for (v,) in exact.rows])
        assert (
            mac_accuracy(large, exact, schema).accuracy
            < mac_accuracy(small, exact, schema).accuracy
            < 1.0
        )

    def test_mac_empty_vs_nonempty(self, tiny_db):
        sql = "select e.salary from emp as e where e.salary <= 50"
        q = parse_query(sql)
        exact = evaluate_exact(q, tiny_db)
        schema = output_schema(tiny_db, sql)
        assert mac_accuracy(Relation(schema), exact, schema).accuracy == 0.0

    def test_rc_coverage_relates_to_hausdorff_direction(self, tiny_db):
        sql = "select e.salary from emp as e where e.salary <= 50"
        q = parse_query(sql)
        exact = evaluate_exact(q, tiny_db)
        schema = output_schema(tiny_db, sql)
        perturbed = Relation(schema, [(v + 2.0,) for (v,) in exact.rows])
        rc = rc_accuracy(q, tiny_db, perturbed, exact)
        # Coverage distance equals the directed Hausdorff distance exact→approx.
        assert rc.max_coverage_distance == pytest.approx(2.0 / 100.0)
