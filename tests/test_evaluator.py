"""Tests for exact RA / RA_aggr evaluation (the ground-truth engine)."""

import pytest

from repro.algebra.evaluator import DatabaseProvider, Evaluator, evaluate_exact
from repro.algebra.sql import parse_query
from repro.relational.database import AccessMeter


def brute_force_join_filter(db, predicate):
    """Reference nested-loop implementation for emp ⋈ dept queries."""
    emp = db.relation("emp").rows
    dept = db.relation("dept").rows
    out = []
    for e in emp:
        for d in dept:
            if predicate(e, d):
                out.append((e, d))
    return out


class TestSelectionsAndProjections:
    def test_simple_selection(self, tiny_db):
        q = parse_query("select e.eid from emp as e where e.salary <= 40")
        result = evaluate_exact(q, tiny_db)
        expected = {((r[0]),) for r in tiny_db.relation("emp").rows if r[2] <= 40}
        assert result.to_set() == frozenset(expected)

    def test_equality_on_categorical(self, tiny_db):
        q = parse_query("select e.eid from emp as e where e.grade = 'g1'")
        result = evaluate_exact(q, tiny_db)
        expected = {(r[0],) for r in tiny_db.relation("emp").rows if r[3] == "g1"}
        assert result.to_set() == frozenset(expected)

    def test_projection_deduplicates(self, tiny_db):
        q = parse_query("select e.dept from emp as e")
        result = evaluate_exact(q, tiny_db)
        assert len(result) == 5

    def test_multiple_conditions_are_conjunctive(self, tiny_db):
        q = parse_query("select e.eid from emp as e where e.salary >= 40 and e.salary <= 60")
        result = evaluate_exact(q, tiny_db)
        for (eid,) in result:
            salary = dict((r[0], r[2]) for r in tiny_db.relation("emp").rows)[eid]
            assert 40 <= salary <= 60


class TestJoins:
    def test_equijoin_matches_brute_force(self, tiny_db):
        q = parse_query(
            "select e.eid, d.name from emp as e, dept as d where e.dept = d.did"
        )
        result = evaluate_exact(q, tiny_db)
        expected = {
            (e[0], d[1]) for e, d in brute_force_join_filter(tiny_db, lambda e, d: e[1] == d[0])
        }
        assert result.to_set() == frozenset(expected)

    def test_join_with_filter(self, tiny_db):
        q = parse_query(
            "select e.eid from emp as e, dept as d where e.dept = d.did and d.budget >= 1200"
        )
        result = evaluate_exact(q, tiny_db)
        expected = {
            (e[0],)
            for e, d in brute_force_join_filter(
                tiny_db, lambda e, d: e[1] == d[0] and d[2] >= 1200
            )
        }
        assert result.to_set() == frozenset(expected)

    def test_cartesian_product_size(self, tiny_db):
        q = parse_query("select e.eid, d.did from emp as e, dept as d")
        result = evaluate_exact(q, tiny_db)
        assert len(result) == 60 * 5

    def test_attr_attr_inequality(self, tiny_db):
        q = parse_query(
            "select e.eid from emp as e, dept as d where e.dept = d.did and e.salary <= d.budget"
        )
        result = evaluate_exact(q, tiny_db)
        assert len(result) == 60  # every salary is below every budget


class TestSetOperations:
    def test_difference(self, tiny_db):
        q = parse_query(
            "select e.eid from emp as e where e.salary <= 60 "
            "except select f.eid from emp as f where f.salary <= 40"
        )
        result = evaluate_exact(q, tiny_db)
        rows = tiny_db.relation("emp").rows
        expected = {(r[0],) for r in rows if r[2] <= 60} - {(r[0],) for r in rows if r[2] <= 40}
        assert result.to_set() == frozenset(expected)

    def test_union(self, tiny_db):
        q = parse_query(
            "select e.eid from emp as e where e.salary <= 35 "
            "union select f.eid from emp as f where f.salary >= 90"
        )
        result = evaluate_exact(q, tiny_db)
        rows = tiny_db.relation("emp").rows
        expected = {(r[0],) for r in rows if r[2] <= 35 or r[2] >= 90}
        assert result.to_set() == frozenset(expected)


class TestAggregates:
    def test_count_group_by(self, tiny_db):
        q = parse_query("select e.dept, count(e.eid) from emp as e group by e.dept")
        result = evaluate_exact(q, tiny_db)
        counts = dict(result.rows)
        assert sum(counts.values()) == 60
        assert all(v == 12 for v in counts.values())

    def test_sum_group_by(self, tiny_db):
        q = parse_query("select e.dept, sum(e.salary) from emp as e group by e.dept")
        result = evaluate_exact(q, tiny_db)
        rows = tiny_db.relation("emp").rows
        for dept, total in result.rows:
            expected = sum(r[2] for r in rows if r[1] == dept)
            assert total == pytest.approx(expected)

    def test_min_max_group_by(self, tiny_db):
        qmin = parse_query("select e.dept, min(e.salary) from emp as e group by e.dept")
        qmax = parse_query("select e.dept, max(e.salary) from emp as e group by e.dept")
        rows = tiny_db.relation("emp").rows
        for dept, value in evaluate_exact(qmin, tiny_db).rows:
            assert value == min(r[2] for r in rows if r[1] == dept)
        for dept, value in evaluate_exact(qmax, tiny_db).rows:
            assert value == max(r[2] for r in rows if r[1] == dept)

    def test_avg_with_filter(self, tiny_db):
        q = parse_query(
            "select e.dept, avg(e.salary) from emp as e where e.salary >= 50 group by e.dept"
        )
        result = evaluate_exact(q, tiny_db)
        rows = [r for r in tiny_db.relation("emp").rows if r[2] >= 50]
        for dept, value in result.rows:
            values = [r[2] for r in rows if r[1] == dept]
            assert value == pytest.approx(sum(values) / len(values))

    def test_aggregate_over_join_uses_bag_semantics(self, tiny_db):
        q = parse_query(
            "select d.name, count(e.eid) from emp as e, dept as d "
            "where e.dept = d.did group by d.name"
        )
        result = evaluate_exact(q, tiny_db)
        assert sum(v for _, v in result.rows) == 60


class TestMeterAndRelaxation:
    def test_exact_evaluation_charges_scans(self, tiny_db):
        meter = AccessMeter()
        q = parse_query("select e.eid from emp as e where e.salary <= 40")
        evaluate_exact(q, tiny_db, meter)
        assert meter.accessed == 60

    def test_relaxed_selection_admits_near_misses(self, tiny_db):
        q = parse_query("select e.eid from emp as e where e.salary <= 40")
        strict = evaluate_exact(q, tiny_db)
        relaxed_eval = Evaluator(
            tiny_db.schema,
            DatabaseProvider(tiny_db),
            relaxation={"e.salary": 0.2},  # salary distance is scaled by 100
        )
        relaxed = relaxed_eval.evaluate(q)
        assert strict.to_set() <= relaxed.to_set()
        assert len(relaxed) >= len(strict)

    def test_relaxed_equality_uses_distance(self, tiny_db):
        q = parse_query("select e.eid from emp as e where e.salary = 30")
        relaxed_eval = Evaluator(
            tiny_db.schema, DatabaseProvider(tiny_db), relaxation={"e.salary": 0.05}
        )
        relaxed = relaxed_eval.evaluate(q)
        for (eid,) in relaxed:
            salary = dict((r[0], r[2]) for r in tiny_db.relation("emp").rows)[eid]
            assert abs(salary - 30) / 100.0 <= 0.05 + 1e-9


class TestColumnarOperatorOutputs:
    """Index-pair joins / gather-built outputs stay columnar end to end."""

    @staticmethod
    def _frames(backend):
        from repro.algebra.evaluator import Frame
        from repro.relational.distance import NUMERIC, TRIVIAL
        from repro.relational.relation import Relation
        from repro.relational.schema import Attribute, RelationSchema

        l_schema = RelationSchema("l", [Attribute("l.k", TRIVIAL), Attribute("l.v", NUMERIC)])
        r_schema = RelationSchema("r", [Attribute("r.k", TRIVIAL), Attribute("r.w", NUMERIC)])
        left = Frame.from_relation(
            Relation(l_schema, [(1, 1.0), (2, 2.0), (1, 3.0)], backend=backend),
            weights=[1.0, 2.0, 3.0],
        )
        right = Frame.from_relation(
            Relation(r_schema, [(1, 9.0), (3, 8.0), (1, 7.0)], backend=backend),
            weights=[0.5, 1.0, 2.0],
        )
        return left, right

    @staticmethod
    def _product(left, right):
        from repro.algebra.evaluator import JoinStep

        return JoinStep.compile(left.schema, right.schema, (), (), {}).run(left, right)

    @pytest.mark.parametrize("backend_name", ["column", "sharded", "sharded7"])
    def test_join_output_is_column_backed(self, backend_name):
        from repro.algebra.evaluator import JoinStep
        from repro.relational.store import ColumnStore

        left, right = self._frames(backend_name)
        joined = JoinStep.compile(left.schema, right.schema, ["l.k"], ["r.k"], {}).run(left, right)
        assert type(joined.store) is ColumnStore
        assert joined.rows == [
            (1, 1.0, 1, 9.0),
            (1, 1.0, 1, 7.0),
            (1, 3.0, 1, 9.0),
            (1, 3.0, 1, 7.0),
        ]
        assert joined.weights == [0.5, 2.0, 1.5, 6.0]

    @pytest.mark.parametrize("backend_name", ["column", "sharded"])
    def test_product_pairs_and_weights(self, backend_name):
        left, right = self._frames(backend_name)
        product = self._product(left, right)
        assert len(product) == 9
        assert product.rows[0] == (1, 1.0, 1, 9.0)
        assert product.rows[-1] == (1, 3.0, 1, 7.0)
        expected_weights = [lw * rw for lw in left.weights for rw in right.weights]
        assert product.weights == expected_weights

    @pytest.mark.parametrize("backend_name", ["column", "sharded"])
    def test_product_fast_paths(self, backend_name):
        from repro.algebra.evaluator import Frame

        from repro.relational.distance import NUMERIC, TRIVIAL
        from repro.relational.schema import Attribute, RelationSchema

        left, right = self._frames(backend_name)
        s_schema = RelationSchema(
            "s", [Attribute("s.k", TRIVIAL), Attribute("s.w", NUMERIC)]
        )
        nothing = self._product(left, Frame(s_schema, []))
        assert len(nothing) == 0 and nothing.weights == []
        assert self._product(Frame(s_schema, []), right).weights == []
        single = Frame(s_schema, [(7, 1.5)], weights=[4.0])
        one = self._product(left, single)
        assert one.rows == [
            (1, 1.0, 7, 1.5),
            (2, 2.0, 7, 1.5),
            (1, 3.0, 7, 1.5),
        ]
        assert one.weights == [4.0, 8.0, 12.0]
        flipped = self._product(single, right)
        assert flipped.rows[0] == (7, 1.5, 1, 9.0)
        assert flipped.weights == [2.0, 4.0, 8.0]

    @pytest.mark.parametrize("backend_name", ["column", "sharded"])
    def test_union_difference_groupby_column_backed(self, backend_name, tiny_db):
        from repro.relational.relation import Relation
        from repro.relational.store import ColumnStore

        database = type(tiny_db)(
            tiny_db.schema,
            {
                name: Relation(
                    tiny_db.relation(name).schema,
                    tiny_db.relation(name).rows,
                    backend=backend_name,
                )
                for name in tiny_db.relation_names
            },
        )
        evaluator = Evaluator(database.schema, DatabaseProvider(database))
        union = parse_query(
            "select e.eid from emp as e where e.salary <= 40 "
            "union select e.eid from emp as e where e.salary >= 90"
        )
        frame = evaluator.evaluate_frame(union)
        assert type(frame.store) is ColumnStore
        diff = parse_query(
            "select e.eid from emp as e "
            "except select e.eid from emp as e where e.salary <= 40"
        )
        diff_frame = evaluator.evaluate_frame(diff)
        # Difference keeps the left side's backend via Store.take.
        assert diff_frame.store.backend in (backend_name, "column")
        agg = parse_query("select e.dept, sum(e.salary) from emp as e group by e.dept")
        agg_frame = evaluator.evaluate_frame(agg)
        assert type(agg_frame.store) is ColumnStore
