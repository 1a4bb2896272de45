"""Unit tests for the RA / RA_aggr AST."""

import pytest

from repro.algebra.aggregates import AggregateFunction
from repro.algebra.ast import (
    GroupBy,
    Product,
    Project,
    Rename,
    Scan,
    Select,
    Union,
    condition_on,
    resolve_attribute,
)
from repro.algebra.predicates import AttrRef, CompareOp, Comparison, Conjunction, Const
from repro.algebra.sql import parse_query
from repro.errors import QueryError


class TestOutputSchemas:
    def test_scan_qualifies_attributes(self, tiny_schema):
        schema = Scan("emp", "e").output_schema(tiny_schema)
        assert schema.attribute_names == ("e.eid", "e.dept", "e.salary", "e.grade")

    def test_scan_preserves_distances(self, tiny_schema):
        schema = Scan("emp", "e").output_schema(tiny_schema)
        assert schema.distance("e.salary").numeric

    def test_project_schema(self, tiny_schema):
        node = Project(Scan("emp", "e"), (AttrRef("e", "salary"),))
        assert node.output_schema(tiny_schema).attribute_names == ("e.salary",)

    def test_product_schema(self, tiny_schema):
        node = Product(Scan("emp", "e"), Scan("dept", "d"))
        names = node.output_schema(tiny_schema).attribute_names
        assert "e.eid" in names and "d.did" in names

    def test_product_conflicting_aliases_rejected(self, tiny_schema):
        node = Product(Scan("emp", "e"), Scan("emp", "e"))
        with pytest.raises(QueryError):
            node.output_schema(tiny_schema)

    def test_union_arity_check(self, tiny_schema):
        bad = Union(
            Project(Scan("emp", "e"), (AttrRef("e", "salary"),)),
            Project(Scan("dept", "d"), (AttrRef("d", "did"), AttrRef("d", "budget"))),
        )
        with pytest.raises(QueryError):
            bad.output_schema(tiny_schema)

    def test_groupby_schema(self, tiny_schema):
        node = GroupBy(
            Scan("emp", "e"), (AttrRef("e", "dept"),), AggregateFunction.SUM, AttrRef("e", "salary")
        )
        schema = node.output_schema(tiny_schema)
        assert schema.attribute_names == ("e.dept", "sum(e.salary)")
        assert schema.distance("sum(e.salary)").numeric

    def test_rename_schema(self, tiny_schema):
        node = Rename(Scan("emp", "e"), (("e.eid", "id"),))
        assert "id" in node.output_schema(tiny_schema).attribute_names


class TestClassification:
    def test_is_spc(self):
        q = parse_query("select r.a from rel as r where r.a = 1")
        assert q.is_spc()
        assert not q.has_difference()
        assert not q.has_aggregate()

    def test_difference_not_spc(self):
        q = parse_query("select r.a from rel as r except select s.a from rel as s")
        assert not q.is_spc()
        assert q.has_difference()

    def test_aggregate_detection(self):
        q = parse_query("select r.a, count(r.b) from rel as r group by r.a")
        assert q.has_aggregate()

    def test_counters(self):
        q = parse_query(
            "select a.x from r as a, s as b, t as c where a.k = b.k and b.j = c.j and a.x <= 5"
        )
        assert q.product_count() == 2
        assert q.relation_count() == 3

    def test_walk_and_scans(self):
        q = parse_query("select a.x from r as a, s as b where a.k = b.k")
        assert len(q.scans()) == 2
        assert any(isinstance(n, Select) for n in q.walk())


class TestAttributeResolution:
    def test_exact_match(self, tiny_schema):
        schema = Scan("emp", "e").output_schema(tiny_schema)
        assert resolve_attribute(schema, AttrRef("e", "salary")) == "e.salary"

    def test_unqualified_suffix_match(self, tiny_schema):
        schema = Scan("emp", "e").output_schema(tiny_schema)
        assert resolve_attribute(schema, AttrRef(None, "salary")) == "e.salary"

    def test_missing_attribute(self, tiny_schema):
        schema = Scan("emp", "e").output_schema(tiny_schema)
        with pytest.raises(QueryError):
            resolve_attribute(schema, AttrRef("e", "missing"))

    def test_ambiguous_attribute(self, tiny_schema):
        schema = Product(Scan("emp", "e"), Scan("emp", "f")).output_schema.__self__  # noqa: B018
        # Build a schema with two "salary" columns via a product of two emp scans.
        node = Product(Scan("emp", "e"), Scan("emp", "f"))
        schema = node.output_schema(tiny_schema)
        with pytest.raises(QueryError):
            resolve_attribute(schema, AttrRef(None, "salary"))

    def test_condition_on_resolves_references(self, tiny_schema):
        schema = Scan("emp", "e").output_schema(tiny_schema)
        condition = Conjunction.of(
            [Comparison(AttrRef(None, "salary"), CompareOp.LE, Const(50))]
        )
        resolved = condition_on(schema, condition)
        assert resolved.comparisons[0].attributes()[0].qualified == "e.salary"
