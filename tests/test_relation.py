"""Unit tests for in-memory relations."""

import pytest

from repro.errors import SchemaError
from repro.relational.distance import NUMERIC
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema


@pytest.fixture()
def schema():
    return RelationSchema("emp", [Attribute("eid"), Attribute("dept"), Attribute("salary", NUMERIC)])


@pytest.fixture()
def relation(schema):
    return Relation(schema, [(1, "a", 10.0), (2, "a", 20.0), (3, "b", 30.0), (3, "b", 30.0)])


class TestConstruction:
    def test_append_and_len(self, schema):
        rel = Relation(schema)
        rel.append((1, "a", 5.0))
        assert len(rel) == 1

    def test_arity_mismatch(self, schema):
        rel = Relation(schema)
        with pytest.raises(SchemaError):
            rel.append((1, "a"))

    def test_rows_view_is_immutable(self, relation):
        view = relation.rows
        assert isinstance(view, tuple)
        with pytest.raises((TypeError, AttributeError)):
            view.append((9, "z", 0.0))  # type: ignore[attr-defined]

    def test_rows_view_tracks_appends(self, relation):
        before = relation.rows
        relation.append((9, "z", 99.0))
        assert len(relation.rows) == len(before) + 1
        assert relation.rows[-1] == (9, "z", 99.0)


class TestAccessors:
    def test_column(self, relation):
        assert relation.column("dept") == ["a", "a", "b", "b"]

    def test_contains(self, relation):
        assert (1, "a", 10.0) in relation
        assert (9, "z", 0.0) not in relation

    def test_iteration(self, relation):
        assert sum(1 for _ in relation) == 4


class TestOperations:
    def test_project_distinct(self, relation):
        projected = relation.project(["dept"])
        assert sorted(projected.rows) == [("a",), ("b",)]

    def test_project_keep_duplicates(self, relation):
        projected = relation.project(["dept"], distinct=False)
        assert len(projected) == 4

    def test_select(self, relation):
        idx = relation.schema.position("salary")
        selected = relation.select(lambda row: row[idx] > 15)
        assert len(selected) == 3

    def test_distinct(self, relation):
        assert len(relation.distinct()) == 3

    def test_group_by(self, relation):
        groups = relation.group_by(["dept"])
        assert len(groups[("a",)]) == 2
        assert len(groups[("b",)]) == 2

    def test_rename(self, relation):
        renamed = relation.rename("workers")
        assert renamed.schema.name == "workers"
        assert len(renamed) == len(relation)

    def test_to_set(self, relation):
        assert len(relation.to_set()) == 3

    def test_sorted_stable(self, relation):
        assert len(relation.sorted()) == len(relation)

    def test_equality_is_bag_based(self, schema):
        a = Relation(schema, [(1, "a", 1.0), (2, "b", 2.0)])
        b = Relation(schema, [(2, "b", 2.0), (1, "a", 1.0)])
        assert a == b

    def test_equality_mixed_int_float(self, schema):
        # Regression: repr-based comparison treated (1,) and (1.0,) as
        # different rows even though they are == and dedup-equal.
        a = Relation(schema, [(1, "a", 10.0), (2.0, "b", 20)])
        b = Relation(schema, [(1.0, "a", 10), (2, "b", 20.0)])
        assert a == b
        assert b == a

    def test_equality_with_nan_rows(self, schema):
        # NaN-containing relations compared equal under the old repr-based
        # scheme; the type-aware comparison must preserve that.
        nan = float("nan")
        a = Relation(schema, [(1, "a", nan)])
        b = Relation(schema, [(1, "a", nan)])
        assert a == b

    def test_inequality_different_multiset(self, schema):
        a = Relation(schema, [(1, "a", 10.0), (1, "a", 10.0)])
        b = Relation(schema, [(1, "a", 10.0), (2, "a", 10.0)])
        assert a != b
        assert a != Relation(schema, [(1, "a", 10.0)])

    def test_sorted_mixed_types_is_total_and_stable(self, schema):
        rel = Relation(
            schema,
            [(None, "b", 2.0), (2, "a", 1), ("x", "a", 1.5), (1.0, "a", 3.0), (1, "a", 3)],
        )
        ordered = rel.sorted().rows
        assert len(ordered) == 5
        assert ordered[0][0] is None  # None sorts first
        assert ordered[1][0] in (1, 1.0) and ordered[2][0] in (1, 1.0)
        assert ordered[-1][0] == "x"  # non-numerics sort last

    def test_not_hashable(self, relation):
        with pytest.raises(TypeError):
            hash(relation)


class TestMembershipCache:
    def test_contains_sees_rows_appended_after_first_lookup(self, schema):
        rel = Relation(schema, [(1, "a", 10.0)])
        assert (1, "a", 10.0) in rel  # primes the cached row set
        rel.append((2, "b", 20.0))
        assert (2, "b", 20.0) in rel
        rel.extend([(3, "c", 30.0)])
        assert (3, "c", 30.0) in rel
        assert (9, "z", 0.0) not in rel

    def test_contains_mixed_int_float(self, schema):
        rel = Relation(schema, [(1, "a", 10.0)])
        assert (1.0, "a", 10) in rel  # tuple equality, as before the cache
