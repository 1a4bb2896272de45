"""Tests for access templates, constraint/template indexes and conformance."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access.index import ConstraintIndex, TemplateIndex
from repro.access.template import TemplateSpec, conforms
from repro.errors import AccessSchemaError
from repro.relational.database import AccessMeter
from repro.relational.distance import CATEGORICAL, NUMERIC
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema


@pytest.fixture()
def poi_relation():
    schema = RelationSchema(
        "poi",
        [
            Attribute("type", CATEGORICAL),
            Attribute("city"),
            Attribute("price", NUMERIC),
        ],
    )
    rows = [
        ("hotel", "c1", 50.0),
        ("hotel", "c1", 80.0),
        ("hotel", "c1", 90.0),
        ("hotel", "c2", 120.0),
        ("bar", "c1", 20.0),
        ("bar", "c2", 25.0),
        ("bar", "c2", 25.0),
    ]
    return Relation(schema, rows)


class TestTemplateSpec:
    def test_constraint_detection(self):
        spec = TemplateSpec("poi", ("type",), ("price",), 10)
        assert spec.is_constraint
        spec2 = TemplateSpec("poi", ("type",), ("price",), 10, {"price": 5.0})
        assert not spec2.is_constraint

    def test_default_resolution_zero(self):
        spec = TemplateSpec("poi", ("type",), ("price", "city"), 3, {"price": 2.0})
        assert spec.resolution_of("city") == 0.0
        assert spec.resolution_of("price") == 2.0
        assert spec.max_resolution() == 2.0

    def test_invalid_specs(self):
        with pytest.raises(AccessSchemaError):
            TemplateSpec("poi", ("a",), ("b",), 0)
        with pytest.raises(AccessSchemaError):
            TemplateSpec("poi", ("a",), (), 1)
        with pytest.raises(AccessSchemaError):
            TemplateSpec("poi", ("a",), ("a",), 1)

    def test_describe(self):
        spec = TemplateSpec("poi", ("type",), ("price",), 8)
        assert "poi" in spec.describe() and "N=8" in spec.describe()


class TestConstraintIndex:
    def test_fetch_returns_distinct_values_with_counts(self, poi_relation):
        index = ConstraintIndex(poi_relation, ("type", "city"), ("price",))
        fetched = index.fetch(("bar", "c2"))
        assert fetched == [(("bar", "c2", 25.0), 2.0)]

    def test_fetch_unknown_key(self, poi_relation):
        index = ConstraintIndex(poi_relation, ("type",), ("price",))
        assert index.fetch(("museum",)) == []

    def test_n_is_max_group_size(self, poi_relation):
        index = ConstraintIndex(poi_relation, ("type", "city"), ("price",))
        assert index.n == 3

    def test_meter_charged_per_returned_tuple(self, poi_relation):
        index = ConstraintIndex(poi_relation, ("type",), ("price", "city"))
        meter = AccessMeter()
        index.fetch(("hotel",), meter)
        assert meter.accessed == 4

    def test_spec_roundtrip(self, poi_relation):
        index = ConstraintIndex(poi_relation, ("type",), ("price",))
        spec = index.spec()
        assert spec.is_constraint and spec.n == index.n

    def test_declared_n_smaller_than_actual_rejected_by_builder(self, poi_relation):
        from repro.access.builder import AccessSchemaBuilder, ConstraintSpec
        from repro.relational.database import Database

        db = Database.from_relations([poi_relation])
        builder = AccessSchemaBuilder(db)
        with pytest.raises(AccessSchemaError):
            builder.build_constraint(ConstraintSpec("poi", ("type",), ("price", "city"), n=1))

    def test_entry_count(self, poi_relation):
        index = ConstraintIndex(poi_relation, ("type", "city"), ("price",))
        assert index.entry_count == 6  # distinct (X, Y) pairs


class TestTemplateIndex:
    def test_levels_and_cardinality(self, poi_relation):
        index = TemplateIndex(poi_relation, ("type",), ("city", "price"))
        for level in index.levels():
            for key in index.keys():
                assert len(index.fetch(key, level)) <= 2**level

    def test_counts_sum_to_group_size(self, poi_relation):
        index = TemplateIndex(poi_relation, ("type",), ("city", "price"))
        fetched = index.fetch(("hotel",), 0)
        assert sum(count for _, count in fetched) == 4

    def test_resolution_monotone(self, poi_relation):
        index = TemplateIndex(poi_relation, ("type",), ("city", "price"))
        worst = [max(index.resolution(level).values()) for level in index.levels()]
        assert worst == sorted(worst, reverse=True)

    def test_exact_at_max_level(self, poi_relation):
        index = TemplateIndex(poi_relation, ("type",), ("city", "price"))
        resolution = index.resolution(index.max_level)
        assert max(resolution.values()) == 0.0

    def test_whole_relation_index(self, poi_relation):
        index = TemplateIndex(poi_relation, (), poi_relation.schema.attribute_names)
        assert index.keys() == [()]
        fetched = index.fetch((), 1)
        assert 1 <= len(fetched) <= 2

    def test_level_clamping(self, poi_relation):
        index = TemplateIndex(poi_relation, ("type",), ("price", "city"))
        assert index.fetch(("hotel",), 99) == index.fetch(("hotel",), index.max_level)
        assert index.fetch(("hotel",), -3) == index.fetch(("hotel",), 0)

    def test_meter_charged(self, poi_relation):
        index = TemplateIndex(poi_relation, ("type",), ("price", "city"))
        meter = AccessMeter()
        fetched = index.fetch(("hotel",), 1, meter)
        assert meter.accessed == len(fetched)


class TestBatchFetch:
    """``fetch_columns`` is ``fetch`` per ``X``-value, transposed — rows, weights and metering."""

    KEYS = [("hotel",), ("nope",), ("bar",), ("hotel",)]

    @staticmethod
    def _rows(columns, weights):
        return list(zip(zip(*columns), weights)) if weights else []

    def test_constraint_batch_equals_fetch_per_value(self, poi_relation):
        index = ConstraintIndex(poi_relation, ("type",), ("city", "price"))
        one_by_one, batched = AccessMeter(), AccessMeter()
        expected = [row for key in self.KEYS for row in index.fetch(key, one_by_one)]
        columns, weights = index.fetch_columns(self.KEYS, batched)
        assert self._rows(columns, weights) == expected
        assert all(type(weight) is float for weight in weights)
        assert (batched.accessed, batched.by_relation) == (one_by_one.accessed, one_by_one.by_relation)

    def test_template_batch_equals_fetch_per_value(self, poi_relation):
        index = TemplateIndex(poi_relation, ("type",), ("city", "price"))
        for level in (-1, 0, 1, index.max_level, 99):
            one_by_one, batched = AccessMeter(), AccessMeter()
            expected = [row for key in self.KEYS for row in index.fetch(key, level, one_by_one)]
            columns, weights = index.fetch_columns(self.KEYS, level, batched)
            assert self._rows(columns, weights) == expected
            assert all(type(weight) is float for weight in weights)
            assert batched.accessed == one_by_one.accessed

    def test_whole_relation_template_has_no_x_columns(self, poi_relation):
        index = TemplateIndex(poi_relation, (), poi_relation.schema.attribute_names)
        columns, weights = index.fetch_columns([()], 1)
        assert len(columns) == 3 and self._rows(columns, weights) == index.fetch((), 1)

    def test_nothing_fetched_still_has_one_column_per_attribute(self, poi_relation):
        for index, extra in (
            (ConstraintIndex(poi_relation, ("type",), ("city", "price")), ()),
            (TemplateIndex(poi_relation, ("type",), ("city", "price")), (0,)),
        ):
            for keys in ([], [("nope",)]):
                columns, weights = index.fetch_columns(keys, *extra)
                assert [list(column) for column in columns] == [[], [], []] and weights == []

    def test_budget_overrun_raises_at_the_same_x_value(self, poi_relation):
        from repro.errors import BudgetExceededError

        index = ConstraintIndex(poi_relation, ("type",), ("city", "price"))
        one_by_one, batched = AccessMeter(budget=4), AccessMeter(budget=4)
        with pytest.raises(BudgetExceededError):
            for key in self.KEYS:
                index.fetch(key, one_by_one)
        with pytest.raises(BudgetExceededError):
            index.fetch_columns(self.KEYS, batched)
        assert batched.accessed == one_by_one.accessed


class TestConformance:
    def test_constraint_index_conforms(self, poi_relation):
        index = ConstraintIndex(poi_relation, ("type", "city"), ("price",))
        fetched = {
            key: [row[2:] for row, _ in index.fetch(key)] for key in index.keys()
        }
        assert conforms(poi_relation, index.spec(), fetched)

    def test_template_levels_conform(self, poi_relation):
        index = TemplateIndex(poi_relation, ("type",), ("city", "price"))
        for level in index.levels():
            spec = index.level_spec(level)
            fetched = {
                key: [row[1:] for row, _ in index.fetch(key, level)] for key in index.keys()
            }
            assert conforms(poi_relation, spec, fetched)

    def test_violating_sample_detected(self, poi_relation):
        spec = TemplateSpec("poi", ("type",), ("city", "price"), 1, {"city": 0.0, "price": 0.0})
        # A single sample tuple cannot represent all hotel prices exactly.
        fetched = {("hotel",): [("c1", 50.0)], ("bar",): [("c1", 20.0)]}
        assert not conforms(poi_relation, spec, fetched)

    def test_cardinality_violation_detected(self, poi_relation):
        spec = TemplateSpec("poi", ("type",), ("price",), 1, {"price": 1000.0})
        fetched = {
            ("hotel",): [(50.0,), (80.0,), (90.0,), (120.0,)],
            ("bar",): [(20.0,)],
        }
        assert not conforms(poi_relation, spec, fetched)


@settings(max_examples=20, deadline=None)
@given(
    prices=st.lists(st.floats(0, 500, allow_nan=False), min_size=1, max_size=60),
    level=st.integers(0, 6),
)
def test_property_template_index_respects_spec(prices, level):
    """For any data and level, the levelled index satisfies its own spec."""
    schema = RelationSchema("t", [Attribute("k", CATEGORICAL), Attribute("v", NUMERIC)])
    rows = [("a" if i % 2 else "b", p) for i, p in enumerate(prices)]
    relation = Relation(schema, rows)
    index = TemplateIndex(relation, ("k",), ("v",))
    spec = index.level_spec(level)
    fetched = {key: [row[1:] for row, _ in index.fetch(key, level)] for key in index.keys()}
    assert conforms(relation, spec, fetched)
