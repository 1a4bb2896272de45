"""Unit tests for database instances and access accounting."""

import pytest

from repro.errors import BudgetExceededError, SchemaError
from repro.relational.database import AccessMeter, Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, DatabaseSchema, RelationSchema


@pytest.fixture()
def db():
    schema = DatabaseSchema(
        [
            RelationSchema("r", [Attribute("a"), Attribute("b")]),
            RelationSchema("s", [Attribute("x")]),
        ]
    )
    return Database(
        schema,
        {
            "r": Relation(schema.relation("r"), [(i, i * 2) for i in range(100)]),
            "s": Relation(schema.relation("s"), [(i,) for i in range(50)]),
        },
    )


class TestAccessMeter:
    def test_charge_accumulates(self):
        meter = AccessMeter()
        meter.charge(10, "r")
        meter.charge(5, "s")
        assert meter.accessed == 15
        assert meter.by_relation == {"r": 10, "s": 5}

    def test_budget_enforced(self):
        meter = AccessMeter(budget=10)
        meter.charge(10)
        with pytest.raises(BudgetExceededError):
            meter.charge(1)

    def test_budget_not_enforced(self):
        meter = AccessMeter(budget=10, enforce=False)
        meter.charge(100)
        assert meter.accessed == 100

    def test_remaining(self):
        meter = AccessMeter(budget=10)
        meter.charge(4)
        assert meter.remaining() == 6
        assert AccessMeter().remaining() is None

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            AccessMeter().charge(-1)

    def test_reset(self):
        meter = AccessMeter(budget=10)
        meter.charge(5, "r")
        meter.reset()
        assert meter.accessed == 0
        assert meter.by_relation == {}


class TestDatabase:
    def test_total_tuples(self, db):
        assert db.total_tuples == 150
        assert db.relation_sizes() == {"r": 100, "s": 50}

    def test_budget_for(self, db):
        assert db.budget_for(0.1) == 15
        assert db.budget_for(1.0) == 150

    def test_budget_for_invalid_alpha(self, db):
        with pytest.raises(ValueError):
            db.budget_for(0.0)
        with pytest.raises(ValueError):
            db.budget_for(1.5)

    def test_budget_never_zero(self, db):
        assert db.budget_for(1e-9) == 1

    def test_scan_charges_meter(self, db):
        meter = db.meter()
        db.scan("r", meter)
        assert meter.accessed == 100

    def test_meter_with_alpha(self, db):
        meter = db.meter(alpha=0.1)
        assert meter.budget == 15

    def test_unknown_relation(self, db):
        with pytest.raises(SchemaError):
            db.relation("nope")

    def test_set_relation_validates_schema(self, db):
        wrong = Relation(
            RelationSchema("r", [Attribute("a"), Attribute("c")]), [(1, 2)]
        )
        with pytest.raises(SchemaError):
            db.set_relation("r", wrong)

    def test_from_relations(self, db):
        clone = Database.from_relations([db.relation("r"), db.relation("s")])
        assert clone.total_tuples == 150

    def test_copy_subset(self, db):
        smaller = db.copy_subset({"r": 0.5, "s": 0.1})
        assert smaller.relation_sizes() == {"r": 50, "s": 5}
