"""Tests for access schemas and the canonical builder A_t."""


from repro.access.builder import AccessSchemaBuilder, ConstraintSpec
from repro.access.schema import AccessSchema
from repro.relational.database import Database
from repro.relational.relation import Relation

from template_oracle import check_conformance


def with_rows(database, name, rows):
    """``database`` with relation ``name`` replaced by ``rows``."""
    relations = {r: database.relation(r) for r in database.relation_names}
    relations[name] = Relation(database.schema.relation(name), rows)
    return Database(database.schema, relations)


class TestBuilder:
    def test_canonical_schema_has_one_family_per_relation(self, tiny_db):
        schema = AccessSchemaBuilder(tiny_db).build_canonical()
        assert len(schema.families) == len(tiny_db.relation_names)
        for family in schema.families:
            assert family.x == ()

    def test_build_with_constraints_and_derived_families(self, tiny_db):
        builder = AccessSchemaBuilder(tiny_db)
        schema = builder.build(
            constraints=[ConstraintSpec("emp", ("eid",), ("salary",))],
            include_canonical=False,
        )
        assert len(schema.constraints) == 1
        # Derived family emp(eid, salary -> dept, grade).
        assert len(schema.families) == 1
        derived = schema.families[0]
        assert set(derived.x) == {"eid", "salary"}
        assert set(derived.y) == {"dept", "grade"}

    def test_no_derived_family_when_constraint_covers_relation(self, tiny_db):
        builder = AccessSchemaBuilder(tiny_db)
        schema = builder.build(
            constraints=[ConstraintSpec("dept", ("did",), ("name", "budget"), n=1)],
            include_canonical=False,
        )
        assert schema.families == []

    def test_full_build_subsumes_canonical(self, tiny_beas, tiny_db):
        schema = tiny_beas.access_schema
        for relation in tiny_db.relation_names:
            assert any(not family.x for family in schema.families_for(relation))

    def test_measured_n_when_not_declared(self, tiny_db):
        builder = AccessSchemaBuilder(tiny_db)
        constraint = builder.build_constraint(ConstraintSpec("emp", ("dept",), ("eid",)))
        assert constraint.spec.n == 12  # 60 employees over 5 departments

    def test_max_level_caps_family_depth(self, tiny_db):
        builder = AccessSchemaBuilder(tiny_db, max_level=2)
        schema = builder.build_canonical()
        assert all(family.max_level <= 2 for family in schema.families)


class TestAccessSchemaLookups:
    def test_cardinality_and_groups(self, tiny_beas):
        schema = tiny_beas.access_schema
        assert schema.cardinality > len(schema.constraints)

    def test_index_sizes(self, tiny_beas, tiny_db):
        counts = tiny_beas.access_schema.index_entry_counts()
        assert counts["constraints"] >= tiny_db.relation("emp").rows.__len__()
        assert counts["templates"] > 0
        assert tiny_beas.access_schema.total_index_entries() == sum(counts.values())

    def test_conformance_check(self, tiny_beas, tiny_db):
        assert check_conformance(tiny_beas.access_schema, tiny_db, sample_levels=(0, 2))

    def test_conformance_check_clamps_levels_to_each_family_top(self, tiny_beas, tiny_db):
        top = max(family.max_level for family in tiny_beas.access_schema.families)
        assert check_conformance(tiny_beas.access_schema, tiny_db, sample_levels=(top + 5,))

    def test_conformance_check_rejects_a_changed_constraint_value(self, tiny_beas, tiny_db):
        # dept(did -> name, budget, N=1) fetches the budgets it was built on;
        # a database whose budgets moved is not within d̄_Y = 0 of them.
        moved = [(did, name, budget + 1.0) for did, name, budget in tiny_db.relation("dept")]
        assert not check_conformance(tiny_beas.access_schema, with_rows(tiny_db, "dept", moved))

    def test_conformance_check_rejects_an_unindexed_x_value(self, tiny_beas, tiny_db):
        # A department the constraint index never saw fetches nothing.
        extra = list(tiny_db.relation("dept")) + [(99, "dept_99", 1.0)]
        assert not check_conformance(tiny_beas.access_schema, with_rows(tiny_db, "dept", extra))

    def test_conformance_check_rejects_a_family_at_its_exact_level(self, tiny_db):
        # The canonical schema has families only; at its top level the
        # whole-relation family of emp fetches exactly the rows it indexed.
        schema = AccessSchemaBuilder(tiny_db).build_canonical()
        extra = list(tiny_db.relation("emp")) + [(999, 4, 10_000.0, "g9")]
        changed = with_rows(tiny_db, "emp", extra)
        top = max(family.max_level for family in schema.families_for("emp"))
        assert check_conformance(schema, tiny_db, sample_levels=(top,))
        assert not check_conformance(schema, changed, sample_levels=(top,))

    def test_merge(self, tiny_db):
        builder = AccessSchemaBuilder(tiny_db)
        a = builder.build_canonical()
        b = AccessSchema(constraints=[builder.build_constraint(ConstraintSpec("emp", ("eid",), ("salary",)))])
        merged = a.merge(b)
        assert len(merged.families) == len(a.families)
        assert len(merged.constraints) == 1

    def test_describe(self, tiny_beas):
        text = tiny_beas.access_schema.describe()
        assert "AccessSchema" in text and "emp" in text
