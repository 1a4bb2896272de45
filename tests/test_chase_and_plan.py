"""Tests for the chase, fetching-plan derivation, tariffs and chAT."""

import pytest

from repro.algebra.spc import to_spc
from repro.algebra.sql import parse_query
from repro.algebra.tableau import build_tableau
from repro.core.chase import Mark, chase
from repro.core.chat import choose_access_templates
from repro.core.fetch_plan import atom_constants, fetch_plan_from_chase, needed_attributes
from repro.core.lower_bound import lower_bound
from repro.core.plan import Accessor
from repro.core.planner import generate_plan
from repro.errors import PlanError


Q1_SQL = (
    "select h.address, h.price from poi as h, friend as f, person as p "
    "where f.pid = 0 and f.fid = p.pid and p.city = h.city "
    "and h.type = 'hotel' and h.price <= 95"
)
Q2_SQL = "select p.city from friend as f, person as p where f.pid = 0 and f.fid = p.pid"


def chase_for(beas, db, sql, budget):
    query = parse_query(sql)
    tableau = build_tableau(to_spc(query), db.schema)
    return query, tableau, chase(tableau, beas.access_schema, budget)


class TestChase:
    def test_example1_structure(self, social_beas, social_db):
        _, tableau, result = chase_for(social_beas, social_db, Q1_SQL, budget=2000)
        assert all(mark.covered for mark in result.atom_marks.values())
        relations = [step.relation for step in result.steps]
        assert relations[:2] == ["friend", "person"]
        assert relations[-1] == "poi"
        # friend and person are covered exactly through constraints; poi
        # approximately through a template.
        assert result.atom_marks["f"] is Mark.EXACT
        assert result.atom_marks["p"] is Mark.EXACT
        assert result.atom_marks["h"] is Mark.APPROX

    def test_boundedly_evaluable_query_uses_constraints_only(self, social_beas, social_db):
        _, _, result = chase_for(social_beas, social_db, Q2_SQL, budget=2000)
        assert all(mark is Mark.EXACT for mark in result.atom_marks.values())
        assert all(step.accessor.is_constraint for step in result.steps)

    def test_tariff_respects_budget(self, social_beas, social_db):
        _, _, result = chase_for(social_beas, social_db, Q1_SQL, budget=30)
        assert result.tariff <= 30

    def test_small_budget_falls_back_to_templates(self, social_beas, social_db):
        # With a budget too small for the friend constraint (max 6 friends per
        # person plus downstream lookups), the chase still covers all atoms.
        _, _, result = chase_for(social_beas, social_db, Q1_SQL, budget=3)
        assert all(mark.covered for mark in result.atom_marks.values())

    def test_variable_producers_recorded(self, social_beas, social_db):
        _, tableau, result = chase_for(social_beas, social_db, Q1_SQL, budget=2000)
        for variable, mark in result.variable_marks.items():
            if mark.covered:
                assert variable in result.variable_producer


class TestFetchPlan:
    def test_sources_reference_earlier_steps(self, social_beas, social_db):
        _, tableau, result = chase_for(social_beas, social_db, Q1_SQL, budget=2000)
        plan = fetch_plan_from_chase(tableau, result)
        names = [step.name for step in plan.steps]
        for index, step in enumerate(plan.steps):
            for source in step.sources:
                if source.kind == "column":
                    assert source.step in names[:index]

    def test_constants_become_const_sources(self, social_beas, social_db):
        _, tableau, result = chase_for(social_beas, social_db, Q1_SQL, budget=2000)
        plan = fetch_plan_from_chase(tableau, result)
        first = plan.steps[0]
        assert first.sources[0].kind == "const"
        assert first.sources[0].value == 0

    def test_atom_constants_and_needed_attributes(self, social_beas, social_db):
        query = parse_query(Q1_SQL)
        tableau = build_tableau(to_spc(query), social_db.schema)
        constants = atom_constants(tableau)
        needed = needed_attributes(tableau)
        assert constants["f"] == {"pid": 0}
        assert constants["h"] == {"type": "hotel"}
        assert set(needed["h"]) == {"type", "city", "price", "address"}

    def test_tariff_is_upper_bound_composition(self, social_beas, social_db):
        _, tableau, result = chase_for(social_beas, social_db, Q1_SQL, budget=2000)
        plan = fetch_plan_from_chase(tableau, result)
        sizes = plan.output_size_bounds()
        assert plan.tariff() == sum(sizes.values())

    def test_resolution_map_zero_for_constraints(self, social_beas, social_db):
        _, tableau, result = chase_for(social_beas, social_db, Q2_SQL, budget=2000)
        plan = fetch_plan_from_chase(tableau, result)
        assert all(v == 0.0 for v in plan.resolution_map().values())
        assert plan.is_exact()
        assert plan.uses_constraints_only()


class TestAccessor:
    def test_accessor_requires_exactly_one_backend(self, social_beas):
        family = social_beas.access_schema.families[0]
        constraint = social_beas.access_schema.constraints[0]
        with pytest.raises(PlanError):
            Accessor(constraint=constraint, family=family)
        with pytest.raises(PlanError):
            Accessor()

    def test_family_accessor_levels(self, social_beas):
        family = next(f for f in social_beas.access_schema.families_for("poi") if not f.x)
        accessor = Accessor(family=family, level=0)
        assert accessor.n == 1
        assert accessor.can_upgrade()
        accessor.level = family.max_level
        assert accessor.n == 2**family.max_level
        assert not accessor.can_upgrade()
        assert accessor.is_exact

    def test_constraint_accessor_is_exact(self, social_beas):
        constraint = social_beas.access_schema.constraints[0]
        accessor = Accessor(constraint=constraint)
        assert accessor.is_exact and accessor.is_constraint
        assert accessor.resolution_of(constraint.spec.y[0]) == 0.0


class TestChAT:
    def test_chat_respects_budget(self, social_beas, social_db):
        query, tableau, result = chase_for(social_beas, social_db, Q1_SQL, budget=400)
        plan = fetch_plan_from_chase(tableau, result)
        eta = choose_access_templates(plan, query, 400, social_db.schema)
        assert plan.tariff() <= 400
        assert 0.0 <= eta <= 1.0

    def test_chat_improves_bound_with_budget(self, social_beas, social_db):
        etas = []
        for budget in (100, 1000, 8000):
            query, tableau, result = chase_for(social_beas, social_db, Q1_SQL, budget=budget)
            plan = fetch_plan_from_chase(tableau, result)
            etas.append(choose_access_templates(plan, query, budget, social_db.schema))
        assert etas == sorted(etas)

    def test_chat_upgrades_levels(self, social_beas, social_db):
        query, tableau, result = chase_for(social_beas, social_db, Q1_SQL, budget=5000)
        plan = fetch_plan_from_chase(tableau, result)
        before = [s.accessor.level for s in plan.steps if not s.accessor.is_constraint]
        choose_access_templates(plan, query, 5000, social_db.schema)
        after = [s.accessor.level for s in plan.steps if not s.accessor.is_constraint]
        assert sum(after) > sum(before)


class TestLowerBound:
    def test_zero_resolutions_give_bound_one(self, social_db):
        query = parse_query(Q2_SQL)
        assert lower_bound(query, {}, social_db.schema) == 1.0

    def test_bound_decreases_with_resolution(self, social_db):
        query = parse_query(Q1_SQL)
        tight = lower_bound(query, {"h.price": 0.05}, social_db.schema)
        loose = lower_bound(query, {"h.price": 0.5}, social_db.schema)
        assert loose < tight < 1.0

    def test_irrelevant_attributes_ignored(self, social_db):
        query = parse_query(Q2_SQL)
        assert lower_bound(query, {"h.price": 0.5}, social_db.schema) == 1.0


class TestGeneratePlan:
    def test_plan_for_spc(self, social_beas, social_db):
        query = parse_query(Q1_SQL)
        plan = generate_plan(query, social_db.schema, social_beas.access_schema, budget=500)
        assert plan.tariff <= 500
        assert plan.budget == 500
        assert 0 <= plan.eta <= 1.0
        assert "h" in plan.needed_attributes

    def test_plan_for_aggregate_includes_agg_column(self, social_beas, social_db):
        sql = (
            "select h.city, count(h.address) from poi as h, friend as f, person as p "
            "where f.pid = 0 and f.fid = p.pid and p.city = h.city group by h.city"
        )
        plan = generate_plan(
            parse_query(sql), social_db.schema, social_beas.access_schema, budget=500
        )
        assert "address" in plan.needed_attributes["h"]

    def test_plan_for_difference_has_steps_for_both_sides(self, social_beas, social_db):
        sql = (
            "select h.price from poi as h where h.type = 'hotel' and h.city = 'city_001' "
            "except select b.price from poi as b where b.type = 'bar' and b.city = 'city_001'"
        )
        plan = generate_plan(
            parse_query(sql), social_db.schema, social_beas.access_schema, budget=800
        )
        frames = plan.fetch_plan.frames
        assert plan.fetch_plan.step(frames["h"]).alias == "h" and plan.fetch_plan.step(frames["b"]).alias == "b"

    def test_invalid_budget_rejected(self, social_beas, social_db):
        with pytest.raises(PlanError):
            generate_plan(
                parse_query(Q2_SQL), social_db.schema, social_beas.access_schema, budget=0
            )
