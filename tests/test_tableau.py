"""Tests for the SPC tableau construction."""


from repro.algebra.spc import to_spc
from repro.algebra.sql import parse_query
from repro.algebra.tableau import Constant, Variable, build_tableau


def tableau_for(db, sql):
    return build_tableau(to_spc(parse_query(sql)), db.schema)


class TestBuildTableau:
    def test_one_template_per_atom(self, social_db):
        t = tableau_for(
            social_db,
            "select h.price from poi as h, friend as f, person as p "
            "where f.pid = 0 and f.fid = p.pid and p.city = h.city and h.type = 'hotel'",
        )
        assert {tpl.alias for tpl in t.templates} == {"h", "f", "p"}

    def test_constants_recorded(self, social_db):
        t = tableau_for(
            social_db,
            "select f.fid from friend as f where f.pid = 0",
        )
        template = t.template_for("f")
        assert template.cells["pid"] == Constant(0)
        assert isinstance(template.cells["fid"], Variable)

    def test_join_predicates_share_variables(self, social_db):
        t = tableau_for(
            social_db,
            "select p.city from friend as f, person as p where f.fid = p.pid",
        )
        f_var = t.template_for("f").cells["fid"]
        p_var = t.template_for("p").cells["pid"]
        assert f_var == p_var

    def test_transitive_equality_merges_classes(self, social_db):
        t = tableau_for(
            social_db,
            "select h.price from poi as h, person as p, friend as f "
            "where f.fid = p.pid and p.city = h.city",
        )
        p_city = t.template_for("p").cells["city"]
        h_city = t.template_for("h").cells["city"]
        assert p_city == h_city

    def test_constant_propagates_through_equality(self, social_db):
        t = tableau_for(
            social_db,
            "select p.city from friend as f, person as p where f.fid = p.pid and f.fid = 3",
        )
        assert t.template_for("p").cells["pid"] == Constant(3)
        assert t.template_for("f").cells["fid"] == Constant(3)

    def test_inequalities_become_residual_constraints(self, social_db):
        t = tableau_for(
            social_db,
            "select h.price from poi as h where h.price <= 95 and h.type = 'hotel'",
        )
        assert len(t.constraints) == 1
        assert t.template_for("h").cells["type"] == Constant("hotel")

    def test_output_terms(self, social_db):
        t = tableau_for(social_db, "select h.price, h.city from poi as h where h.type = 'bar'")
        names = [ref.qualified for ref, _ in t.output]
        assert names == ["h.price", "h.city"]

    def test_all_variables_distinct_ids(self, social_db):
        t = tableau_for(
            social_db,
            "select h.price from poi as h, person as p where p.city = h.city",
        )
        variables = t.all_variables()
        assert len({v.vid for v in variables}) == len(variables)
