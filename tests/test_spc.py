"""Tests for SPC canonical form, decompositions and query classification."""

import pytest

from repro.algebra.ast import Project
from repro.algebra.evaluator import evaluate_exact
from repro.algebra.spc import classify, max_spc_subqueries, maximal_induced_query, to_spc
from repro.algebra.sql import parse_query
from repro.errors import QueryError


class TestToSPC:
    def test_atoms_condition_output(self):
        q = parse_query(
            "select h.price from poi as h, person as p where p.city = h.city and h.price <= 95"
        )
        spc = to_spc(q)
        assert spc.atoms == {"h": "poi", "p": "person"}
        assert len(spc.condition) == 2
        assert [r.qualified for r in spc.output] == ["h.price"]

    def test_attributes_of(self):
        q = parse_query(
            "select h.price from poi as h, person as p where p.city = h.city and h.type = 'hotel'"
        )
        spc = to_spc(q)
        assert set(spc.attributes_of("h")) == {"city", "type", "price"}
        assert set(spc.attributes_of("p")) == {"city"}

    def test_join_predicates(self):
        q = parse_query(
            "select h.price from poi as h, person as p where p.city = h.city and h.price <= 95"
        )
        spc = to_spc(q)
        assert len(spc.join_predicates()) == 1

    def test_non_spc_rejected(self):
        q = parse_query("select r.a from rel as r except select s.a from rel as s")
        with pytest.raises(QueryError):
            to_spc(q)

    def test_duplicate_alias_rejected(self, tiny_db):
        q = parse_query("select a.eid from emp as a, emp as a")
        with pytest.raises(QueryError):
            to_spc(q)

    def test_roundtrip_through_ast(self, tiny_db):
        q = parse_query(
            "select e.eid from emp as e, dept as d where e.dept = d.did and d.budget >= 1200"
        )
        spc = to_spc(q)
        rebuilt = spc.to_ast()
        assert evaluate_exact(q, tiny_db) == evaluate_exact(rebuilt, tiny_db)


class TestDecompositions:
    def test_max_spc_of_spc_query_is_itself(self):
        q = parse_query("select r.a from rel as r where r.a = 1")
        assert max_spc_subqueries(q) == [q]

    def test_max_spc_of_difference(self):
        q = parse_query("select r.a from rel as r except select s.a from rel as s")
        subs = max_spc_subqueries(q)
        assert len(subs) == 2
        assert all(sub.is_spc() for sub in subs)

    def test_max_spc_of_aggregate(self):
        q = parse_query("select r.a, count(r.b) from rel as r group by r.a")
        subs = max_spc_subqueries(q)
        assert len(subs) == 1
        assert subs[0].is_spc()

    def test_maximal_induced_drops_negation(self, tiny_db):
        q = parse_query(
            "select e.eid from emp as e where e.salary <= 60 "
            "except select f.eid from emp as f where f.salary <= 40"
        )
        induced = maximal_induced_query(q)
        assert not induced.has_difference()
        full = evaluate_exact(induced, tiny_db)
        diff = evaluate_exact(q, tiny_db)
        # Q̂(D) ⊇ Q(D)
        assert diff.to_set() <= full.to_set()

    def test_maximal_induced_nested(self):
        q = parse_query(
            "select r.a from rel as r except (select s.a from rel as s)"
            .replace("(", "").replace(")", "")
        )
        induced = maximal_induced_query(q)
        assert isinstance(induced, Project)


class TestClassify:
    def test_classes(self):
        assert classify(parse_query("select r.a from rel as r where r.a = 1")) == "SPC"
        assert (
            classify(parse_query("select r.a from rel as r except select s.a from rel as s"))
            == "RA"
        )
        assert (
            classify(parse_query("select r.a, count(r.b) from rel as r group by r.a"))
            == "agg(SPC)"
        )
