"""A memoized plan carries its compiled form: a warm answer only touches data.

Everything an answer derives from the frozen AST and the plan — schemas,
resolved positions, bound mask programs, the refinement's bounds — is
derived by the first answer and kept beside the plan in ``Beas.plans``.  The
second answer at the same α must derive none of it again (ROADMAP table G):
no ``RelationSchema``, no mask binder, and no call of ``output_schema``,
``to_spc`` or ``bound_attributes``.  Exact evaluation compiles on each call,
at most one schema per AST node.
"""

from __future__ import annotations

import sys

import pytest

from repro.algebra.ast import QueryNode
from repro.algebra.evaluator import _RelaxedConstBinder, _RelaxedPairBinder, evaluate_exact
from repro.algebra.predicates import Comparison, MaskProgram
from repro.algebra.spc import to_spc
from repro.algebra.sql import parse_query
from repro.core.lower_bound import bound_attributes
from repro.relational.schema import RelationSchema

# Per workload: an SPC join, an RA query with a nested difference, an
# aggregate over a join — and an α at which each runs through templates.
QUERIES = {
    "tpch": (
        0.3,
        (
            "select o.o_orderkey, c.c_nationkey from orders as o, customer as c "
            "where o.o_custkey = c.c_custkey and o.o_totalprice >= 1000",
            "select l1.l_orderkey, l1.l_quantity from lineitem as l1 where l1.l_quantity >= 10 "
            "except select l2.l_orderkey, l2.l_quantity from lineitem as l2 where l2.l_quantity >= 40 "
            "except select l3.l_orderkey, l3.l_quantity from lineitem as l3 where l3.l_shipyear = 1995",
            "select o.o_orderyear, sum(o.o_totalprice) from orders as o, customer as c "
            "where o.o_custkey = c.c_custkey and c.c_acctbal >= 0 group by o.o_orderyear",
        ),
    ),
    "social": (
        1.0,
        (
            "select p.city, f.fid from person as p, friend as f where p.pid = f.pid and p.pid <= 50",
            "select h.address, h.price from poi as h where h.price <= 95 "
            "except select g.address, g.price from poi as g where g.price <= 60 "
            "except select k.address, k.price from poi as k where k.type = 'hotel'",
            "select p.city, count(f.fid) from person as p, friend as f where p.pid = f.pid group by p.city",
        ),
    ),
}


@pytest.fixture
def derivations(monkeypatch):
    """Counts, by kind, every derivation a warm answer must not repeat."""
    counts = {}

    def counting(kind, function):
        def counted(*args, **kwargs):
            counts[kind] = counts.get(kind, 0) + 1
            return function(*args, **kwargs)

        return counted

    monkeypatch.setattr(RelationSchema, "__init__", counting("RelationSchema", RelationSchema.__init__))
    monkeypatch.setattr(QueryNode, "output_schema", counting("output_schema", QueryNode.output_schema))
    monkeypatch.setattr(Comparison, "chunk_binder", counting("binder", Comparison.chunk_binder))
    monkeypatch.setattr(MaskProgram, "__init__", counting("MaskProgram", MaskProgram.__init__))
    for binder in (_RelaxedConstBinder, _RelaxedPairBinder):
        monkeypatch.setattr(binder, "__init__", counting("binder", binder.__init__))
    # Module functions are patched wherever a module bound them by name.
    for module_function, kind in ((to_spc, "to_spc"), (bound_attributes, "bound_attributes")):
        counted = counting(kind, module_function)
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, module_function.__name__, None) is module_function:
                monkeypatch.setattr(module, module_function.__name__, counted)
    return counts


@pytest.fixture
def engines(tpch_beas, social_beas):
    return {"tpch": tpch_beas, "social": social_beas}


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_a_warm_answer_derives_nothing(name, engines, request):
    beas = engines[name]
    alpha, queries = QUERIES[name]
    first = {sql: beas.answer(sql, alpha) for sql in queries}
    assert {result.query_class for result in first.values()} == {"SPC", "RA", "agg(SPC)"}
    assert all(result.tuples_accessed > 0 and not result.exact for result in first.values())
    counts = request.getfixturevalue("derivations")
    for sql in queries:
        again = beas.answer(sql, alpha)
        assert repr(again.rows.rows) == repr(first[sql].rows.rows) and repr(again.eta) == repr(first[sql].eta)
    assert counts == {}


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_the_first_answer_compiles_and_counts_it(name, engines, derivations):
    """The guard bites: a cold plan's first answer does derive schemas and binders."""
    beas = engines[name]
    alpha, queries = QUERIES[name]
    beas.clear_plans()
    beas.answer(queries[0], alpha)
    assert derivations["RelationSchema"] > 0 and derivations["binder"] > 0


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_exact_evaluation_builds_at_most_one_schema_per_node(name, engines):
    database = engines[name].database
    _alpha, queries = QUERIES[name]
    for sql in queries:
        ast = parse_query(sql)
        ast.output_schema(database.schema)  # the schemas the planner derives, once per node
        built = []
        original = RelationSchema.__init__

        def counting(schema, *args, **kwargs):
            built.append(args[0] if args else kwargs["name"])
            original(schema, *args, **kwargs)

        RelationSchema.__init__ = counting
        try:
            evaluate_exact(ast, database)
        finally:
            RelationSchema.__init__ = original
        assert len(built) <= len(ast.walk()), (sql, built)
