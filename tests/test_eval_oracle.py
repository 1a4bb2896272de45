"""Plan and exact evaluation under ``src/`` against the straightforward oracle.

``src`` evaluates each sub-query once per answer (a frame memo on the
``PlanExecutor``) and lets joins carry live columns only; ``eval_oracle.py``
evaluates every sub-query where it is named and carries every column.  On
generated SPC / RA / aggregate queries over all four workloads — plus the
shapes the pruning rule has to get right: no output list, unqualified
references, an atom no reference names, nested differences — they must agree
on rows, row order, weights and ``repr(η)``, on every registered backend
under the serial and the process executor.  The call-count guards at the end
keep the saving from rotting: one ``_eval_spc`` per distinct SPC sub-query
per answer.
"""

from __future__ import annotations

import pytest

from repro import Beas, configure
from repro.algebra.ast import Difference, GroupBy
from repro.algebra.evaluator import DatabaseProvider, Evaluator
from repro.algebra.predicates import AttrRef
from repro.algebra.spc import SPCQuery, max_spc_subqueries, to_spc
from repro.algebra.sql import parse_query
from repro.core.executor import BeasEvaluator, PlanExecutor
from repro.experiments import build_beas
from repro.relational.database import AccessMeter
from repro.relational.store import gather_pairs, list_backends
from repro.workloads import QueryGenerator, airca, tfacc

import eval_oracle
from conftest import SHARD_EXECUTORS, to_backend, union_compatible

ALPHAS = {"tpch": (0.02, 0.3), "airca": (0.5, 1.0), "tfacc": (0.25, 1.0), "social": (0.05, 0.5)}


def _unqualified(ast, schema):
    """``ast`` (a projected SPC query) with every output reference that stays unambiguous left unqualified."""
    spc = to_spc(ast)
    owners = {}
    for relation in spc.atoms.values():
        for attribute in schema.relation(relation).attribute_names:
            owners[attribute] = owners.get(attribute, 0) + 1
    output = tuple(AttrRef(None, ref.attribute) if owners[ref.attribute] == 1 else ref for ref in spc.output)
    return SPCQuery(spc.atoms, spc.condition, output).to_ast()


def _aggregate(generator, num_products):
    """An aggregate query (the generator hands back SPC when the relations it drew have nothing to group or sum)."""
    for _ in range(12):
        query = generator.aggregate(num_products=num_products, num_selections=3)
        if query.query_class == "agg(SPC)":
            return query
    raise AssertionError("no aggregate query in twelve draws")


def _queries(workload):
    """Generated queries of every class, and the special shapes derived from them."""
    schema = workload.database.schema
    generator = QueryGenerator(workload, seed=3)
    generated = [
        generator.spc(num_products=1, num_selections=3),
        generator.spc(num_products=2, num_selections=4),
        _aggregate(generator, 1),
        _aggregate(generator, 2),
        generator.ra(num_products=1, num_selections=3, num_differences=1),
        generator.ra(num_products=0, num_selections=3, num_differences=2),
        generator.ra(num_products=1, num_selections=4, num_differences=3),
    ]
    queries = [(query.name, query.ast, True) for query in generated if union_compatible(query.ast, schema)]
    join = to_spc(generated[0].ast)
    queries.append(("no-output", SPCQuery(join.atoms, join.condition, ()).to_ast(), True))
    # The planner wants alias-qualified output columns; exact evaluation resolves either form.
    queries.append(("unqualified", _unqualified(generated[0].ast, schema), False))
    for name, ast, _bounded in list(queries):
        if isinstance(ast, Difference) and not isinstance(ast.left, Difference):
            queries.append((f"{name}-nested-left", Difference(Difference(ast.left, ast.right), ast.right), True))
            queries.append((f"{name}-nested-right", Difference(ast.left, Difference(ast.left, ast.right)), True))
            break
    return queries


@pytest.fixture(scope="module")
def corpora(tpch_workload, tpch_beas, social_workload, social_beas):
    small_airca = airca.generate(flights=400, airports=15)
    small_tfacc = tfacc.generate(accidents=250, stops=80)
    engines = {
        "tpch": (tpch_workload, tpch_beas),
        "airca": (small_airca, build_beas(small_airca)),
        "tfacc": (small_tfacc, build_beas(small_tfacc)),
        "social": (social_workload, social_beas),
    }
    return {name: (workload, beas, _queries(workload)) for name, (workload, beas) in engines.items()}


@pytest.fixture
def cell(request):
    """One (backend, shard executor) cell; the executor is applied for the test's duration."""
    backend_name, executor = request.param
    configure(shard_executor=executor, process_min_rows=1)
    return backend_name


# Only a partitioned backend runs anything on the shard executor.
CELLS = [
    pytest.param((backend_name, executor), id=f"{backend_name}-{executor}")
    for backend_name in list_backends()
    for executor in (SHARD_EXECUTORS if "sharded" in backend_name else SHARD_EXECUTORS[:1])
]


def _same_frame(actual, expected, where):
    assert actual.schema.attribute_names == expected.schema.attribute_names, where
    assert repr(actual.rows) == repr(expected.rows), where  # repr: 1 and 1.0, NaN and NaN
    assert actual.weights == expected.weights, where


@pytest.mark.parametrize("cell", CELLS, indirect=True)
@pytest.mark.parametrize("name", ["tpch", "airca", "tfacc", "social"])
def test_answers_match_the_oracle(name, cell, corpora):
    workload, reference, queries = corpora[name]
    backend_name = cell
    # The access schema's indexes hold their own copy of the data; only the
    # relations — hence the fetched frames' layout — move to the backend.
    database = to_backend(workload.database, backend_name)
    beas = Beas(database, access_schema=reference.access_schema)
    kinds = set()
    for query_name, ast, bounded in queries:
        where = f"{name}/{query_name} on {backend_name}"
        exact = Evaluator(database.schema, DatabaseProvider(database)).evaluate_frame(ast)
        _same_frame(exact, eval_oracle.exact_frame(ast, database), where)
        assert repr(beas.answer_exact(ast).rows) == repr(exact.to_relation(distinct=not isinstance(ast, GroupBy)).rows)
        for alpha in ALPHAS[name] if bounded else ():
            rows, eta, accessed, frame = eval_oracle.answer(beas, ast, alpha)
            result = beas.answer(ast, alpha)
            assert repr(result.rows.rows) == repr(rows.rows), f"{where} at alpha={alpha}"
            assert repr(result.eta) == repr(eta), f"{where} at alpha={alpha}"
            assert result.tuples_accessed == accessed
            if frame is not None:
                executor = PlanExecutor(database, result.plan, AccessMeter(budget=result.budget))
                _same_frame(executor._evaluator().evaluate_frame(ast), frame, f"{where} at alpha={alpha}")
                kinds.add(result.query_class)
    assert {"SPC", "RA", "agg(SPC)"} <= kinds, f"{name}: only {sorted(kinds)} were executed"


NO_LIVE_COLUMN = "select e.eid, e.salary from emp as e, dept as d where d.budget >= 1200 and e.salary <= 50"


def test_an_atom_no_reference_names_still_multiplies(tiny_db, backend):
    """``dept`` has no live column: it keeps one, and contributes its three surviving rows to every ``emp``."""
    database = to_backend(tiny_db, backend)
    ast = parse_query(NO_LIVE_COLUMN)
    frame = Evaluator(database.schema, DatabaseProvider(database)).evaluate_frame(ast)
    _same_frame(frame, eval_oracle.exact_frame(ast, tiny_db), backend)
    matching = [row for row in tiny_db.relation("emp").rows if row[2] <= 50]
    assert len(frame) == 3 * len(matching) > 0


def test_joins_carry_live_columns_only(tiny_db, monkeypatch):
    """Under exact evaluation the join gathers 2 + 2 columns, not emp's 4 + dept's 3."""
    widths = []

    def recording(left, left_indices, right, right_indices, backend_cls=None):
        widths.append((left.width, right.width))
        return gather_pairs(left, left_indices, right, right_indices, backend_cls)

    monkeypatch.setattr("repro.algebra.evaluator.gather_pairs", recording)
    ast = parse_query(
        "select e.eid, d.name from emp as e, dept as d where e.dept = d.did and e.grade = 'g1' and d.budget >= 1100"
    )
    column = to_backend(tiny_db, "column")
    Evaluator(column.schema, DatabaseProvider(column)).evaluate(ast)
    assert sorted(widths[0]) == [2, 2]  # (did, name) and (eid, dept)
    widths.clear()
    row = to_backend(tiny_db, "row")
    Evaluator(row.schema, DatabaseProvider(row)).evaluate(ast)  # the row store is not pruned
    assert sorted(widths[0]) == [3, 4]


class TestEachSubQueryOnce:
    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        original = BeasEvaluator._eval_spc

        def counting(evaluator, query):
            calls.append(query)
            return original(evaluator, query)

        monkeypatch.setattr(BeasEvaluator, "_eval_spc", counting)
        return calls

    def test_three_differences_under_templates(self, corpora, counted):
        """``A − B − C − D`` fetched through templates: four SPC sub-queries, four evaluations.

        Evaluated where they are named it takes more: each guard evaluates
        its right operand and then that operand's induced query, and the
        refinement evaluates ``A`` again.
        """
        _workload, beas, queries = corpora["airca"]
        ast = next(ast for _name, ast, _bounded in queries if len(max_spc_subqueries(ast)) == 4)
        alpha = ALPHAS["airca"][0]
        result = beas.answer(ast, alpha)
        assert not result.exact and result.tuples_accessed > 0
        assert len(counted) == len(set(max_spc_subqueries(ast))) == 4
        counted.clear()
        eval_oracle.answer(beas, ast, alpha)
        assert len(counted) == 0  # the oracle runs its own evaluator

    def test_an_spc_answer_hashes_no_tree(self, social_beas):
        plan = social_beas.plan("select p.city from person as p where p.pid = 3", 0.5)
        assert PlanExecutor(social_beas.database, plan)._frames is None
        nested = social_beas.plan(
            "select p.pid from person as p where p.city = 'NYC' except select p.pid from person as p where p.pid = 3",
            0.5,
        )
        assert PlanExecutor(social_beas.database, nested)._frames == {}

    def test_memoised_frames_are_shared_not_copied(self, social_beas):
        sql = (
            "select h.address, h.price from poi as h where h.type = 'hotel' and h.price <= 95 "
            "except select h.address, h.price from poi as h where h.type = 'hotel' and h.price <= 60"
        )
        ast = parse_query(sql)
        plan = social_beas.plan(ast, 0.2)
        executor = PlanExecutor(social_beas.database, plan, AccessMeter(budget=plan.budget))
        first = executor.execute()
        frames = dict(executor._frames)
        assert set(frames) >= {ast, ast.left, ast.right}
        snapshot = {node: (repr(frame.rows), list(frame.weights)) for node, frame in frames.items()}
        again = executor.execute()
        assert again.rows == first.rows
        assert all(executor._frames[node] is frame for node, frame in frames.items())
        assert snapshot == {node: (repr(frame.rows), list(frame.weights)) for node, frame in frames.items()}
