"""The per-step access path under ``src/`` against the per-value oracle.

``src`` fetches a step at a time: a constraint index laid out as one table
(``_rows`` → row numbers → one gather per column), the meter charged a
step's group sizes in one call, template columns concatenated per tree,
``X``-values derived column-wise, and a join probe that extends per bucket.
``index_oracle.py`` does each of those one value at a time.  On all four
workloads × the row / column / sharded / mmap stores they must agree on
values, value *types* (an ``int`` never comes back a ``float``), order and
weights, on the meter after every fetch step of every generated plan, and on
the ``BudgetExceededError`` a cut budget raises.  The call-count guards at
the end keep the fast paths from silently falling back.
"""

from __future__ import annotations

import collections
import itertools
import types
from array import array

import pytest

from repro import Beas, ConstraintSpec, Database, Relation
from repro.access.index import ConstraintIndex, TemplateIndex
from repro.algebra.evaluator import Evaluator, Frame, MappingProvider
from repro.core.executor import PlanExecutor
from repro.core.plan import FetchSource
from repro.errors import BudgetExceededError, PlanError
from repro.experiments import build_beas
from repro.relational import store as store_module
from repro.relational.database import AccessMeter
from repro.relational.distance import NUMERIC
from repro.relational.schema import Attribute, DatabaseSchema, RelationSchema
from repro.workloads import QueryGenerator, airca, tfacc

import index_oracle
from conftest import to_backend

BACKENDS = ("row", "column", "sharded", "mmap")
WORKLOADS = ("tpch", "airca", "tfacc", "social")
ALPHAS = {"tpch": (0.01, 0.05, 0.5), "airca": (0.1, 0.5, 1.0), "tfacc": (0.1, 0.25, 1.0), "social": (0.05, 0.25, 1.0)}
MISSING = ("no such value",)


def typed(values):
    """``values`` with their types: 1 is not 1.0, NaN is NaN, -0.0 is not 0.0."""
    return [f"{type(v).__name__}:{v!r}" for v in values]


def same_columns(actual, expected, where):
    (columns, weights), (oracle_columns, oracle_weights) = actual, expected
    assert len(columns) == len(oracle_columns), where
    for column, oracle_column in zip(columns, oracle_columns):
        assert typed(column) == typed(oracle_column), where
    assert type(weights) is list and typed(weights) == typed(oracle_weights), where


def same_meter(meter, oracle_meter, where):
    assert meter.accessed == oracle_meter.accessed, where
    assert meter.by_relation == oracle_meter.by_relation, where


@pytest.fixture(scope="module")
def workloads(tpch_workload, social_workload):
    return {
        "tpch": tpch_workload,
        "airca": airca.generate(flights=400, airports=15),
        "tfacc": tfacc.generate(accidents=250, stops=80),
        "social": social_workload,
    }


@pytest.fixture(scope="module")
def engines(workloads):
    """(workload, backend) → the engine whose indexes were built from that backend's stores."""
    built = {}

    def engine(name, backend_name):
        if (name, backend_name) not in built:
            workload = workloads[name]
            database = to_backend(workload.database, backend_name)
            beas = Beas(database, constraints=workload.constraints, families=workload.families)
            built[name, backend_name] = (beas, index_oracle.OracleIndexes(workload.database, beas.access_schema))
        return built[name, backend_name]

    return engine


def batches(keys):
    """Key batches a step can present: every key, reversed with a miss inside, repeats, one key, none."""
    keys = list(keys)
    return [
        keys,
        keys[::-1][: len(keys) // 2] + [MISSING] + keys[: len(keys) // 2],
        keys[:3] + keys[:3],
        [list(key) for key in keys[:1]],  # a Sequence, not only a tuple
        [MISSING],
        [],
    ]


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_constraint_indexes_match_the_oracle(name, backend_name, engines):
    beas, oracles = engines(name, backend_name)
    assert beas.access_schema.constraints
    for constraint in beas.access_schema.constraints:
        index, oracle = constraint.index, oracles.of(constraint.index)
        where = f"{name}/{constraint.spec.describe()} on {backend_name}"
        assert typed(index.keys()) == typed(oracle.keys()), where
        assert (index.n, index.entry_count) == (oracle.n, oracle.entry_count), where
        assert index.spec().n == max(1, oracle.n)
        meter, oracle_meter = AccessMeter(), AccessMeter()
        for key in oracle.keys() + [MISSING]:
            fetched, expected = index.fetch(key, meter), oracle.fetch(key, oracle_meter)
            assert [typed(row) + typed([count]) for row, count in fetched] == [
                typed(row) + typed([count]) for row, count in expected
            ], where
        same_meter(meter, oracle_meter, where)
        for batch in batches(oracle.keys()):
            meter, oracle_meter = AccessMeter(), AccessMeter()
            same_columns(index.fetch_columns(batch, meter), oracle.fetch_columns(batch, oracle_meter), where)
            same_meter(meter, oracle_meter, where)
        same_columns(index.fetch_columns(oracle.keys()), oracle.fetch_columns(oracle.keys()), where)  # unmetered


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_template_indexes_match_the_oracle(name, backend_name, engines):
    beas, _oracles = engines(name, backend_name)
    grouped = 0
    for family in beas.access_schema.families:
        index = family.index
        grouped += bool(index.x)
        where = f"{name}/{family!r} on {backend_name}"
        for level in sorted({0, 1, index.max_level // 2, index.max_level, index.max_level + 3}):
            meter, oracle_meter = AccessMeter(), AccessMeter()
            for key in index.keys()[:5] + [MISSING]:
                assert index.fetch(key, level, meter) == index_oracle.template_fetch(index, key, level, oracle_meter)
            same_meter(meter, oracle_meter, where)
            for batch in batches(index.keys()[:40]):
                meter, oracle_meter = AccessMeter(), AccessMeter()
                same_columns(
                    index.fetch_columns(batch, level, meter),
                    index_oracle.template_fetch_columns(index, batch, level, oracle_meter),
                    f"{where} at level {level}",
                )
                same_meter(meter, oracle_meter, where)
    assert grouped, f"{name}: no template family with a tree per X-value"


def cut_budgets(base, counts):
    """``base`` plus every prefix total of ``counts`` short of the whole (an even sample past 24 of them)."""
    totals = sorted(set(itertools.accumulate(counts)) - {sum(counts)} | {0})
    if len(totals) > 24:
        totals = totals[:: len(totals) // 24 + 1]
    return [base + total for total in totals]


def overrun(fetch, accessed, by_relation, budget):
    """The ``(accessed, budget)`` of the error ``fetch`` raises under ``budget``, and the meter it leaves."""
    meter = AccessMeter(budget=budget, accessed=accessed, by_relation=dict(by_relation))
    with pytest.raises(BudgetExceededError) as raised:
        fetch(meter)
    return (raised.value.accessed, raised.value.budget), (meter.accessed, meter.by_relation)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_fetch_step_meters_and_fetches_like_the_oracle(name, backend_name, workloads, engines):
    """Every step of every generated plan: same X-values, same frame, same meter; same error on a cut budget."""
    beas, oracles = engines(name, backend_name)
    database = beas.database
    steps = cuts = 0
    for query in QueryGenerator(workloads[name], seed=7).workload_mix(30):
        for alpha in ALPHAS[name]:
            plan = beas.plan(query.ast, alpha)
            executor = PlanExecutor(database, plan, AccessMeter(budget=plan.budget))
            oracle = index_oracle.OracleExecutor(database, plan, AccessMeter(budget=plan.budget), oracles)
            for step in plan.fetch_plan:
                where = f"{name}/{query.name} at alpha={alpha}, step {step.name} on {backend_name}"
                x_values = executor._input_values(step)
                assert typed(x_values) == typed(oracle._input_values(step)), where
                accessed, by_relation = executor.meter.accessed, dict(executor.meter.by_relation)
                frame = executor._step_frames[step.name] = executor._run_step(step)
                expected = oracle._step_frames[step.name] = oracle._run_step(step)
                assert type(frame.store) is type(expected.store), where
                assert [typed(row) for row in frame.rows] == [typed(row) for row in expected.rows], where
                assert typed(frame.weights) == typed(expected.weights), where
                same_meter(executor.meter, oracle.meter, where)
                steps += 1
                if backend_name != "column":
                    continue  # the cut budgets exercise the meter and the indexes, not the frames' layout
                counts = [len(step.accessor.fetch_columns([x_value])[1]) for x_value in x_values]
                def fetch(meter):
                    return step.accessor.fetch_columns(x_values, meter)

                def oracle_fetch(meter):
                    return oracles.fetch_columns(step.accessor, x_values, meter)

                for budget in cut_budgets(accessed, counts):
                    assert overrun(fetch, accessed, by_relation, budget) == overrun(
                        oracle_fetch, accessed, by_relation, budget
                    ), f"{where}, budget {budget}"
                    cuts += 1
    assert steps >= 90
    assert backend_name != "column" or cuts >= steps


class TestChargeMany:
    @pytest.mark.parametrize("counts", [[], [0], [0, 0, 0], [3], [1, 0, 2, 0, 4], [5, 5, 5, 5], list(range(40))])
    def test_every_prefix_budget_and_none(self, counts):
        totals = [0] + list(itertools.accumulate(counts))
        for budget in [None] + sorted(set(totals)) + [totals[-1] + 1]:
            for enforce in (True, False):
                for start in (0, 2):
                    outcomes = []
                    for charge in (AccessMeter.charge_many, index_oracle.charge_each):
                        limit = None if budget is None else budget + start
                        meter = AccessMeter(budget=limit, enforce=enforce, accessed=start, by_relation={"s": start})
                        try:
                            charge(meter, iter(counts), "r")
                            error = None
                        except BudgetExceededError as exc:
                            error = (exc.accessed, exc.budget)
                        outcomes.append((error, meter.accessed, meter.by_relation))
                    assert outcomes[0] == outcomes[1], (counts, budget, enforce, start)

    def test_a_relation_is_recorded_only_when_named(self):
        meter = AccessMeter()
        meter.charge_many([1, 2])
        assert (meter.accessed, meter.by_relation) == (3, {})

    def test_a_negative_count_is_rejected_where_the_loop_rejects_it(self):
        meter, oracle_meter = AccessMeter(), AccessMeter()
        with pytest.raises(ValueError):
            meter.charge_many([2, -1, 4], "r")
        with pytest.raises(ValueError):
            index_oracle.charge_each(oracle_meter, [2, -1, 4], "r")
        same_meter(meter, oracle_meter, "negative count")


# ---------------------------------------------------------------------------
# X-values of a step
# ---------------------------------------------------------------------------

def _frame(name, columns, rows, backend_name="column"):
    schema = RelationSchema(name, [Attribute(column) for column in columns])
    return Frame(schema, store=Relation(schema, rows, backend=backend_name).store)


def _step(x, *sources):
    return types.SimpleNamespace(name="T9", sources=sources, accessor=types.SimpleNamespace(x=tuple(x)))


def _executor(step_frames):
    executor = PlanExecutor.__new__(PlanExecutor)
    executor._step_frames = step_frames
    return executor


T1_ROWS = [(3, "x", 1.5), (1, "y", 2.5), (3, "x", 9.0), (2, "x", 1.5), (1, "y", 0.0), (3, "z", 1.5)]
T2_ROWS = [("p", 7), ("q", 7), ("p", 8), ("p", 7)]
const, column = FetchSource.constant, FetchSource.from_step

INPUT_CASES = {
    "const-only": _step(("b", "a"), const("a", 1), const("b", "k")),
    "one-producer": _step(("a", "b"), column("a", "T1", "t.a"), column("b", "T1", "t.b")),
    "one-producer-reordered": _step(("b", "a"), column("a", "T1", "t.a"), column("b", "T1", "t.b")),
    "one-producer-one-column": _step(("a",), column("a", "T1", "t.a")),
    "producer-and-constants": _step(("k", "b", "a"), const("k", 0), column("a", "T1", "t.a"), column("b", "T1", "t.b")),
    "column-overrides-constant": _step(("a", "b"), const("a", 99), column("a", "T1", "t.a"), const("b", "k")),
    "constant-named-after-the-column": _step(("a", "b"), column("a", "T1", "t.a"), const("a", 99), const("b", "k")),
    "same-attribute-twice": _step(("a",), column("a", "T1", "t.a"), column("a", "T1", "t.c")),
    "two-producers": _step(
        ("u", "a", "b"), column("a", "T1", "t.a"), column("u", "T2", "s.u"), column("b", "T1", "t.b")
    ),
    "two-producers-and-a-constant": _step(
        ("v", "k", "c"), column("c", "T1", "t.c"), const("k", 0), column("v", "T2", "s.v")
    ),
    "two-producers-of-one-attribute": _step(("a",), column("a", "T1", "t.a"), column("a", "T2", "s.v")),
}


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("case", sorted(INPUT_CASES))
def test_input_values_match_the_oracle_including_order(case, backend_name):
    step = INPUT_CASES[case]
    for t1_rows, t2_rows in ((T1_ROWS, T2_ROWS), ([], T2_ROWS), (T1_ROWS, []), ([], [])):
        frames = {
            "T1": _frame("T1", ("t.a", "t.b", "t.c"), t1_rows, backend_name),
            "T2": _frame("T2", ("s.u", "s.v"), t2_rows, backend_name),
        }
        values = _executor(frames)._input_values(step)
        expected = index_oracle.input_values(frames, step)
        assert type(values) is list and typed(values) == typed(expected), (case, len(t1_rows), len(t2_rows))


def test_input_values_of_the_cases_are_what_they_say():
    frames = {"T1": _frame("T1", ("t.a", "t.b", "t.c"), T1_ROWS), "T2": _frame("T2", ("s.u", "s.v"), T2_ROWS)}
    values = {case: _executor(frames)._input_values(step) for case, step in INPUT_CASES.items()}
    assert values["const-only"] == [("k", 1)]
    assert values["one-producer"] == [(3, "x"), (1, "y"), (2, "x"), (3, "z")]
    assert values["column-overrides-constant"] == [(3, "k"), (1, "k"), (2, "k")]
    assert values["constant-named-after-the-column"] == values["column-overrides-constant"]
    assert values["two-producers"][:3] == [("p", 3, "x"), ("q", 3, "x"), ("p", 1, "y")]  # the first step slowest
    assert len(values["two-producers"]) == 4 * 2
    assert values["two-producers-of-one-attribute"] == [(7,), (8,)]  # the later producing step wins


def test_a_step_that_reads_ahead_is_refused():
    with pytest.raises(PlanError):
        _executor({})._input_values(INPUT_CASES["one-producer"])


# ---------------------------------------------------------------------------
# The join probe
# ---------------------------------------------------------------------------

NAN = float("nan")
JOIN_CASES = {
    "1:1": ([1, 2, 3], [3, 1, 2]),
    "1:n": ([1, 2], [2, 1, 2, 2, 1]),
    "n:m": ([1, 1, 2, 2, 1], [2, 1, 1, 2]),
    "no-match": ([1, 2, 3], [4, 5]),
    "some-match": ([9, 1, 8, 2, 1], [1, 7, 2, 2]),
    "empty-left": ([], [1, 2]),
    "empty-right": ([1, 2], []),
}


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("case", sorted(JOIN_CASES))
def test_join_pairs_and_weights_match_the_oracle(case, backend_name):
    left_keys, right_keys = JOIN_CASES[case]
    weight_cycle = [1.0, NAN, -0.0, 2.5, 0.0, -3.0, 1e308]
    left_weights = [weight_cycle[i % 7] for i in range(len(left_keys))]
    right_weights = [weight_cycle[(i + 2) % 7] for i in range(len(right_keys))]
    schema_l = RelationSchema("l", [Attribute("l.k"), Attribute("l.i")])
    schema_r = RelationSchema("r", [Attribute("r.k"), Attribute("r.j")])
    left_rows = [(key, i) for i, key in enumerate(left_keys)]
    right_rows = [(key, j) for j, key in enumerate(right_keys)]
    left = Frame(schema_l, weights=left_weights, store=Relation(schema_l, left_rows, backend=backend_name).store)
    right = Frame(schema_r, weights=right_weights, store=Relation(schema_r, right_rows, backend=backend_name).store)
    evaluator = Evaluator(DatabaseSchema([schema_l, schema_r]), MappingProvider({}))
    joined = evaluator._hash_join(left, right, ["l.k"], ["r.k"])
    left_indices, right_indices, weights = index_oracle.join_pairs(
        [(key,) for key in left_keys], left_weights, [(key,) for key in right_keys], right_weights
    )
    assert [(row[1], row[3]) for row in joined.rows] == list(zip(left_indices, right_indices))
    assert all(row[0] == row[2] for row in joined.rows)
    assert type(joined.weights) is list and typed(joined.weights) == typed(weights)
    assert (case in ("1:1", "1:n", "n:m", "some-match")) == bool(weights)


# ---------------------------------------------------------------------------
# Mixed-type columns stay object columns
# ---------------------------------------------------------------------------

def _mixed_database(backend_name):
    schema = RelationSchema(
        "m", [Attribute("k"), Attribute("f", NUMERIC), Attribute("i", NUMERIC), Attribute("g", NUMERIC), Attribute("s")]
    )
    rows = [
        (1, 0.5, 7, 1.5, "a"),
        (1, 2, 2**63, 2.5, "b"),  # an int in the float column; an int no machine word holds
        (2, 1.5, 8, NAN, "a"),
        (2, 1.5, 8, -0.0, "a"),
        (2, 1.5, 8, -0.0, "a"),  # a duplicate: one entry, count 2
        (True, 3.5, 9, 0.0, None),  # True == 1: the same X-value as the first rows
    ]
    return Database.from_relations([Relation(schema, rows, backend=backend_name)])


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_mixed_type_columns_stay_object_columns_end_to_end(backend_name):
    database = _mixed_database(backend_name)
    relation = database.relation("m")
    index = ConstraintIndex(relation, ("k",), ("f", "i", "g", "s"))
    oracle = index_oracle.OracleConstraintIndex(_mixed_database("row").relation("m"), ("k",), ("f", "i", "g", "s"))
    assert (index.n, index.entry_count, typed(index.keys())) == (oracle.n, oracle.entry_count, typed(oracle.keys()))
    columns, weights = index.fetch_columns([(2,), (1,)])
    oracle_columns, oracle_weights = oracle.fetch_columns([(2,), (1,)])
    # X is emitted as stored (True among the 1s), where the oracle repeats the requested value.
    assert typed(columns[0]) == typed([2, 2, 1, 1, True])
    same_columns((columns[1:], weights), (oracle_columns[1:], oracle_weights), backend_name)
    assert [type(column) for column in columns] == [list, list, list, array, list]
    assert weights == [1.0, 2.0, 1.0, 1.0, 1.0]

    beas = Beas(database, constraints=[ConstraintSpec("m", ("k",), ("f", "i", "g", "s"))])
    for sql, alpha in (
        ("select m.f, m.i, m.g, m.s from m as m where m.k = 1", 1.0),
        ("select m.f, m.i from m as m", 1.0),
    ):
        plan = beas.plan(sql, alpha)
        executor = PlanExecutor(database, plan, AccessMeter(budget=plan.budget))
        for frame in executor.fetch().values():
            fetched = {name.split(".")[1]: frame.column(p) for p, name in enumerate(frame.schema.attribute_names)}
            assert {type(v) for v in fetched["f"]} == {float, int}
            assert 2**63 in fetched["i"] and {type(v) for v in fetched["i"]} == {int}
            if isinstance(frame.store, store_module.ColumnStore):
                assert type(fetched["f"]) is list and type(fetched["i"]) is list and type(fetched["g"]) is array
        # Every answer row is a row of the exact answer, types included.
        answered = {tuple(typed(row)) for row in beas.answer(sql, alpha).rows}
        assert len(answered) == 3 and answered <= {tuple(typed(row)) for row in beas.answer_exact(sql).rows}


# ---------------------------------------------------------------------------
# Call-count guards: the fast paths cannot silently fall back
# ---------------------------------------------------------------------------

def _numeric_database(backend_name):
    schema = RelationSchema("r", [Attribute("a", NUMERIC), Attribute("b", NUMERIC), Attribute("c", NUMERIC)])
    rows = [(i % 40, float(i % 7), i * 0.5) for i in range(200)]
    return Database.from_relations([Relation(schema, rows, backend=backend_name)])


@pytest.mark.parametrize("backend_name", ["column", "sharded", "mmap"])
def test_numeric_fetch_steps_reach_the_store_as_typed_buffers(backend_name, monkeypatch):
    database = _numeric_database(backend_name)
    beas = Beas(database, constraints=[ConstraintSpec("r", ("a",), ("b", "c"))])
    scanned = []
    original = store_module._typed_buffer

    def recording(values):
        scanned.append(type(values))
        return original(values)

    kinds = set()
    for sql, alpha in (
        ("select r.b, r.c from r as r where r.a = 3", 1.0),  # the constraint, X from a constant
        ("select r.a, r.b, r.c from r as r where r.c <= 40", 0.2),  # the canonical template
        ("select r.a, r.b, r.c from r as r", 1.0),  # its exact level
    ):
        plan = beas.plan(sql, alpha)
        executor = PlanExecutor(database, plan, AccessMeter(budget=plan.budget))
        for step in plan.fetch_plan:
            kinds.add(step.accessor.is_constraint)
            with monkeypatch.context() as patch:
                patch.setattr(store_module, "_typed_buffer", recording)
                frame = executor._step_frames[step.name] = executor._run_step(step)
            assert len(frame) > 0
            assert scanned and set(scanned) == {array}, (sql, step.name, scanned)
            scanned.clear()
    assert kinds == {True, False}


def test_an_in_budget_answer_charges_per_step_not_per_x_value(monkeypatch):
    workload = tfacc.generate(accidents=1200, stops=100)
    beas = build_beas(workload)
    sql = (
        "select a.accident_id, v.driver_age from accidents as a, vehicles as v "
        "where a.accident_id = v.accident_id and a.severity >= 1"
    )
    x_values, charges = [], []
    original_inputs, original_charge = PlanExecutor._input_values, AccessMeter.charge

    def counting_inputs(executor, step):
        values = original_inputs(executor, step)
        x_values.append(len(values))
        return values

    def counting_charge(meter, count, relation_name=""):
        charges.append(count)
        return original_charge(meter, count, relation_name)

    monkeypatch.setattr(PlanExecutor, "_input_values", counting_inputs)
    monkeypatch.setattr(AccessMeter, "charge", counting_charge)
    result = beas.answer(sql, 1.0)
    assert max(x_values) >= 1000 and result.tuples_accessed > max(x_values)
    assert len(charges) <= len(result.plan.fetch_plan)


def test_a_one_producer_step_returns_the_key_tuples_themselves(social_beas, monkeypatch):
    """Sources exactly ``accessor.x`` from one step: no product, no re-ordering, no copy of a tuple."""
    friends = collections.Counter(row[0] for row in social_beas.database.relation("friend").rows)
    (pid, _count), = friends.most_common(1)
    plan = social_beas.plan(
        f"select f.fid, p.city from friend as f, person as p where f.pid = {pid} and f.fid = p.pid", 1.0
    )
    step = plan.fetch_plan.steps[-1]
    assert [source.kind for source in step.sources] == ["column"] * len(step.accessor.x)
    assert tuple(source.attribute for source in step.sources) == step.accessor.x

    def no_product(*_groups):
        raise AssertionError("a one-producer step built a product")

    yielded = []
    original = Frame.key_tuples

    def recording(frame, positions):
        yielded.append(list(original(frame, positions)))
        return iter(yielded[-1])

    patched = types.SimpleNamespace(product=no_product, repeat=itertools.repeat)
    monkeypatch.setattr("repro.core.executor.itertools", patched)
    monkeypatch.setattr(Frame, "key_tuples", recording)
    executor = PlanExecutor(social_beas.database, plan, AccessMeter(budget=plan.budget))
    for earlier in plan.fetch_plan.steps[:-1]:
        executor._step_frames[earlier.name] = executor._run_step(earlier)
    yielded.clear()
    values = executor._input_values(step)
    (tuples,) = yielded
    distinct = list(dict.fromkeys(tuples))
    assert len(values) == len(distinct) > 1
    assert all(value is key for value, key in zip(values, distinct))
    assert len(executor._run_step(step)) > 0
    frames = {"T1": _frame("T1", ("t.a", "t.b", "t.c"), T1_ROWS), "T2": _frame("T2", ("s.u", "s.v"), T2_ROWS)}
    with pytest.raises(AssertionError, match="built a product"):  # the patch does bite
        _executor(frames)._input_values(INPUT_CASES["two-producers"])


def test_a_fetch_is_not_a_store_gather(monkeypatch):
    """The index gathers from its own buffers: a fetch is fetch time, never a ``Store.gather_column`` call."""
    beas = Beas(_numeric_database("column"), constraints=[ConstraintSpec("r", ("a",), ("b", "c"))])

    def no_gather(*_args):
        raise AssertionError("a fetch step went through Store.gather_column")

    monkeypatch.setattr(store_module.ColumnStore, "gather_column", no_gather)
    for sql, alpha in (("select r.b, r.c from r as r where r.a = 3", 1.0), ("select r.a, r.b from r as r", 0.2)):
        plan = beas.plan(sql, alpha)
        executor = PlanExecutor(beas.database, plan, AccessMeter(budget=plan.budget))
        assert all(len(frame) for frame in executor.fetch().values())


class _NoRows(store_module.ColumnStore):
    """A column store that refuses to materialise a row tuple."""

    def row(self, *_args):
        raise AssertionError("an index builder materialised the relation's rows")

    row_list = iter_rows = row


def test_the_index_builders_read_columns_not_rows():
    """Neither builder makes the store materialise its row tuples; both read the key columns."""
    source = _numeric_database("column").relation("r")
    relation = Relation(source.schema, store=_NoRows.from_columns(3, source.store.columns()))
    index = ConstraintIndex(relation, ("a",), ("b",))
    assert (len(index.keys()), index.entry_count, index.n) == (40, 200, 5)
    assert len(TemplateIndex(relation, ("a",), ("b", "c")).keys()) == 40
    with pytest.raises(AssertionError, match="materialised"):  # the store does refuse
        list(relation)
