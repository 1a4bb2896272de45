"""Differential tests for the chunked fused-mask predicate engine.

The contract (see :class:`repro.algebra.predicates.MaskProgram`): a
conjunction's fused, chunked, selectivity-ordered evaluation returns exactly
the per-row AND of :meth:`repro.algebra.predicates.CompareOp.evaluate` — at
**every** chunk size, over **every** registered backend, on columns holding
``None``, NaN, mixed int/float, and strings.  Chunking and predicate
reordering are pure execution strategies; any observable difference is a bug.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import predicates
from repro.algebra.evaluator import DatabaseProvider, Evaluator
from repro.algebra.predicates import (
    AttrRef,
    CompareOp,
    Comparison,
    Conjunction,
    Const,
    MaskProgram,
)
from repro.relational.database import Database
from repro.relational.distance import CATEGORICAL, NUMERIC
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.store import backend_class

from conftest import assert_identical, identity_key

NAN = float("nan")

CHUNK_SIZES = [1, 7, 4096]

SCHEMA = RelationSchema(
    "t",
    [
        Attribute("id"),
        Attribute("name", CATEGORICAL),
        Attribute("x", NUMERIC),
        Attribute("y", NUMERIC),
    ],
)


def _mixed_rows(count: int = 120, seed: int = 3):
    """Rows exercising None, NaN, mixed int/float and string columns."""
    rng = random.Random(seed)
    rows = []
    for i in range(count):
        ident = rng.choice([i, float(i), None, f"id{i % 4}"])
        name = rng.choice(["ada", "bob", "cleo", None, "ada"])
        x = rng.choice([rng.uniform(-5, 5), rng.randrange(-5, 5), None, NAN])
        y = rng.choice([rng.uniform(-5, 5), float(rng.randrange(-5, 5)), NAN])
        rows.append((ident, name, x, y))
    return rows


CONDITIONS = [
    Conjunction.of(
        [
            Comparison(AttrRef(None, "x"), CompareOp.LE, Const(2.0)),
            Comparison(AttrRef(None, "y"), CompareOp.GT, Const(-1)),
        ]
    ),
    Conjunction.of(
        [
            Comparison(AttrRef(None, "name"), CompareOp.EQ, Const("ada")),
            Comparison(AttrRef(None, "x"), CompareOp.LT, AttrRef(None, "y")),
            Comparison(AttrRef(None, "id"), CompareOp.NE, Const(None)),
        ]
    ),
    Conjunction.of(
        [
            # Deliberately contradictory pair: exercises all-zero chunks and
            # the short-circuit path.
            Comparison(AttrRef(None, "x"), CompareOp.GT, Const(100.0)),
            Comparison(AttrRef(None, "y"), CompareOp.GE, Const(-100.0)),
            Comparison(AttrRef(None, "name"), CompareOp.NE, Const("bob")),
        ]
    ),
    Conjunction.of([Comparison(AttrRef(None, "y"), CompareOp.GE, AttrRef(None, "x"))]),
    Conjunction.true(),
]


def _per_row_mask(rows, condition: Conjunction) -> bytearray:
    """The reference semantics: per-row CompareOp.evaluate, one value at a time."""
    out = bytearray(len(rows))
    positions = {name: i for i, name in enumerate(SCHEMA.attribute_names)}

    def operand(row, item):
        return row[positions[item.attribute]] if isinstance(item, AttrRef) else item.value

    for index, row in enumerate(rows):
        out[index] = all(
            comparison.op.evaluate(operand(row, comparison.left), operand(row, comparison.right))
            for comparison in condition
        )
    return out


class TestFusedMaskDifferential:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @pytest.mark.parametrize("condition", CONDITIONS, ids=[str(c) for c in CONDITIONS])
    def test_agrees_with_per_row_evaluate(self, backend, chunk_size, condition):
        rows = _mixed_rows()
        store = backend_class(backend).from_rows(len(SCHEMA), rows)
        expected = _per_row_mask(rows, condition)
        assert condition.mask(store, SCHEMA, chunk_size=chunk_size) == expected

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_selection_identical_across_chunk_sizes(self, backend, chunk_size, monkeypatch):
        rows = _mixed_rows(count=77, seed=9)
        other = Relation(SCHEMA, rows, backend=backend)
        monkeypatch.setattr(predicates, "MASK_CHUNK_SIZE", chunk_size)
        for condition in CONDITIONS:
            kept = [row for row, keep in zip(rows, _per_row_mask(rows, condition)) if keep]
            assert [identity_key(row) for row in other.select(condition)] == [
                identity_key(row) for row in kept
            ]

    def test_empty_store(self, backend):
        store = backend_class(backend).from_rows(len(SCHEMA), [])
        for condition in CONDITIONS:
            assert condition.mask(store, SCHEMA, chunk_size=1) == bytearray()

    def test_relaxed_filter_chunked(self, backend, tiny_db, monkeypatch):
        # The evaluator's relaxed selections run through the same fused
        # engine; relaxation must not depend on the chunk size either.
        node_sql = "select e.eid from emp as e where e.salary <= 40"
        from repro.algebra.sql import parse_query

        node = parse_query(node_sql)
        relaxation = {"e.salary": 5.0}
        reference = None
        for chunk_size in CHUNK_SIZES:
            monkeypatch.setattr(predicates, "MASK_CHUNK_SIZE", chunk_size)
            database = Database(
                tiny_db.schema,
                {
                    name: Relation(
                        tiny_db.relation(name).schema,
                        tiny_db.relation(name).rows,
                        backend=backend,
                    )
                    for name in tiny_db.relation_names
                },
            )
            result = Evaluator(
                database.schema, DatabaseProvider(database), relaxation=relaxation
            ).evaluate(node)
            if reference is None:
                reference = result
            else:
                assert_identical(reference, result)


class TestChunkSize:
    def test_program_chunk_override_beats_the_constant(self, monkeypatch):
        rows = _mixed_rows(count=30)
        store = backend_class("column").from_rows(len(SCHEMA), rows)
        condition = CONDITIONS[1]
        monkeypatch.setattr(predicates, "MASK_CHUNK_SIZE", 5)
        explicit = condition.program(SCHEMA, chunk_size=2)
        assert explicit.chunk_size == 2
        assert explicit.mask(store) == condition.mask(store, SCHEMA)

    def test_empty_program_selects_everything(self):
        store = backend_class("column").from_rows(len(SCHEMA), _mixed_rows(count=5))
        assert MaskProgram([]).mask(store) == bytearray(b"\x01" * 5)


# ---------------------------------------------------------------------------
# Property: fused == per-row on random data, chunk sizes and conditions
# ---------------------------------------------------------------------------

_VALUES = st.one_of(
    st.none(),
    st.integers(-6, 6),
    st.floats(-6, 6),
    st.just(NAN),
    st.sampled_from(["ada", "bob", "", "id3"]),
)

_OPS = st.sampled_from(list(CompareOp))
_ATTRS = st.sampled_from(["id", "name", "x", "y"])


@st.composite
def _comparisons(draw):
    attr = AttrRef(None, draw(_ATTRS))
    op = draw(_OPS)
    if draw(st.booleans()):
        other = AttrRef(None, draw(_ATTRS))
        return Comparison(attr, op, other)
    return Comparison(attr, op, Const(draw(_VALUES)))


@settings(deadline=None, max_examples=60)
@given(
    rows=st.lists(st.tuples(_VALUES, _VALUES, _VALUES, _VALUES), min_size=0, max_size=40),
    comparisons=st.lists(_comparisons(), min_size=1, max_size=4),
    chunk_size=st.integers(1, 50),
    backend_name=st.sampled_from(["column", "sharded", "sharded7"]),
)
def test_property_fused_equals_per_row(rows, comparisons, chunk_size, backend_name):
    condition = Conjunction.of(comparisons)
    store = backend_class(backend_name).from_rows(len(SCHEMA), rows)
    expected = _per_row_mask(rows, condition)
    assert condition.mask(store, SCHEMA, chunk_size=chunk_size) == expected
