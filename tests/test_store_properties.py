"""Property-based checks of the column store against plain Python rows (hypothesis).

Separate from ``test_store.py`` so the differential and unit tests there
still run in environments without the optional ``hypothesis`` extra.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")  # optional [test] extra

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Relation
from repro.algebra.evaluator import Frame, JoinStep
from repro.algebra.predicates import AttrRef, CompareOp, Comparison, Const
from repro.relational.distance import CATEGORICAL, NUMERIC
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.store import ColumnStore

from test_store import identity_key

CATS = st.one_of(st.none(), st.sampled_from(["a", "b", "c"]))
NUMBERS = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.integers(-(10**20), 10**20),
    st.floats(allow_infinity=False, allow_nan=True),
    st.booleans(),
)
ROWS = st.lists(st.tuples(st.integers(0, 5), CATS, NUMBERS, NUMBERS), max_size=40)


def untyped(width, rows):
    """A column store whose every buffer is a plain list: no typed fast path reads it."""
    if not rows:
        return ColumnStore(width)
    return ColumnStore.adopt_columns([list(column) for column in zip(*rows)])


def keys(rows):
    return [identity_key(row) for row in rows]


def first_seen(rows):
    """``rows`` without repeats, first occurrence kept (what ``distinct`` promises)."""
    seen = set()
    kept = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            kept.append(row)
    return kept


@settings(max_examples=60, deadline=None)
@given(rows=ROWS, constant=st.one_of(st.integers(-3, 3), st.floats(-5, 5)), data=st.data())
def test_property_column_store_matches_plain_rows(rows, constant, data):
    # NaN is unequal even to itself, so a ``set`` tells NaN objects apart by
    # identity alone: every cell gets its own, as a read of a typed column does.
    rows = [tuple(float("nan") if v != v else v for v in row) for row in rows]
    schema = RelationSchema(
        "t",
        [
            Attribute("id"),
            Attribute("cat", CATEGORICAL),
            Attribute("x", NUMERIC),
            Attribute("y", NUMERIC),
        ],
    )
    relation = Relation(schema, rows, backend="column")
    assert keys(relation) == keys(rows)
    assert relation == Relation(schema, list(reversed(rows)), backend="column")

    op = data.draw(st.sampled_from(list(CompareOp)))
    comparison = Comparison(AttrRef(None, "x"), op, Const(constant))
    assert keys(relation.select(comparison)) == keys(r for r in rows if op.evaluate(r[2], constant))

    attr_attr = Comparison(AttrRef(None, "x"), op, AttrRef(None, "y"))
    assert keys(relation.select(attr_attr)) == keys(r for r in rows if op.evaluate(r[2], r[3]))

    names = data.draw(
        st.lists(st.sampled_from(schema.attribute_names), min_size=1, max_size=4, unique=True)
    )
    positions = schema.positions(names)
    projected = [tuple(row[p] for p in positions) for row in rows]
    assert keys(relation.project(names, distinct=False)) == keys(projected)
    assert keys(relation.project(names)) == keys(first_seen(projected))
    assert keys(relation.distinct()) == keys(first_seen(rows))
    assert list(relation.group_by(["cat"])) == list(dict.fromkeys((row[1],) for row in rows))


@settings(max_examples=25, deadline=None)
@given(
    left_rows=st.lists(st.tuples(st.integers(0, 4), NUMBERS), max_size=25),
    right_rows=st.lists(st.tuples(st.integers(0, 4), NUMBERS), max_size=25),
    slack=st.floats(0.0, 3.0),
)
def test_property_relaxed_join_bit_identical(left_rows, right_rows, slack):
    """Hash/relaxed joins give identical output over typed and plain-list buffers."""
    left_schema = RelationSchema("l", [Attribute("l.k"), Attribute("l.v", NUMERIC)])
    right_schema = RelationSchema("r", [Attribute("r.k"), Attribute("r.v", NUMERIC)])
    relaxation = {"l.v": slack / 2, "r.v": slack / 2}
    results = []
    for build in (ColumnStore.from_rows, untyped):
        left = Frame(left_schema, store=build(2, left_rows))
        right = Frame(right_schema, store=build(2, right_rows))
        step = JoinStep.compile(left_schema, right_schema, ["l.k", "l.v"], ["r.k", "r.v"], relaxation)
        joined = step.run(left, right)
        results.append((joined.rows, joined.weights))
    (typed_rows, typed_weights), (plain_rows, plain_weights) = results
    assert keys(typed_rows) == keys(plain_rows)
    assert typed_weights == plain_weights
