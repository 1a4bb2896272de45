"""Differential tests for the compiled relaxed comparisons (Section 5's ξ_E).

``_relaxed_attr_const`` / ``_relaxed_attr_attr`` define a relaxed comparison
one value at a time.  The evaluator's binders compile the built-in numeric
distances over typed columns to one generator pass per chunk
(:meth:`repro.relational.distance.DistanceFunction.within_mask`) and evaluate
everything else value by value; either way the mask must equal
``bytearray(_relaxed_attr_const(v, ...) for v in column)`` bit for bit — for
every operator, on every backend and executor, at every chunk size.
"""

from __future__ import annotations

import math
import pickle
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import current_config
from repro.algebra.ast import Scan, Select
from repro.algebra.evaluator import (
    DatabaseProvider,
    Evaluator,
    _RelaxedConstBinder,
    _RelaxedPairBinder,
    _relaxed_attr_attr,
    _relaxed_attr_const,
)
from repro.algebra.predicates import (
    AttrRef,
    CompareOp,
    Comparison,
    Conjunction,
    Const,
    ConstChunkBinder,
    MaskProgram,
)
from repro.relational.database import Database
from repro.relational.distance import (
    CATEGORICAL,
    DistanceFunction,
    NUMERIC,
    STRING_PREFIX,
    TRIVIAL,
    absolute_difference,
    numeric_scaled,
)
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, DatabaseSchema, RelationSchema

NAN, INF = float("nan"), float("inf")
BIG = 2**53


def _halved(x, y):
    return absolute_difference(x, y) / 2.0


# Numeric, but not one of the built-ins: no column kernel, always value by value.
CUSTOM = DistanceFunction("halved", _halved, numeric=True)
SCALED = numeric_scaled(4.0)
NUMERIC_DISTANCES = [NUMERIC, SCALED, CUSTOM]
OTHER_DISTANCES = [TRIVIAL, CATEGORICAL, STRING_PREFIX]

# Around c = 10 with slack 0.5: exactly at the slack under NUMERIC (9.5, 10.5)
# and under SCALED (8, 12), one ulp beyond either side, NaN and the infinities.
FLOATS = [
    0.0, -2.25, 9.5, 10.0, 10.5, math.nextafter(10.5, INF), math.nextafter(9.5, -INF),
    8.0, 12.0, math.nextafter(12.0, INF), math.nextafter(8.0, -INF), 11.0, NAN, INF, -INF, 1e300,
]
# Ints whose float images collide (2^53 and 2^53 + 1) or differ by rounding.
INTS = [0, 1, -3, 8, 9, 10, 11, 12, 13, BIG - 1, BIG, BIG + 1, BIG + 2, 2**62 + 1, -(2**63), 2**63 - 1]
# Everything a typed buffer cannot hold: the column stays a plain list.
OBJECTS = [None, "7", "10.5", True, False, NAN, INF, -INF, 3, 10, 4.0, 2**70, BIG + 1, None, 9.5, 12]
STRINGS = ["hotel", "hostel", "hotels", None, "", "hotel", 10, 10.0, True, "10", NAN, "motel", None, "h", "x", 7]

NUMERIC_CONSTANTS = [10, 10.0, 10.5, BIG + 1, True, None, "10", NAN, INF]
OTHER_CONSTANTS = ["hotel", 10, None, 10.0]
SLACKS = [0.5, 2.0]
CHUNKS = [1, 7, None]


def _schema(distance):
    return RelationSchema(
        "t",
        [
            Attribute("id"),
            Attribute("f", distance),
            Attribute("g", distance),
            Attribute("i", distance),
            Attribute("j", distance),
            Attribute("o", distance),
        ],
    )


def _relation(distance, backend):
    objects = OBJECTS if distance.numeric else STRINGS
    rows = [
        (n, FLOATS[n], FLOATS[-1 - n], INTS[n], INTS[(n * 5 + 3) % len(INTS)], objects[n])
        for n in range(len(FLOATS))
    ]
    return Relation(_schema(distance), rows, backend=backend)


def _chunked(binder, chunk):
    """``binder`` beside an always-true comparison, so the engine really chunks (a lone binder runs whole)."""
    return MaskProgram([binder, ConstChunkBinder(CompareOp.NE, 0, "never")], chunk)


def _grid(distance):
    """(operators, constants, slacks, chunk sizes) — thinned when every mask is a worker round trip."""
    constants = NUMERIC_CONSTANTS if distance.numeric else OTHER_CONSTANTS
    if current_config().shard_executor == "process":
        return list(CompareOp), constants[::3], SLACKS[:1], CHUNKS[1:2]
    return list(CompareOp), constants, SLACKS, CHUNKS


@pytest.mark.parametrize("distance", NUMERIC_DISTANCES + OTHER_DISTANCES, ids=lambda d: d.name)
class TestBindersAgainstPerValue:
    def test_attr_const(self, backend, distance):
        relation = _relation(distance, backend)
        store = relation.store
        operators, constants, slacks, chunks = _grid(distance)
        for position in (1, 3, 5):
            column = list(store.column(position))
            for op in operators:
                for constant in constants:
                    for slack in slacks:
                        expected = bytearray(
                            _relaxed_attr_const(v, op, constant, slack, distance) for v in column
                        )
                        binder = _RelaxedConstBinder(op, position, constant, slack, distance)
                        where = f"{backend} col {position} {op.value} {constant!r} slack {slack}"
                        assert MaskProgram([binder]).mask(store) == expected, where
                        for chunk in chunks:
                            assert _chunked(binder, chunk).mask(store) == expected, f"{where} chunk {chunk}"

    def test_attr_attr(self, backend, distance):
        relation = _relation(distance, backend)
        store = relation.store
        operators, _constants, slacks, chunks = _grid(distance)
        # float/float, int/int, float/int, int/float, and an object column on one side.
        for left, right in ((1, 2), (3, 4), (1, 3), (4, 2), (5, 1)):
            pairs = list(zip(store.column(left), store.column(right)))
            for op in operators:
                for slack in slacks:
                    expected = bytearray(_relaxed_attr_attr(a, b, op, slack, distance) for a, b in pairs)
                    binder = _RelaxedPairBinder(op, left, right, slack, distance)
                    where = f"{backend} cols {left},{right} {op.value} slack {slack}"
                    assert MaskProgram([binder]).mask(store) == expected, where
                    for chunk in chunks:
                        assert _chunked(binder, chunk).mask(store) == expected, f"{where} chunk {chunk}"


class TestColumnKernels:
    """``within_mask`` / ``within_mask_pair`` themselves: when they apply, and that they agree."""

    STRICT = {op: op.value for op in CompareOp if op.is_inequality_range}

    def test_typed_buffers_compile_for_the_builtin_numeric_distances(self):
        floats, ints = array("d", FLOATS), array("q", INTS)
        views = [memoryview(floats), memoryview(ints)]  # what an mmap-backed column looks like
        for distance in (NUMERIC, SCALED):
            for column in (floats, ints, *views):
                for constant in (10, 10.5, BIG + 1, True, NAN):
                    for op in (CompareOp.EQ, *self.STRICT):
                        mask = distance.within_mask(column, constant, 0.5, self.STRICT.get(op))
                        assert mask == bytearray(
                            _relaxed_attr_const(v, op, constant, 0.5, distance) for v in column
                        ), (distance.name, type(column).__name__, constant, op)

    def test_everything_else_declines(self):
        floats = array("d", FLOATS)
        assert NUMERIC.within_mask(list(FLOATS), 10, 0.5) is None  # object column
        assert NUMERIC.within_mask(array("b", [1, 2]), 1, 0.5) is None  # not a column typecode
        for constant in (None, "10", 10**400, [10]):
            assert NUMERIC.within_mask(floats, constant, 0.5) is None
        for distance in (CUSTOM, TRIVIAL, CATEGORICAL, STRING_PREFIX):
            assert distance.within_mask(floats, 10, 0.5) is None
            assert distance.within_mask_pair(floats, floats, 0.5) is None
        assert NUMERIC.within_mask_pair(floats, list(FLOATS), 0.5) is None
        with pytest.raises(ValueError):
            NUMERIC.within_mask(floats, 10, 0.5, "!=")
        with pytest.raises(ValueError):
            NUMERIC.within_mask_pair(floats, floats, 0.5, "!=")

    def test_int_columns_subtract_as_floats(self):
        """``|2^53 - (2^53 + 1)|`` is 1 in ints and 0 under the distance (both round to 2^53)."""
        left, right = array("q", [BIG, BIG + 2, 5]), array("q", [BIG + 1, BIG + 1, 7])
        assert NUMERIC(BIG, BIG + 1) == 0.0
        assert NUMERIC.within_mask_pair(left, right, 0.5) == bytearray([1, 0, 0])
        assert NUMERIC.within_mask_pair(left, right, 0.5, "<") == bytearray([1, 0, 1])
        assert NUMERIC.within_mask(left, BIG + 1, 0.5) == bytearray([1, 0, 0])
        assert NUMERIC.within_mask(left, BIG + 1, 0.5, ">") == bytearray([1, 1, 0])


numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=BIG - 4, max_value=BIG + 4),
    st.sampled_from([0.0, -0.0, 1.5, 10.0]),
)
float_columns = st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=0, max_size=30).map(
    lambda values: array("d", values)
)
int_columns = st.lists(
    st.one_of(st.integers(min_value=-(2**63), max_value=2**63 - 1), st.integers(BIG - 4, BIG + 4)),
    min_size=0,
    max_size=30,
).map(lambda values: array("q", values))
slacks = st.floats(min_value=0.0, max_value=1e6, allow_nan=False) | st.sampled_from([0.0, 0.5, 1.0])
scales = st.sampled_from([NUMERIC, SCALED, numeric_scaled(1e-3), numeric_scaled(360.0)])
operators = st.sampled_from([op for op in CompareOp if op is not CompareOp.NE])


@settings(max_examples=200, deadline=None)
@given(column=float_columns | int_columns, constant=numbers, slack=slacks, distance=scales, op=operators)
def test_const_kernel_property(column, constant, slack, distance, op):
    strict = op.value if op.is_inequality_range else None
    assert distance.within_mask(column, constant, slack, strict) == bytearray(
        _relaxed_attr_const(v, op, constant, slack, distance) for v in column
    )


@settings(max_examples=200, deadline=None)
@given(
    left=float_columns | int_columns,
    right=float_columns | int_columns,
    slack=slacks,
    distance=scales,
    op=operators,
)
def test_pair_kernel_property(left, right, slack, distance, op):
    size = min(len(left), len(right))
    left, right = left[:size], right[:size]
    strict = op.value if op.is_inequality_range else None
    assert distance.within_mask_pair(left, right, slack, strict) == bytearray(
        _relaxed_attr_attr(a, b, op, slack, distance) for a, b in zip(left, right)
    )


def test_program_with_relaxed_binders_survives_pickling():
    """What the process executor does to a compiled program on its way to a worker."""
    store = _relation(SCALED, "column").store
    program = MaskProgram(
        [
            _RelaxedConstBinder(CompareOp.LE, 1, 10, 0.5, SCALED),
            _RelaxedPairBinder(CompareOp.EQ, 3, 4, 2.0, SCALED),
            _RelaxedConstBinder(CompareOp.NE, 5, "7", 0.5, CUSTOM),
        ],
        chunk_size=7,
    )
    shipped = pickle.loads(pickle.dumps(program))
    assert shipped.binders == program.binders and shipped.chunk_size == 7
    assert shipped.mask(store) == program.mask(store)
    assert pickle.loads(pickle.dumps(program.run_part))(store) == program.run_part(store)


def test_relaxed_selection_over_typed_columns_never_calls_the_distance(monkeypatch):
    """The guard: n values, zero ``DistanceFunction.__call__`` — the typed path cannot silently fall back."""
    schema = RelationSchema("m", [Attribute("k"), Attribute("x", SCALED), Attribute("n", NUMERIC)])
    rows = [(f"k{n % 7}", float(n % 50), n % 40) for n in range(3000)]
    database = Database(DatabaseSchema([schema]), {"m": Relation(schema, rows, backend="column")})
    condition = Conjunction.of(
        [
            Comparison(AttrRef("m", "x"), CompareOp.LE, Const(10.0)),
            Comparison(AttrRef("m", "n"), CompareOp.EQ, Const(20)),
            Comparison(AttrRef("m", "x"), CompareOp.GE, AttrRef("m", "n")),
        ]
    )
    query = Select(Scan("m", "m"), condition)
    relaxation = {"m.x": 0.25, "m.n": 3.0}

    def evaluate():
        evaluator = Evaluator(database.schema, DatabaseProvider(database), relaxation=relaxation)
        return evaluator.evaluate_frame(query)

    expected = [
        index
        for index, (_k, x, n) in enumerate(rows)
        if _relaxed_attr_const(x, CompareOp.LE, 10.0, 0.25, SCALED)
        and _relaxed_attr_const(n, CompareOp.EQ, 20, 3.0, NUMERIC)
        and _relaxed_attr_attr(x, n, CompareOp.GE, 3.25, SCALED)
    ]
    calls = [0]
    original = DistanceFunction.__call__

    def counted(self, x, y):
        calls[0] += 1
        return original(self, x, y)

    monkeypatch.setattr(DistanceFunction, "__call__", counted)
    frame = evaluate()
    assert calls[0] == 0
    assert 0 < len(expected) < len(rows)
    assert frame.rows == [rows[index] for index in expected]

    # The same selection over an object column does go value by value.
    relaxation = {"m.k": 0.5}
    query = Select(Scan("m", "m"), Conjunction.of([Comparison(AttrRef("m", "k"), CompareOp.EQ, Const("k3"))]))
    evaluate()
    assert calls[0] == len(rows)
