"""Unit tests for predicates and conjunctions."""

from array import array

import pytest

from repro.algebra.predicates import AttrRef, CompareOp, Comparison, Conjunction, Const
from repro.errors import QueryError

INF, NAN = float("inf"), float("nan")

# One column of each kind the whole-column mask passes tell apart: a typed
# float buffer (NaN, signed zeros, infinities), a typed int buffer, and an
# object list (None, bool, a string among numbers).
COLUMNS = {
    "float": array("d", [-1.5, 0.0, -0.0, 2.0, 2.5, NAN, INF, -INF, 3.0]),
    "int": array("q", [-(2**62), -1, 0, 2, 3, 2**62, 2, -1, 7]),
    "object": [None, 1, 2.0, "2", True, 3, None, 2, NAN],
}
CONSTANTS = [2, 2.0, -0.0, NAN, INF, True, None, "2"]


class TestAttrRef:
    def test_parse_qualified(self):
        ref = AttrRef.parse("h.price")
        assert ref.alias == "h" and ref.attribute == "price"
        assert ref.qualified == "h.price"

    def test_parse_unqualified(self):
        ref = AttrRef.parse("price")
        assert ref.alias is None and ref.qualified == "price"


class TestCompareOp:
    def test_parse_symbols(self):
        assert CompareOp.parse("=") is CompareOp.EQ
        assert CompareOp.parse("<>") is CompareOp.NE
        assert CompareOp.parse("==") is CompareOp.EQ
        assert CompareOp.parse("<=") is CompareOp.LE

    def test_parse_unknown(self):
        with pytest.raises(QueryError):
            CompareOp.parse("~~")

    @pytest.mark.parametrize(
        "op,left,right,expected",
        [
            (CompareOp.EQ, 3, 3, True),
            (CompareOp.EQ, 3, 4, False),
            (CompareOp.NE, 3, 4, True),
            (CompareOp.LE, 3, 3, True),
            (CompareOp.LT, 3, 3, False),
            (CompareOp.GE, 5, 3, True),
            (CompareOp.GT, 2, 3, False),
        ],
    )
    def test_evaluate(self, op, left, right, expected):
        assert op.evaluate(left, right) is expected

    def test_evaluate_none(self):
        assert CompareOp.LE.evaluate(None, 3) is False

    def test_evaluate_type_mismatch(self):
        assert CompareOp.LE.evaluate("a", 3) is False

    def test_classification(self):
        assert CompareOp.EQ.is_equality
        assert CompareOp.LE.is_inequality_range
        assert not CompareOp.EQ.is_inequality_range

    @pytest.mark.parametrize("kind", sorted(COLUMNS))
    @pytest.mark.parametrize("op", list(CompareOp))
    def test_column_mask_is_evaluate_per_value(self, op, kind):
        values = COLUMNS[kind]
        for constant in CONSTANTS:
            expected = bytearray(op.evaluate(value, constant) for value in values)
            assert op.column_mask(values, constant) == expected, constant

    @pytest.mark.parametrize("kind", sorted(COLUMNS))
    @pytest.mark.parametrize("op", list(CompareOp))
    def test_column_mask_pair_is_evaluate_per_pair(self, op, kind):
        left = COLUMNS[kind]
        for right in (left, left[3:] + left[:3], COLUMNS["object"], COLUMNS["float"]):
            expected = bytearray(op.evaluate(a, b) for a, b in zip(left, right))
            assert op.column_mask_pair(left, right) == expected, right


class TestComparison:
    def test_attr_const(self):
        c = Comparison(AttrRef("h", "price"), CompareOp.LE, Const(95))
        assert c.is_attr_const and not c.is_attr_attr
        assert c.constant() == 95
        assert [r.qualified for r in c.attributes()] == ["h.price"]

    def test_attr_attr(self):
        c = Comparison(AttrRef("p", "city"), CompareOp.EQ, AttrRef("h", "city"))
        assert c.is_attr_attr and not c.is_attr_const
        assert c.constant() is None

    def test_const_const_rejected(self):
        with pytest.raises(QueryError):
            Comparison(Const(1), CompareOp.EQ, Const(2))

    def test_normalized_flips_constant_to_right(self):
        c = Comparison(Const(95), CompareOp.GE, AttrRef("h", "price"))
        n = c.normalized()
        assert isinstance(n.left, AttrRef)
        assert n.op is CompareOp.LE
        assert n.constant() == 95

    def test_normalized_noop(self):
        c = Comparison(AttrRef("h", "price"), CompareOp.LE, Const(95))
        assert c.normalized() == c


class TestConjunction:
    def test_true_is_empty(self):
        assert len(Conjunction.true()) == 0
        assert not Conjunction.true()

    def test_attributes(self):
        c = Conjunction.of(
            [
                Comparison(AttrRef("a", "x"), CompareOp.EQ, Const(1)),
                Comparison(AttrRef("a", "y"), CompareOp.LE, AttrRef("b", "z")),
            ]
        )
        assert [r.qualified for r in c.attributes()] == ["a.x", "a.y", "b.z"]
