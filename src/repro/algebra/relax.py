"""Query relaxation ``Q^r`` (Section 3.1).

The relaxed query ``Q^r`` replaces every selection ``σ_{A=c}`` by
``σ_{|dis_A(A,c)| <= r}`` and every ``σ_{A=B}`` by ``σ_{|dis_A(A,B)| <= 2r}``.
The relevance distance of an approximate answer ``s`` is

    δ_rel(Q, D, s) = min_{r>=0} max(r, min_{t in Q^r(D)} d(s, t)).

Evaluating ``Q^r(D)`` for every ``r`` directly is intractable, but the
minimisation collapses to a per-tuple form: writing ``r(t)`` for the smallest
relaxation admitting a candidate tuple ``t`` (the worst violation of ``Q``'s
relaxable selections by ``t``),

    δ_rel(Q, D, s) = min_t max(r(t), d(s, t)),

where ``t`` ranges over the *relaxation candidates* — the result of ``Q``
with its relaxable selections removed.  Selections on attributes with the
trivial distance can never be usefully relaxed (any finite ``r`` keeps them
equivalent to equality), so they stay as hard conditions; this keeps the
candidate set small (joins on key attributes are preserved) and evaluation
tractable.

This module rewrites a query into its *candidate query* plus a function that
computes ``r(t)`` for each candidate tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from ..errors import QueryError
from ..relational.distance import INFINITY
from ..relational.relation import Row
from ..relational.schema import DatabaseSchema, RelationSchema
from .ast import Difference, QueryNode, Select, condition_on, resolve_attribute, transform
from .predicates import CompareOp, Comparison, Conjunction


def is_relaxable(comparison: Comparison, schema: RelationSchema) -> bool:
    """Whether relaxing this comparison can admit additional tuples.

    A comparison is relaxable when at least one attribute it mentions has a
    non-trivial distance function (numeric, string-prefix, ...).  Comparisons
    purely over trivial-distance attributes (IDs, categories) are kept as
    hard conditions — relaxing them by any finite ``r`` changes nothing.
    """
    for ref in comparison.attributes():
        name = resolve_attribute(schema, ref)
        if schema.attribute(name).distance.numeric or schema.attribute(name).distance.name != "trivial":
            return True
    return False


@dataclass
class RelaxationSplit:
    """A selection condition split into hard and relaxable parts."""

    hard: Conjunction
    relaxable: Conjunction


def split_condition(condition: Conjunction, schema: RelationSchema) -> RelaxationSplit:
    """Split ``condition`` into hard and relaxable comparisons w.r.t. ``schema``."""
    hard: List[Comparison] = []
    relaxable: List[Comparison] = []
    for comparison in condition:
        if is_relaxable(comparison, schema):
            relaxable.append(comparison)
        else:
            hard.append(comparison)
    return RelaxationSplit(Conjunction.of(hard), Conjunction.of(relaxable))


def relaxed_query(node: QueryNode, db_schema: DatabaseSchema) -> Tuple[QueryNode, List[Comparison]]:
    """Build the candidate query of ``node`` and collect its relaxable selections.

    The candidate query keeps all structure and hard selections of ``node``
    but drops relaxable selections; the dropped comparisons are returned so
    that :func:`violation` can compute per-tuple relaxation requirements.
    """
    dropped: List[Comparison] = []

    def rewrite(current: object) -> object:
        if isinstance(current, Select):
            child = transform(current.child, rewrite)
            schema = child.output_schema(db_schema)
            split = split_condition(condition_on(schema, current.condition), schema)
            dropped.extend(split.relaxable)
            if split.hard:
                return Select(child, split.hard)
            return child
        if isinstance(current, Difference):
            # Only the positive side is relaxed; the negated side keeps its
            # selections so that relaxation never *adds* tuples to the
            # subtracted set (that would shrink the candidate set unsoundly).
            return Difference(transform(current.left, rewrite), current.right)
        return None if isinstance(current, QueryNode) else current

    return transform(node, rewrite), dropped


class RelaxationOracle:
    """Computes the relaxation requirement ``r(t)`` of candidate tuples.

    Built from the relaxable comparisons dropped by :func:`relaxed_query`,
    evaluated against the *pre-projection* attribute values of a candidate
    tuple.  In practice the candidate query is evaluated without its final
    projection so every referenced attribute is available; see
    :mod:`repro.accuracy.rc`.
    """

    def __init__(self, schema: RelationSchema, comparisons: Sequence[Comparison]) -> None:
        self.schema = schema
        self._evaluators: List[Callable[[Row], float]] = [
            self._compile(comparison.normalized()) for comparison in comparisons
        ]

    def _compile(self, comparison: Comparison) -> Callable[[Row], float]:
        schema = self.schema
        if comparison.is_attr_const:
            ref = comparison.attributes()[0]
            name = resolve_attribute(schema, ref)
            position = schema.position(name)
            distance = schema.attribute(name).distance
            constant = comparison.constant()
            op = comparison.op
            return lambda row: _attr_const_violation(row[position], op, constant, distance)
        if comparison.is_attr_attr:
            left, right = comparison.attributes()
            lpos = schema.position(resolve_attribute(schema, left))
            rpos = schema.position(resolve_attribute(schema, right))
            distance = schema.attribute(resolve_attribute(schema, left)).distance
            op = comparison.op
            # Both sides may be relaxed by r, so the admissible violation is 2r;
            # the per-tuple requirement is therefore half the raw violation.
            return lambda row: _attr_attr_violation(row[lpos], row[rpos], op, distance) / 2.0
        raise QueryError(f"cannot compile comparison {comparison}")

    def requirement(self, row: Row) -> float:
        """``r(t)`` — the smallest relaxation admitting tuple ``row``."""
        worst = 0.0
        for evaluator in self._evaluators:
            violation = evaluator(row)
            if violation > worst:
                worst = violation
            if worst == INFINITY:
                return INFINITY
        return worst


def _attr_const_violation(value, op: CompareOp, constant, distance) -> float:
    """How far ``value`` violates ``value op constant`` (0 when satisfied).

    Violations are measured with the attribute's distance function so they
    are in the same units as tuple distances and template resolutions (e.g.
    range-scaled for numeric attributes).
    """
    if op is CompareOp.EQ:
        return distance(value, constant)
    if op is CompareOp.NE:
        return 0.0 if value != constant else INFINITY
    if value is None or constant is None:
        return INFINITY
    if op.evaluate(value, constant):
        return 0.0
    return distance(value, constant)


def _attr_attr_violation(left, right, op: CompareOp, distance) -> float:
    """How far ``left op right`` is violated (0 when satisfied)."""
    if op is CompareOp.EQ:
        return distance(left, right)
    if op is CompareOp.NE:
        return 0.0 if left != right else INFINITY
    if left is None or right is None:
        return INFINITY
    if op.evaluate(left, right):
        return 0.0
    return distance(left, right)
