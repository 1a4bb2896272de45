"""The accuracy lower-bound function ``L`` (Section 5, chAT).

Given a query and the per-attribute resolutions of the accessors its fetching
plan uses, ``L(ξ) = 1 / (1 + max(d_rel, d_cov))`` where ``d_rel`` and
``d_cov`` are upper bounds on the relevance and coverage distances of the
plan's answers, derived inductively over the query structure:

* base relation / scan — no error beyond the resolutions of the fetched
  attributes;
* ``σ_{R[A] op c}`` / ``σ_{R[A] op R[B]}`` — the relevance bound absorbs the
  resolution of the selection attributes (the relaxed condition may admit
  values off by that much);
* ``π``, ``×`` — combine children; coverage is bounded by the worst
  resolution among attributes visible in the output;
* ``Q1 ∪ Q2`` — worst of the two sides;
* ``Q1 − Q2`` — bounds of ``Q1`` (the executed guard never *adds* error to
  the surviving answers; the extra coverage term ``d' + d̂_cov`` of BEAS_RA is
  applied after execution, Section 6);
* ``gpBy(Q', X, min/max(V))`` — inherits ``Q'``'s bounds; for
  ``sum``/``count``/``avg`` the aggregate-value error cannot be bounded by
  resolutions alone, so the bound covers the group-key attributes (the
  paper's Corollary 7 likewise only carries the guarantees of Theorem 6 over
  to ``min``/``max``).

Because every template upgrade lowers some resolution, ``L`` is monotone in
the chosen levels — exactly the property chAT's greedy ascent relies on — and
monotone in α (Theorems 5(3) and 6(4)).

**The compiled set.**  Before execution ``d_rel`` and ``d_cov`` are the same
number: the worst fetch resolution among the query's selection attributes and
the attributes visible in its output (group keys and the aggregate column for
``gpBy``), unioned over ``∪`` / ``−`` branches.  Which attributes those are
depends on the query and the database schema only, so
:func:`bound_attributes` derives them in one pass — this is the whole
structural cost of ``L``, one ``output_schema`` per selection and per SPC
branch — and evaluating ``L`` for given resolutions (:func:`worst_resolution`)
is a maximum over that set.  :func:`lower_bound` and :func:`distance_bounds`
compile and evaluate in one call; chAT compiles once per plan and evaluates
per candidate.  An attribute that cannot be resolved raises
:class:`~repro.errors.PlanError`: treating it as fetched exactly would report
an η that is too high.
"""

from __future__ import annotations

from typing import FrozenSet, Mapping, Optional, Set, Tuple

from ..algebra.aggregates import AggregateFunction
from ..algebra.ast import (
    Difference,
    GroupBy,
    Product,
    Project,
    QueryNode,
    Rename,
    Scan,
    Select,
    Union,
    resolve_attribute,
)
from ..algebra.predicates import AttrRef
from ..errors import PlanError, QueryError, SchemaError
from ..relational.schema import DatabaseSchema, RelationSchema

#: The compiled form of ``L`` for one query: the qualified attributes whose
#: fetch resolutions the bound depends on, or ``None`` for "every fetched
#: attribute" (the fallback for operators this module does not know).
BoundAttributes = Optional[FrozenSet[str]]


def _resolve(schema: RelationSchema, ref: AttrRef, role: str) -> str:
    """``resolve_attribute`` that refuses to guess.

    An attribute that cannot be resolved would silently contribute
    resolution 0 to the bound, i.e. an η that is too *high*; a plan whose
    bound cannot be derived is a malformed plan.
    """
    try:
        return resolve_attribute(schema, ref)
    except (QueryError, SchemaError) as exc:
        raise PlanError(
            f"cannot derive the accuracy bound: {role} attribute {ref.qualified!r} "
            f"does not resolve against {list(schema.attribute_names)}: {exc}"
        ) from exc


def _selection_attributes(node: QueryNode, db_schema: DatabaseSchema) -> Set[str]:
    """Qualified attributes used in selection conditions anywhere in the subtree."""
    attributes: Set[str] = set()
    for current in node.walk():
        if isinstance(current, Select):
            schema = current.child.output_schema(db_schema)
            for ref in current.condition.attributes():
                attributes.add(_resolve(schema, ref, "selection"))
    return attributes


def bound_attributes(node: QueryNode, db_schema: DatabaseSchema) -> BoundAttributes:
    """Compile ``node`` into the attribute set its bound ``L`` ranges over.

    This is the only part of ``L`` that looks at the query: one walk of the
    AST, one ``output_schema`` per selection and per SPC branch.  The result
    depends on the query and the database schema alone — never on template
    levels — so chAT compiles once per ``generate_plan`` and evaluates
    :func:`worst_resolution` per candidate.
    """
    if isinstance(node, (Union, Difference)):
        # ∪: worst of the two sides.  −: the paper inherits the bounds of the
        # positive side and corrects the coverage after execution (BEAS_RA).
        # We additionally fold in the negated side: the set-difference guard
        # removes answers within the *negated* side's fetch resolution, so a
        # coarse negated side hurts coverage — folding it in keeps the bound
        # sound (it only gets more conservative) and lets chAT spend budget
        # on the negated side where that pays off.
        left = bound_attributes(node.left, db_schema)
        right = bound_attributes(node.right, db_schema)
        if left is None or right is None:
            return None
        return left | right
    if isinstance(node, GroupBy):
        # Group-by answers expose the group-key attributes plus one aggregate
        # value.  The bound tracks the resolutions of the group keys, the
        # child's selection attributes and — except for count, which ignores
        # the aggregated attribute's values — the aggregate column.
        child_schema = node.child.output_schema(db_schema)
        attributes = _selection_attributes(node.child, db_schema)
        attributes.update(_resolve(child_schema, ref, "group-by") for ref in node.group_columns)
        if node.aggregate is not AggregateFunction.COUNT:
            attributes.add(_resolve(child_schema, node.agg_column, "aggregate"))
        return frozenset(attributes)
    if isinstance(node, (Project, Rename, Select, Product, Scan)):
        attributes = _selection_attributes(node, db_schema)
        try:
            attributes.update(node.output_schema(db_schema).attribute_names)
        except (QueryError, SchemaError) as exc:
            raise PlanError(f"cannot derive the accuracy bound: {node!r} has no output schema: {exc}") from exc
        return frozenset(attributes)
    return None


def worst_resolution(attributes: BoundAttributes, resolutions: Mapping[str, float]) -> float:
    """The worst fetch resolution among ``attributes`` (unfetched attributes count 0)."""
    if attributes is None:
        return max(resolutions.values(), default=0.0)
    worst = 0.0
    for qualified in attributes:
        value = float(resolutions.get(qualified, 0.0))
        if value > worst:
            worst = value
    return worst


def bound_of(worst: float) -> float:
    """``1 / (1 + d)`` for ``d = max(d_rel, d_cov)``."""
    return 1.0 / (1.0 + worst)


def distance_bounds(
    node: QueryNode,
    resolutions: Mapping[str, float],
    db_schema: DatabaseSchema,
) -> Tuple[float, float]:
    """Upper bounds ``(d_rel, d_cov)`` for a query under given fetch resolutions.

    Both range over the same attribute set (selection ∪ output attributes),
    so they are always equal before execution; BEAS_RA's post-execution
    correction is what tells them apart.
    """
    worst = worst_resolution(bound_attributes(node, db_schema), resolutions)
    return worst, worst


def lower_bound(
    node: QueryNode,
    resolutions: Mapping[str, float],
    db_schema: DatabaseSchema,
) -> float:
    """``L(ξ) = 1 / (1 + max(d_rel, d_cov))``."""
    return bound_of(max(distance_bounds(node, resolutions, db_schema)))
