"""Relational-algebra AST for RA and RA_aggr queries.

Operators: scan (with alias), selection, projection, Cartesian product,
union, set difference, renaming and group-by aggregation.  Every node can
compute its output :class:`~repro.relational.schema.RelationSchema` against a
database schema; output attributes are qualified as ``alias.attribute`` so
that predicates and downstream operators can refer to them unambiguously, and
they inherit the distance functions of the base attributes (needed by the RC
measure and by relaxed evaluation plans).
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Callable, List, Optional, Tuple

from ..errors import QueryError
from ..relational.distance import NUMERIC, resolve
from ..relational.schema import Attribute, DatabaseSchema, RelationSchema
from .aggregates import AggregateFunction
from .predicates import AttrRef, Comparison, Conjunction, resolve_position


class QueryNode:
    """Base class of all RA / RA_aggr operators."""

    def children(self) -> List["QueryNode"]:
        """Direct child operators."""
        raise NotImplementedError

    def output_schema(self, db_schema: DatabaseSchema) -> RelationSchema:
        """The schema of this operator's result, derived once per database schema.

        Nodes are frozen, so the schema is a function of the node and
        ``db_schema`` (whose relations are never replaced); the planner, the
        accuracy bound and the evaluator's compile pass all read the one
        object remembered here, keyed by the ``db_schema`` object.  One is
        remembered at a time, and a schema that cannot be derived raises
        and is not remembered.
        """
        memo = self.__dict__.get("_output_schema_of")
        if memo is not None and memo[0] is db_schema:
            return memo[1]
        schema = self._output_schema(db_schema)
        self.__dict__["_output_schema_of"] = (db_schema, schema)
        return schema

    def _output_schema(self, db_schema: DatabaseSchema) -> RelationSchema:
        raise NotImplementedError

    # -- classification helpers ----------------------------------------------
    def walk(self) -> Tuple["QueryNode", ...]:
        """All nodes of the subtree, pre-order (derived once: the node is frozen)."""
        nodes = self.__dict__.get("_walk")
        if nodes is None:
            found: List[QueryNode] = [self]
            for child in self.children():
                found.extend(child.walk())
            nodes = self.__dict__["_walk"] = tuple(found)
        return nodes

    def scans(self) -> List["Scan"]:
        """All relation scans in the subtree."""
        return [node for node in self.walk() if isinstance(node, Scan)]

    def has_difference(self) -> bool:
        return any(isinstance(node, Difference) for node in self.walk())

    def has_aggregate(self) -> bool:
        return any(isinstance(node, GroupBy) for node in self.walk())

    def is_spc(self) -> bool:
        """True when the subtree uses only σ, π, × and scans (an SPC query)."""
        return all(
            isinstance(node, (Scan, Select, Project, Product, Rename))
            for node in self.walk()
        )

    def product_count(self) -> int:
        """Number of Cartesian products in the query (``#-prod``)."""
        return sum(1 for node in self.walk() if isinstance(node, Product))

    def relation_count(self) -> int:
        """``||Q||`` — the number of relation atoms in the query."""
        return len(self.scans())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}()"


@dataclass(frozen=True, repr=False)
class Scan(QueryNode):
    """A base-relation atom ``R as alias`` (alias defaults to the name)."""

    relation: str
    alias: Optional[str] = None

    @property
    def effective_alias(self) -> str:
        return self.alias or self.relation

    def children(self) -> List[QueryNode]:
        return []

    def _output_schema(self, db_schema: DatabaseSchema) -> RelationSchema:
        base = db_schema.relation(self.relation)
        alias = self.effective_alias
        attrs = [Attribute(f"{alias}.{a.name}", a.distance) for a in base.attributes]
        return RelationSchema(alias, attrs)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Scan({self.relation} as {self.effective_alias})"


@dataclass(frozen=True, repr=False)
class Select(QueryNode):
    """Selection ``σ_condition(child)``."""

    child: QueryNode
    condition: Conjunction

    def children(self) -> List[QueryNode]:
        return [self.child]

    def _output_schema(self, db_schema: DatabaseSchema) -> RelationSchema:
        return self.child.output_schema(db_schema)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Select({self.condition})"


@dataclass(frozen=True, repr=False)
class Project(QueryNode):
    """Projection ``π_columns(child)``.

    ``columns`` are attribute references into the child's output; output
    attribute names keep the qualified form of the reference.
    """

    child: QueryNode
    columns: Tuple[AttrRef, ...]

    def children(self) -> List[QueryNode]:
        return [self.child]

    def _output_schema(self, db_schema: DatabaseSchema) -> RelationSchema:
        child_schema = self.child.output_schema(db_schema)
        attrs = []
        for ref in self.columns:
            name = resolve_attribute(child_schema, ref)
            attrs.append(child_schema.attribute(name))
        return RelationSchema("π", attrs)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Project({', '.join(c.qualified for c in self.columns)})"


@dataclass(frozen=True, repr=False)
class Product(QueryNode):
    """Cartesian product ``left × right``."""

    left: QueryNode
    right: QueryNode

    def children(self) -> List[QueryNode]:
        return [self.left, self.right]

    def _output_schema(self, db_schema: DatabaseSchema) -> RelationSchema:
        left_schema = self.left.output_schema(db_schema)
        right_schema = self.right.output_schema(db_schema)
        names = set(left_schema.attribute_names) & set(right_schema.attribute_names)
        if names:
            raise QueryError(f"Cartesian product has ambiguous attributes: {sorted(names)}")
        return RelationSchema("×", left_schema.attributes + right_schema.attributes)


@dataclass(frozen=True, repr=False)
class Union(QueryNode):
    """Set union ``left ∪ right`` (union-compatible children)."""

    left: QueryNode
    right: QueryNode

    def children(self) -> List[QueryNode]:
        return [self.left, self.right]

    def _output_schema(self, db_schema: DatabaseSchema) -> RelationSchema:
        left_schema = self.left.output_schema(db_schema)
        right_schema = self.right.output_schema(db_schema)
        if len(left_schema) != len(right_schema):
            raise QueryError("union of queries with different arities")
        return left_schema


@dataclass(frozen=True, repr=False)
class Difference(QueryNode):
    """Set difference ``left − right`` (union-compatible children)."""

    left: QueryNode
    right: QueryNode

    def children(self) -> List[QueryNode]:
        return [self.left, self.right]

    def _output_schema(self, db_schema: DatabaseSchema) -> RelationSchema:
        left_schema = self.left.output_schema(db_schema)
        right_schema = self.right.output_schema(db_schema)
        if len(left_schema) != len(right_schema):
            raise QueryError("difference of queries with different arities")
        return left_schema


@dataclass(frozen=True, repr=False)
class Rename(QueryNode):
    """Renaming ``ρ``: give the child's output attributes new names."""

    child: QueryNode
    mapping: Tuple[Tuple[str, str], ...]  # (old_name, new_name) pairs

    def children(self) -> List[QueryNode]:
        return [self.child]

    def _output_schema(self, db_schema: DatabaseSchema) -> RelationSchema:
        child_schema = self.child.output_schema(db_schema)
        rename_map = dict(self.mapping)
        attrs = [
            Attribute(rename_map.get(a.name, a.name), a.distance)
            for a in child_schema.attributes
        ]
        return RelationSchema(child_schema.name, attrs)


@dataclass(frozen=True, repr=False)
class GroupBy(QueryNode):
    """Aggregation ``gpBy(child, group_columns, agg(agg_column))``.

    The output schema is the group-by columns followed by one aggregate
    column named ``agg(attribute)``; the aggregate column always uses the
    numeric distance (aggregate values are compared by ``|v - v'|``,
    Section 3.2).
    """

    child: QueryNode
    group_columns: Tuple[AttrRef, ...]
    aggregate: AggregateFunction
    agg_column: AttrRef

    def children(self) -> List[QueryNode]:
        return [self.child]

    def _output_schema(self, db_schema: DatabaseSchema) -> RelationSchema:
        child_schema = self.child.output_schema(db_schema)
        attrs = []
        for ref in self.group_columns:
            name = resolve_attribute(child_schema, ref)
            attrs.append(child_schema.attribute(name))
        agg_name = self.aggregate.output_name(self.agg_column.qualified)
        attrs.append(Attribute(agg_name, NUMERIC))
        return RelationSchema("γ", attrs)

    def __repr__(self) -> str:  # pragma: no cover
        cols = ", ".join(c.qualified for c in self.group_columns)
        return f"GroupBy([{cols}], {self.aggregate.value}({self.agg_column.qualified}))"


# -- canonical fingerprints -----------------------------------------------------

def canonical_form(value: object) -> object:
    """A deterministic, hashable, nested-tuple encoding of an AST value.

    Every operator node and predicate operand in a query is a frozen
    dataclass over strings, numbers, enums and tuples, so one structural
    recursion covers the whole tree.  Two queries get the same canonical
    form exactly when they are the same tree — same operators, aliases,
    predicates and constants — regardless of how the objects were built
    (parsed from SQL, constructed programmatically, round-tripped through a
    plan).  Value *types* are part of the encoding (``1`` and ``1.0`` encode
    differently), matching the bit-identity contract of the storage layer.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            (f.name, canonical_form(getattr(value, f.name))) for f in fields(value)
        )
    if isinstance(value, enum.Enum):
        return (type(value).__name__, value.name)
    if isinstance(value, (list, tuple)):
        return tuple(canonical_form(item) for item in value)
    return (type(value).__name__, repr(value))


def transform(value: object, visit: Callable[[object], object]) -> object:
    """``value`` rebuilt top-down through ``visit``.

    ``visit`` returns a replacement for a value, or ``None`` to have the
    value's dataclass fields (or tuple items) transformed instead.  What comes
    back unchanged is the same object, so a tree in which nothing changes is
    returned as it is, with its memoized schema and walk.
    """
    new = visit(value)
    if new is not None:
        return new
    if is_dataclass(value) and not isinstance(value, type):
        changes = {f.name: transform(getattr(value, f.name), visit) for f in fields(value)}
        same = all(new is getattr(value, name) for name, new in changes.items())
        return value if same else replace(value, **changes)
    if isinstance(value, tuple):
        items = tuple(transform(item, visit) for item in value)
        return value if all(a is b for a, b in zip(items, value)) else items
    return value


def query_fingerprint(query: QueryNode) -> str:
    """Canonical hex fingerprint of a query AST.

    The single identity used for query-shaped keying everywhere: the
    serving layer's result cache keys (crossed with α and the database's
    publication epoch), the engine's plan memo keys (crossed with the
    budget) and :attr:`QueryResult.fingerprint` all carry it.  Computed
    from :func:`canonical_form`, so it is stable across processes and
    sessions (no ``id()``/hash-seed dependence) and insensitive to how the
    AST object was produced.
    """
    if not isinstance(query, QueryNode):
        raise QueryError(
            f"query_fingerprint expects a QueryNode, got {type(query).__name__}"
        )
    payload = repr(canonical_form(query)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def check_difference_types(query: QueryNode, db_schema: DatabaseSchema) -> None:
    """Raise :exc:`QueryError` if a set difference pairs a numeric column with a non-numeric one.

    Whether two such rows are ever compared depends on what α fetched, so the
    query must fail before any plan or scan.  Not part of
    :meth:`Difference.output_schema`: callers inspect the children of such
    differences through it (e.g. to drop them from a generated corpus).
    """
    for node in query.walk():
        if isinstance(node, Difference):
            left, right = node.left.output_schema(db_schema), node.right.output_schema(db_schema)
            pairs = zip(left.attributes, right.attributes)
            if any(resolve(a.distance).numeric != resolve(b.distance).numeric for a, b in pairs):
                raise QueryError("difference pairs numeric and non-numeric columns")


# -- attribute resolution -------------------------------------------------------

def resolve_attribute(schema: RelationSchema, ref: AttrRef) -> str:
    """Resolve an :class:`AttrRef` against an output schema.

    Accepts an exact qualified match (``alias.attr``), or an unqualified
    attribute name when it is unambiguous among the schema's attributes.
    The actual matching lives in
    :func:`repro.algebra.predicates.resolve_position` so the row and
    vectorized predicate paths share one implementation.
    """
    return schema.attribute_names[resolve_position(schema, ref)]


def condition_on(schema: RelationSchema, condition: Conjunction) -> Conjunction:
    """Re-resolve every attribute reference in ``condition`` against ``schema``.

    Returns an equivalent condition whose references use the schema's exact
    qualified names — handy before evaluating or relaxing the condition.
    """
    resolved: List[Comparison] = []
    for comparison in condition:
        left = comparison.left
        right = comparison.right
        if isinstance(left, AttrRef):
            left = AttrRef.parse(resolve_attribute(schema, left))
        if isinstance(right, AttrRef):
            right = AttrRef.parse(resolve_attribute(schema, right))
        resolved.append(Comparison(left, comparison.op, right))
    return Conjunction.of(resolved)
