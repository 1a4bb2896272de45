"""Relation and database schemas.

A :class:`RelationSchema` names a relation and its attributes; each attribute
carries a distance function (see :mod:`repro.relational.distance`).  A
:class:`DatabaseSchema` is a collection of relation schemas, mirroring the
paper's ``R = (R1, ..., Rn)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import SchemaError
from .distance import DistanceFunction, NUMERIC, TRIVIAL


@dataclass(frozen=True)
class Attribute:
    """A single attribute of a relation schema.

    Attributes:
        name: attribute name, unique within its relation.
        distance: distance function ``dis_A``; defaults to the trivial
            distance (identifiers, categorical values).
    """

    name: str
    distance: DistanceFunction = TRIVIAL

    @property
    def numeric(self) -> bool:
        """Whether the attribute is treated as a numeric KD-tree axis."""
        return self.distance.numeric

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Attribute({self.name!r}, {self.distance.name})"


def numeric_attribute(name: str, distance: Optional[DistanceFunction] = None) -> Attribute:
    """Convenience constructor for a numeric attribute."""
    return Attribute(name, distance or NUMERIC)


def key_attribute(name: str) -> Attribute:
    """Convenience constructor for an identifier attribute (trivial distance)."""
    return Attribute(name, TRIVIAL)


class RelationSchema:
    """Schema of one relation ``R(A1, ..., Ah)``.

    The attribute order is significant: tuples of the relation are plain
    Python tuples positionally aligned with ``attributes``.
    """

    def __init__(self, name: str, attributes: Sequence[Attribute]) -> None:
        if not name:
            raise SchemaError("relation name must be non-empty")
        if not attributes:
            raise SchemaError(f"relation {name!r} must have at least one attribute")
        names = [a.name for a in attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"relation {name!r} has duplicate attribute names: {names}")
        self.name = name
        self.attributes: Tuple[Attribute, ...] = tuple(attributes)
        #: Names of all attributes, in schema order.
        self.attribute_names: Tuple[str, ...] = tuple(names)
        self._index: Dict[str, int] = {a: i for i, a in enumerate(names)}

    # -- basic accessors -------------------------------------------------

    def __len__(self) -> int:
        return len(self.attributes)

    def __contains__(self, attribute_name: str) -> bool:
        return attribute_name in self._index

    def position(self, attribute_name: str) -> int:
        """Index of ``attribute_name`` within the schema (raises if absent)."""
        try:
            return self._index[attribute_name]
        except KeyError:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {attribute_name!r}; "
                f"available: {list(self.attribute_names)}"
            ) from None

    def positions(self, attribute_names: Iterable[str]) -> List[int]:
        """Indexes of several attributes, in the order given."""
        return [self.position(a) for a in attribute_names]

    def attribute(self, attribute_name: str) -> Attribute:
        """The :class:`Attribute` object named ``attribute_name``."""
        return self.attributes[self.position(attribute_name)]

    def distance(self, attribute_name: str) -> DistanceFunction:
        """Distance function of ``attribute_name``."""
        return self.attribute(attribute_name).distance

    def project(self, attribute_names: Sequence[str], name: Optional[str] = None) -> "RelationSchema":
        """A new schema with only ``attribute_names`` (in the given order)."""
        attrs = [self.attribute(a) for a in attribute_names]
        return RelationSchema(name or self.name, attrs)

    def rename(self, new_name: str) -> "RelationSchema":
        """A copy of this schema under a different relation name."""
        return RelationSchema(new_name, self.attributes)

    # -- dunder helpers ---------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationSchema):
            return NotImplemented
        return self.name == other.name and self.attributes == other.attributes

    def __hash__(self) -> int:
        return hash((self.name, self.attributes))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        cols = ", ".join(self.attribute_names)
        return f"RelationSchema({self.name}({cols}))"


class DatabaseSchema:
    """A collection of relation schemas ``R = (R1, ..., Rn)``."""

    def __init__(self, relations: Sequence[RelationSchema]) -> None:
        names = [r.name for r in relations]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate relation names in database schema: {names}")
        self._relations: Dict[str, RelationSchema] = {r.name: r for r in relations}

    @property
    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self._relations)

    def __contains__(self, relation_name: str) -> bool:
        return relation_name in self._relations

    def __iter__(self):
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def relation(self, relation_name: str) -> RelationSchema:
        """The schema of ``relation_name`` (raises if unknown)."""
        try:
            return self._relations[relation_name]
        except KeyError:
            raise SchemaError(
                f"unknown relation {relation_name!r}; available: {list(self._relations)}"
            ) from None

    def add(self, relation: RelationSchema) -> None:
        """Register an additional relation schema."""
        if relation.name in self._relations:
            raise SchemaError(f"relation {relation.name!r} already defined")
        self._relations[relation.name] = relation

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"DatabaseSchema({', '.join(self.relation_names)})"


def build_schema(spec: Mapping[str, Sequence[Tuple[str, Optional[DistanceFunction]]]]) -> DatabaseSchema:
    """Build a :class:`DatabaseSchema` from a compact mapping spec.

    ``spec`` maps relation name to a sequence of ``(attribute, distance)``
    pairs, where ``distance`` may be ``None`` for the trivial distance.

    Example::

        build_schema({
            "poi": [("address", STRING_PREFIX), ("type", None),
                    ("city", None), ("price", NUMERIC)],
        })
    """
    relations = []
    for rel_name, columns in spec.items():
        attrs = [Attribute(col, dist if dist is not None else TRIVIAL) for col, dist in columns]
        relations.append(RelationSchema(rel_name, attrs))
    return DatabaseSchema(relations)
