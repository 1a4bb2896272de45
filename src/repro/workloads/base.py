"""Common infrastructure for workload (dataset) generators.

Each workload module builds a :class:`Workload`: a synthetic database whose
schema shape, key/foreign-key structure, value distributions and skew mimic
one of the paper's datasets (TPC-H, AIRCA, TFACC) at laptop scale, together
with

* the access constraints and template families the experiments declare over
  it (Section 8, "Access schema"), and
* metadata the random query generator needs: which attribute pairs are
  joinable, which attributes are categorical vs numeric, and sample values.

Numeric attributes use distances scaled by the attribute's value range so
that tuple distances (and hence RC / MAC accuracies) are comparable across
attributes and datasets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..access.builder import ConstraintSpec, FamilySpec
from ..relational.database import Database


@dataclass(frozen=True)
class JoinEdge:
    """A joinable attribute pair between two relations (key / foreign key)."""

    left_relation: str
    left_attribute: str
    right_relation: str
    right_attribute: str


@dataclass(frozen=True)
class AttributeInfo:
    """Query-generation metadata for one attribute."""

    relation: str
    attribute: str
    kind: str  # "numeric" | "categorical" | "key"
    sample_values: Tuple[object, ...] = ()
    low: Optional[float] = None
    high: Optional[float] = None


@dataclass
class Workload:
    """A generated dataset plus its access schema and query-generation metadata."""

    name: str
    database: Database
    constraints: List[ConstraintSpec] = field(default_factory=list)
    families: List[FamilySpec] = field(default_factory=list)
    join_edges: List[JoinEdge] = field(default_factory=list)
    attributes: List[AttributeInfo] = field(default_factory=list)

    def numeric_attributes(self, relation: Optional[str] = None) -> List[AttributeInfo]:
        return [
            a
            for a in self.attributes
            if a.kind == "numeric" and (relation is None or a.relation == relation)
        ]

    def categorical_attributes(self, relation: Optional[str] = None) -> List[AttributeInfo]:
        return [
            a
            for a in self.attributes
            if a.kind == "categorical" and (relation is None or a.relation == relation)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Workload({self.name}, |D|={self.database.total_tuples}, "
            f"{len(self.constraints)} constraints, {len(self.families)} families)"
        )


def sample_values(values: Sequence[object], rng: random.Random, count: int = 12) -> Tuple[object, ...]:
    """A small deterministic sample of distinct attribute values."""
    distinct = sorted(set(values), key=repr)
    if len(distinct) <= count:
        return tuple(distinct)
    return tuple(rng.sample(distinct, count))


def numeric_bounds(values: Sequence[object]) -> Tuple[float, float]:
    """Numeric (low, high) bounds of a value sequence (0, 1 when empty)."""
    numeric = [float(v) for v in values if isinstance(v, (int, float))]
    if not numeric:
        return 0.0, 1.0
    return min(numeric), max(numeric)
