"""Access schemas: collections of access constraints and template families.

An :class:`AccessSchema` bundles, for one database instance:

* **access constraints** — ``R(X → Y, N, 0̄)`` backed by
  :class:`~repro.access.index.ConstraintIndex`, built when the constraint is
  declared (cheap, and where an undersized declared ``N`` is rejected), and
* **template families** — levelled templates ``R(X → Y, 2^k, d̄_k)`` backed by
  :class:`~repro.access.index.TemplateIndex`.  A family is a declaration:
  its index is built over the relation it was declared over the first time
  anything reads it — in practice the first plan that binds the family —
  so set-up pays nothing for families no query reads.
  :meth:`AccessSchema.build_all` builds every family now.

The chase and chAT look up each relation's constraints and families here;
the executor fetches through the schema so every access is metered.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..relational.database import AccessMeter
from ..relational.relation import Relation
from .index import ConstraintIndex, FetchedRow, TemplateIndex
from .template import TemplateSpec


@dataclass
class AccessConstraint:
    """An access constraint plus its physical index."""

    spec: TemplateSpec
    index: ConstraintIndex

    @property
    def relation(self) -> str:
        return self.spec.relation

    def fetch(self, x_value: Sequence[object], meter: Optional[AccessMeter] = None) -> List[FetchedRow]:
        return self.index.fetch(x_value, meter)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"AccessConstraint({self.spec.describe()})"


class TemplateFamily:
    """A family of levelled access templates sharing ``(R, X, Y)``.

    Declared over ``source``, the instance of ``R`` at declaration time; its
    :class:`TemplateIndex` is built over that instance the first time
    anything reads :attr:`index` (``max_level``, a resolution or a fetch),
    exactly once however many threads race to read it.  An instance of ``R``
    installed later is not seen — as if the index had been built up front.
    """

    def __init__(
        self, source: Relation, x: Sequence[str], y: Sequence[str], max_level: Optional[int] = None
    ) -> None:
        self.relation = source.schema.name
        self.x = tuple(x)
        self.y = tuple(y)
        source.schema.positions(self.x + self.y)  # an unknown attribute raises at declaration
        self._max_level = max_level
        self._source: Optional[Relation] = source  # released once the index is built
        self._index: Optional[TemplateIndex] = None
        self._lock = threading.Lock()

    @property
    def built(self) -> bool:
        """Whether :attr:`index` has been built (reading this builds nothing)."""
        return self._index is not None

    @property
    def index(self) -> TemplateIndex:
        """The family's index, built on first read."""
        index = self._index
        if index is None:
            with self._lock:
                index = self._index
                if index is None:
                    index = TemplateIndex(self._source, self.x, self.y, max_level=self._max_level)
                    self._index, self._source = index, None
        return index

    @property
    def max_level(self) -> int:
        return self.index.max_level

    def spec_at(self, level: int) -> TemplateSpec:
        return self.index.level_spec(level)

    def resolution(self, level: int) -> Dict[str, float]:
        return self.index.resolution(level)

    def resolution_of(self, level: int, attribute: str) -> float:
        return self.index.resolution_of(level, attribute)

    def fetch(
        self, x_value: Sequence[object], level: int, meter: Optional[AccessMeter] = None
    ) -> List[FetchedRow]:
        return self.index.fetch(x_value, level, meter)

    def __repr__(self) -> str:
        levels = f"0..{self._index.max_level}" if self._index is not None else "unbuilt"
        return f"TemplateFamily({self.relation}: {self.x or '∅'} -> {self.y}, {levels})"


class AccessSchema:
    """A set of access constraints and template families over one database."""

    def __init__(
        self,
        constraints: Optional[Sequence[AccessConstraint]] = None,
        families: Optional[Sequence[TemplateFamily]] = None,
    ) -> None:
        self.constraints: List[AccessConstraint] = list(constraints or [])
        self.families: List[TemplateFamily] = list(families or [])

    # -- construction helpers -----------------------------------------------------
    def add_constraint(self, constraint: AccessConstraint) -> None:
        self.constraints.append(constraint)

    def add_family(self, family: TemplateFamily) -> None:
        self.families.append(family)

    def merge(self, other: "AccessSchema") -> "AccessSchema":
        """A new schema with the constraints and families of both."""
        return AccessSchema(self.constraints + other.constraints, self.families + other.families)

    # -- lookups used by the chase / chAT ------------------------------------------
    def constraints_for(self, relation: str) -> List[AccessConstraint]:
        return [c for c in self.constraints if c.relation == relation]

    def families_for(self, relation: str) -> List[TemplateFamily]:
        return [f for f in self.families if f.relation == relation]

    def build_all(self) -> None:
        """Build every family's index now, for callers that want eager set-up
        (a timed experiment, so that no measured plan pays for a build)."""
        for family in self.families:
            family.index

    # -- counting / size ------------------------------------------------------------
    @property
    def cardinality(self) -> int:
        """``||A||`` — number of constraints plus number of distinct templates (builds every family)."""
        return len(self.constraints) + sum(f.max_level + 1 for f in self.families)

    def index_entry_counts(self) -> Dict[str, int]:
        """Index sizes in entries, split by constraint vs template indexes (builds every family)."""
        return {
            "constraints": sum(c.index.entry_count for c in self.constraints),
            "templates": sum(f.index.entry_count for f in self.families),
        }

    def total_index_entries(self) -> int:
        counts = self.index_entry_counts()
        return counts["constraints"] + counts["templates"]

    def describe(self) -> str:
        """Multi-line human-readable summary of the schema (builds every family)."""
        lines = [f"AccessSchema: {len(self.constraints)} constraints, {len(self.families)} template families"]
        for constraint in self.constraints:
            lines.append(f"  {constraint.spec.describe()}")
        for family in self.families:
            top = family.spec_at(family.max_level)
            lines.append(
                f"  {family.relation}({','.join(family.x) or '∅'} -> {','.join(family.y)}, "
                f"2^0..2^{family.max_level}) max-res={top.max_resolution():g}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        unbuilt = sum(not family.built for family in self.families)
        size = f"{unbuilt} unbuilt" if unbuilt else f"||A||={self.cardinality}"
        return f"AccessSchema({len(self.constraints)} constraints, {len(self.families)} families, {size})"
