"""Access schemas: collections of access constraints and template families.

An :class:`AccessSchema` bundles, for one database instance:

* **access constraints** — ``R(X → Y, N, 0̄)`` backed by
  :class:`~repro.access.index.ConstraintIndex`, and
* **template families** — levelled templates ``R(X → Y, 2^k, d̄_k)`` backed by
  :class:`~repro.access.index.TemplateIndex`.

The chase and chAT query the schema for templates *applicable* to a relation
given the set of attributes already covered; the executor fetches through the
schema so every access is metered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..relational.database import AccessMeter, Database
from .index import ConstraintIndex, FetchedRow, TemplateIndex
from .template import TemplateSpec, conforms


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


@dataclass
class TemplateFamily:
    """A family of levelled access templates sharing ``(R, X, Y)``."""

    relation: str
    x: Tuple[str, ...]
    y: Tuple[str, ...]
    index: TemplateIndex

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

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"TemplateFamily({self.relation}: {self.x or '∅'} -> {self.y}, 0..{self.max_level})"


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

    def applicable_constraints(
        self, relation: str, available: Iterable[str]
    ) -> List[AccessConstraint]:
        """Constraints on ``relation`` whose ``X`` is contained in ``available``."""
        available_set = set(available)
        return [
            c for c in self.constraints_for(relation) if set(c.spec.x) <= available_set
        ]

    def applicable_families(self, relation: str, available: Iterable[str]) -> List[TemplateFamily]:
        """Template families on ``relation`` whose ``X`` is contained in ``available``."""
        available_set = set(available)
        return [f for f in self.families_for(relation) if set(f.x) <= available_set]

    def whole_relation_family(self, relation: str) -> Optional[TemplateFamily]:
        """The canonical ``R(∅ → attr(R), 2^k, d̄_k)`` family, if present."""
        for family in self.families_for(relation):
            if not family.x:
                return family
        return None

    # -- counting / size ------------------------------------------------------------
    @property
    def cardinality(self) -> int:
        """``||A||`` — number of constraints plus number of distinct templates."""
        return len(self.constraints) + sum(f.max_level + 1 for f in self.families)

    def distinct_template_groups(self) -> int:
        """Templates grouped by their X and Y attribute sets (as reported in Exp setup)."""
        groups = {(c.spec.relation, c.spec.x, c.spec.y) for c in self.constraints}
        groups |= {(f.relation, f.x, f.y) for f in self.families}
        return len(groups)

    def index_entry_counts(self) -> Dict[str, int]:
        """Index sizes in entries, split by constraint vs template indexes."""
        return {
            "constraints": sum(c.index.entry_count for c in self.constraints),
            "templates": sum(f.index.entry_count for f in self.families),
        }

    def total_index_entries(self) -> int:
        counts = self.index_entry_counts()
        return counts["constraints"] + counts["templates"]

    # -- conformance -------------------------------------------------------------------
    def check_conformance(self, database: Database, sample_levels: Sequence[int] = (0,)) -> bool:
        """Verify ``D |= A`` by checking every constraint and sampled template levels.

        Constraint indexes conform by construction (they return the exact
        values), so the interesting part is the template families: at each
        requested level we verify the cardinality bound and the resolution
        guarantee against the base relation.
        """
        for constraint in self.constraints:
            relation = database.relation(constraint.relation)
            fetched = {
                key: [row[len(constraint.spec.x):] for row, _ in constraint.fetch(key)]
                for key in constraint.index.keys()
            }
            if not conforms(relation, constraint.spec, fetched):
                return False
        for family in self.families:
            relation = database.relation(family.relation)
            for level in sample_levels:
                level = min(level, family.max_level)
                spec = family.spec_at(level)
                fetched = {
                    key: [row[len(family.x):] for row, _ in family.fetch(key, level)]
                    for key in family.index.keys()
                }
                if not conforms(relation, spec, fetched):
                    return False
        return True

    def describe(self) -> str:
        """Multi-line human-readable summary of the schema."""
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

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"AccessSchema({len(self.constraints)} constraints, "
            f"{len(self.families)} families, ||A||={self.cardinality})"
        )
