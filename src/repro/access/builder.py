"""Construction of access schemas over a database instance.

:class:`AccessSchemaBuilder` builds:

* the canonical schema ``A_t`` of the Approximability Theorem — for every
  relation ``R`` a levelled template family ``R(∅ → attr(R), 2^k, d̄_k)``
  realised by a K-D tree over ``D_R`` (Section 4.1);
* user-declared access constraints ``R(X → Y, N, 0̄)`` (the paper picks 7–12
  per dataset, e.g. ``friend(pid → fid, 5000, 0)``);
* for every declared constraint, the derived template families
  ``R(X∪Y → Z, 2^i, d̄_i)`` with ``Z = attr(R) \\ (X∪Y)`` used in the
  experiments (Section 8, "Access schema").

The result is an :class:`~repro.access.schema.AccessSchema` that subsumes
``A_t``, the precondition of the BEAS algorithms.  Building it builds the
constraint indexes (cheap hash tables, and where an undersized declared
``N`` is rejected) but no template index: each family is declared over the
current instance of its relation and builds its K-D trees the first time a
plan binds it (:class:`~repro.access.schema.TemplateFamily`).
:meth:`~repro.access.schema.AccessSchema.build_all` builds them all at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..errors import AccessSchemaError
from ..relational.database import Database
from .index import ConstraintIndex
from .schema import AccessConstraint, AccessSchema, TemplateFamily


@dataclass(frozen=True)
class ConstraintSpec:
    """Declarative description of an access constraint to build.

    ``n`` may be omitted; the builder then measures the actual maximum group
    size from the data (the constraint is tight).
    """

    relation: str
    x: Tuple[str, ...]
    y: Tuple[str, ...]
    n: Optional[int] = None


@dataclass(frozen=True)
class FamilySpec:
    """Declarative description of a template family ``R(X → Y, 2^k, d̄_k)``."""

    relation: str
    x: Tuple[str, ...]
    y: Tuple[str, ...]
    max_level: Optional[int] = None


class AccessSchemaBuilder:
    """Builds access schemas (including the canonical ``A_t``) for a database."""

    def __init__(self, database: Database, max_level: Optional[int] = None) -> None:
        self.database = database
        self.max_level = max_level

    # -- canonical schema ---------------------------------------------------------
    def build_canonical(self) -> AccessSchema:
        """``A_t``: one whole-relation template family per relation (unbuilt)."""
        families = []
        for relation_name in self.database.relation_names:
            relation = self.database.relation(relation_name)
            if len(relation) == 0:
                continue
            attributes = relation.schema.attribute_names
            families.append(TemplateFamily(relation, x=(), y=attributes, max_level=self.max_level))
        return AccessSchema(families=families)

    # -- declared constraints and derived templates ----------------------------------
    def build_constraint(self, spec: ConstraintSpec) -> AccessConstraint:
        relation = self.database.relation(spec.relation)
        index = ConstraintIndex(relation, spec.x, spec.y)
        declared_n = spec.n if spec.n is not None else index.n
        if declared_n < index.n:
            raise AccessSchemaError(
                f"declared N={declared_n} for {spec.relation}({spec.x} -> {spec.y}) "
                f"is smaller than the actual maximum group size {index.n}; "
                f"the database would not conform to the constraint"
            )
        return AccessConstraint(spec=index.spec(declared_n), index=index)

    def build_family(self, spec: FamilySpec) -> TemplateFamily:
        """The family ``spec`` declares, over the current instance of its relation (unbuilt)."""
        return TemplateFamily(
            self.database.relation(spec.relation),
            x=spec.x,
            y=spec.y,
            max_level=spec.max_level if spec.max_level is not None else self.max_level,
        )

    def derived_family_spec(self, spec: ConstraintSpec) -> Optional[FamilySpec]:
        """The family ``R(X∪Y → Z, 2^i, d̄_i)`` derived from a constraint.

        Returns ``None`` when ``Z = attr(R) \\ (X∪Y)`` is empty (the
        constraint already covers every attribute).
        """
        schema = self.database.schema.relation(spec.relation)
        covered = set(spec.x) | set(spec.y)
        z = tuple(a for a in schema.attribute_names if a not in covered)
        if not z:
            return None
        return FamilySpec(relation=spec.relation, x=spec.x + spec.y, y=z, max_level=self.max_level)

    # -- full build --------------------------------------------------------------------
    def build(
        self,
        constraints: Sequence[ConstraintSpec] = (),
        families: Sequence[FamilySpec] = (),
        include_canonical: bool = True,
        derive_from_constraints: bool = True,
    ) -> AccessSchema:
        """Build a complete access schema.

        Args:
            constraints: user-declared access constraints.
            families: additional template families to declare.
            include_canonical: include the canonical ``A_t`` (required by the
                BEAS algorithms; disable only for focused unit tests).
            derive_from_constraints: also declare the ``R(X∪Y → Z, 2^i, d̄_i)``
                families the paper derives from every declared constraint.
        """
        schema = AccessSchema()
        for constraint_spec in constraints:
            schema.add_constraint(self.build_constraint(constraint_spec))
            if derive_from_constraints:
                derived = self.derived_family_spec(constraint_spec)
                if derived is not None:
                    schema.add_family(self.build_family(derived))
        for family_spec in families:
            schema.add_family(self.build_family(family_spec))
        if include_canonical:
            schema = schema.merge(self.build_canonical())
        return schema
