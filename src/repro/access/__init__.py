"""Access schemas: templates, constraints, physical indexes and builders."""

from .builder import AccessSchemaBuilder, ConstraintSpec, FamilySpec
from .index import ConstraintIndex, TemplateIndex
from .schema import AccessConstraint, AccessSchema, TemplateFamily
from .template import TemplateSpec

__all__ = [
    "AccessConstraint",
    "AccessSchema",
    "AccessSchemaBuilder",
    "ConstraintIndex",
    "ConstraintSpec",
    "FamilySpec",
    "TemplateFamily",
    "TemplateIndex",
    "TemplateSpec",
]
