"""Access templates and access constraints (Section 2.1).

An access template ``ψ = R(X → Y, N, d̄_Y)`` promises that for every
``X``-value ``ā`` there is an indexed set of at most ``N`` distinct tuples
that represents all ``Y``-values associated with ``ā`` within per-attribute
resolution ``d̄_Y``.  An *access constraint* is the special case ``d̄_Y = 0``
(the index returns the exact ``Y``-values), which is the notion of
[Fan et al., bounded evaluation].

These classes are purely *logical* descriptions; the physical indexes that
realise them live in :mod:`repro.access.index`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Tuple

from ..errors import AccessSchemaError


@dataclass(frozen=True)
class TemplateSpec:
    """The logical shape of an access template: ``R(X → Y, N, d̄_Y)``.

    Attributes:
        relation: name of the relation ``R``.
        x: the input attributes ``X`` (may be empty).
        y: the output attributes ``Y``.
        n: the cardinality bound ``N``.
        resolution: the resolution tuple ``d̄_Y`` mapping each ``Y`` attribute
            to its maximum representation error.
    """

    relation: str
    x: Tuple[str, ...]
    y: Tuple[str, ...]
    n: int
    resolution: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise AccessSchemaError(f"cardinality bound N must be positive, got {self.n}")
        if not self.y:
            raise AccessSchemaError("access template must output at least one attribute")
        overlap = set(self.x) & set(self.y)
        if overlap:
            raise AccessSchemaError(f"X and Y attributes overlap: {sorted(overlap)}")
        missing = [a for a in self.y if a not in self.resolution]
        if missing:
            # Default missing resolutions to exact (0).
            object.__setattr__(
                self,
                "resolution",
                {**{a: 0.0 for a in self.y}, **dict(self.resolution)},
            )

    @property
    def is_constraint(self) -> bool:
        """True when ``d̄_Y = 0̄`` — i.e. the template is an access constraint."""
        return all(v == 0 for v in self.resolution.values())

    def max_resolution(self) -> float:
        """``d̄^m`` — the largest per-attribute resolution of the template."""
        return max(self.resolution.values(), default=0.0)

    def resolution_of(self, attribute: str) -> float:
        """Resolution on one output attribute (0 for attributes not in Y)."""
        return float(self.resolution.get(attribute, 0.0))

    def describe(self) -> str:
        """Human-readable form, e.g. ``poi({type,city} -> {price,address}, 8)``."""
        x = "{" + ",".join(self.x) + "}" if self.x else "∅"
        y = "{" + ",".join(self.y) + "}"
        kind = "constraint" if self.is_constraint else "template"
        return f"{self.relation}({x} -> {y}, N={self.n}) [{kind}]"

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"TemplateSpec({self.describe()})"
