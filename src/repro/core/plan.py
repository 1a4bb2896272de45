"""Bounded query plans (Section 2.2) in canonical form ``ξ_α = (ξ_F, ξ_E)``.

A bounded plan consists of

* a **fetching plan** ``ξ_F`` — a sequence of :class:`FetchStep`, each a
  ``fetch(X ∈ T, R, Y, ψ)`` operation that retrieves, for every ``X``-value
  produced by earlier steps (or constants from the query), at most ``N``
  representative tuples through the index of an access constraint or
  template; and
* an **evaluation plan** ``ξ_E`` — the query's own relational operators,
  executed over the fetched data with selections relaxed by the resolutions
  of the templates used (implemented by the executor).

The *tariff* of a fetching plan is the worst-case number of tuples it can
access, deduced purely from the ``N`` constants of the accessors used — no
data access is needed to compute it, which is what lets BEAS promise
``tariff(ξ_F) <= α·|D|`` before touching ``D``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..access.schema import AccessConstraint, TemplateFamily
from ..errors import PlanError


@dataclass
class Accessor:
    """The access constraint or (levelled) access template a fetch step uses.

    Exactly one of ``constraint`` / ``family`` is set.  For families the
    current ``level`` selects the template ``R(X → Y, 2^level, d̄_level)``;
    chAT upgrades the level to trade budget for resolution.
    """

    constraint: Optional[AccessConstraint] = None
    family: Optional[TemplateFamily] = None
    level: int = 0

    def __post_init__(self) -> None:
        if (self.constraint is None) == (self.family is None):
            raise PlanError("an accessor must wrap exactly one constraint or template family")

    @property
    def is_constraint(self) -> bool:
        return self.constraint is not None

    @property
    def relation(self) -> str:
        return self.constraint.relation if self.constraint else self.family.relation

    @property
    def x(self) -> Tuple[str, ...]:
        return self.constraint.spec.x if self.constraint else self.family.x

    @property
    def y(self) -> Tuple[str, ...]:
        return self.constraint.spec.y if self.constraint else self.family.y

    @property
    def n(self) -> int:
        """The cardinality bound ``N`` of the accessor at its current level."""
        return self.n_at(self.level)

    def n_at(self, level: int) -> int:
        """The cardinality bound ``N`` the accessor would have at ``level``."""
        if self.constraint:
            return self.constraint.spec.n
        return 2 ** min(level, self.family.max_level)

    @property
    def max_level(self) -> int:
        return 0 if self.constraint else self.family.max_level

    def can_upgrade(self) -> bool:
        """Whether a higher-resolution template level is available."""
        return self.family is not None and self.level < self.family.max_level

    def resolution_of(self, attribute: str, level: Optional[int] = None) -> float:
        """Resolution on one fetched attribute (0 for constraints / X attrs).

        ``level`` defaults to the accessor's current level; chAT passes the
        level a candidate upgrade would reach.
        """
        if self.constraint or attribute in self.family.x:
            return 0.0
        return float(self.family.resolution_of(self.level if level is None else level, attribute))

    def resolution(self) -> Dict[str, float]:
        """Resolutions of all Y attributes."""
        if self.constraint:
            return {a: 0.0 for a in self.y}
        return dict(self.family.resolution(self.level))

    @property
    def is_exact(self) -> bool:
        """Whether this accessor fetches values with zero error."""
        if self.constraint:
            return True
        return all(v == 0.0 for v in self.family.resolution(self.level).values())

    def fetch(self, x_value: Sequence[object], meter=None):
        """Fetch the sample for one ``X``-value (delegates to the index)."""
        if self.constraint:
            return self.constraint.fetch(x_value, meter)
        return self.family.fetch(x_value, self.level, meter)

    def fetch_columns(self, x_values, meter=None):
        """Fetch the samples of a batch of ``X``-values, column-wise.

        One value list per ``X ∪ Y`` attribute plus the represented-tuple
        counts (see :meth:`repro.access.index.ConstraintIndex.fetch_columns`).
        """
        if self.constraint:
            return self.constraint.index.fetch_columns(x_values, meter)
        return self.family.index.fetch_columns(x_values, self.level, meter)

    def describe(self) -> str:
        if self.constraint:
            return self.constraint.spec.describe()
        return self.family.spec_at(self.level).describe()

    def copy(self) -> "Accessor":
        return Accessor(constraint=self.constraint, family=self.family, level=self.level)


@dataclass(frozen=True)
class FetchSource:
    """Where one ``X``-attribute value of a fetch step comes from.

    Either a constant from the query (``kind="const"``) or a column of an
    earlier fetch step's output (``kind="column"``).
    """

    attribute: str
    kind: str
    value: object = None
    step: Optional[str] = None
    column: Optional[str] = None

    @classmethod
    def constant(cls, attribute: str, value: object) -> "FetchSource":
        return cls(attribute=attribute, kind="const", value=value)

    @classmethod
    def from_step(cls, attribute: str, step: str, column: str) -> "FetchSource":
        return cls(attribute=attribute, kind="column", step=step, column=column)

    def __str__(self) -> str:  # pragma: no cover - debug helper
        if self.kind == "const":
            return f"{self.attribute}={self.value!r}"
        return f"{self.attribute}∈{self.step}.{self.column}"


@dataclass
class FetchStep:
    """One ``fetch(X ∈ T, R, Y, ψ)`` operation of a fetching plan."""

    name: str
    alias: str
    relation: str
    accessor: Accessor
    sources: Tuple[FetchSource, ...]

    @property
    def output_columns(self) -> Tuple[str, ...]:
        """Qualified columns of the step's result table: X then Y attributes."""
        return tuple(f"{self.alias}.{a}" for a in self.accessor.x + self.accessor.y)

    def describe(self) -> str:
        sources = ", ".join(str(s) for s in self.sources) or "∅"
        return f"{self.name} = fetch({sources}; {self.accessor.describe()}) -> atom {self.alias}"

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"FetchStep({self.describe()})"


def size_bounds(producers: Sequence[Tuple[int, ...]], ns: Sequence[int]) -> List[int]:
    """Upper bound of every step's output size, given each step's cardinality bound ``N``.

    A step is fed at most the product of its producers' (already bounded)
    output sizes — sources drawn from the same producing step are counted
    once, their combinations cannot exceed that step's row bound — and
    returns at most ``N`` tuples per input.  The tariff is the sum.
    """
    sizes: List[int] = []
    for earlier, n in zip(producers, ns):
        inputs = 1
        for producer in earlier:
            inputs *= max(1, sizes[producer])
        sizes.append(inputs * n)
    return sizes


@dataclass
class FetchPlan:
    """An ordered sequence of fetch steps (the fetching plan ``ξ_F``)."""

    steps: List[FetchStep] = field(default_factory=list)

    def __iter__(self):
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def step(self, name: str) -> FetchStep:
        for step in self.steps:
            if step.name == name:
                return step
        raise PlanError(f"no fetch step named {name!r}")

    def steps_for(self, alias: str) -> List[FetchStep]:
        """All steps fetching data for one query atom."""
        return [step for step in self.steps if step.alias == alias]

    def aliases(self) -> List[str]:
        seen: Dict[str, None] = {}
        for step in self.steps:
            seen.setdefault(step.alias, None)
        return list(seen)

    # -- tariff --------------------------------------------------------------
    def producers(self) -> List[Tuple[int, ...]]:
        """Per step, the positions of the distinct earlier steps its column sources read.

        This is the plan's whole dependency structure as far as the tariff is
        concerned; it does not depend on template levels, so chAT derives it
        once and re-prices candidate levels with :func:`size_bounds`.
        Constants feed a step exactly one ``X``-value and so have no entry;
        a source naming a step that is not earlier in the plan bounds nothing.
        """
        position: Dict[str, int] = {}
        producers: List[Tuple[int, ...]] = []
        for index, step in enumerate(self.steps):
            earlier: List[int] = []
            for source in step.sources:
                producer = position.get(source.step) if source.kind != "const" else None
                if producer is not None and producer not in earlier:
                    earlier.append(producer)
            producers.append(tuple(earlier))
            position[step.name] = index
        return producers

    def _size_bounds(self) -> List[int]:
        return size_bounds(self.producers(), [step.accessor.n for step in self.steps])

    def output_size_bounds(self) -> Dict[str, int]:
        """Upper bound of every step's output size, in plan order."""
        return {step.name: size for step, size in zip(self.steps, self._size_bounds())}

    def tariff(self) -> int:
        """Worst-case number of tuples the plan can access (Section 5)."""
        return sum(self._size_bounds())

    def resolution_map(self) -> Dict[str, float]:
        """Per qualified attribute, the worst resolution it was fetched with.

        Attributes fetched by several steps keep the worst (largest) value so
        the derived relaxations and accuracy bounds stay sound.
        """
        resolutions: Dict[str, float] = {}
        for step in self.steps:
            for attribute in step.accessor.x + step.accessor.y:
                qualified = f"{step.alias}.{attribute}"
                value = step.accessor.resolution_of(attribute)
                if qualified not in resolutions or value > resolutions[qualified]:
                    resolutions[qualified] = value
        return resolutions

    def is_exact(self) -> bool:
        """Whether every fetch uses an exact accessor (resolution 0 everywhere)."""
        return all(step.accessor.is_exact for step in self.steps)

    def uses_constraints_only(self) -> bool:
        """Whether the plan is a *bounded-evaluation* plan (constraints only)."""
        return all(step.accessor.is_constraint for step in self.steps)

    def describe(self) -> str:
        return "\n".join(step.describe() for step in self.steps)

    def copy(self) -> "FetchPlan":
        steps = [
            FetchStep(
                name=s.name,
                alias=s.alias,
                relation=s.relation,
                accessor=s.accessor.copy(),
                sources=s.sources,
            )
            for s in self.steps
        ]
        return FetchPlan(steps=steps)


@dataclass
class BoundedPlan:
    """A complete α-bounded plan: fetching plan + metadata for evaluation.

    Plans are shared and read-only after planning: :class:`Beas` memoises
    one per query and budget and hands the same object to every caller.

    Attributes:
        query: the query AST the plan answers.
        fetch_plan: the fetching plan ``ξ_F`` (already budget-constrained).
        budget: the access budget ``⌊α·|D|⌋`` the plan was generated for.
        eta: the deterministic accuracy lower bound deduced for the plan.
        constants: tableau constants per atom attribute, used to reconstruct
            attribute values the fetch steps did not need to retrieve.
        needed_attributes: per atom, the attributes the query uses (the
            evaluation plan restricts each atom to these).
    """

    query: object
    fetch_plan: FetchPlan
    budget: int
    eta: float
    constants: Dict[str, Dict[str, object]] = field(default_factory=dict)
    needed_attributes: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def tariff(self) -> int:
        return self.fetch_plan.tariff()

    @property
    def exact(self) -> bool:
        return self.fetch_plan.is_exact()

    @property
    def boundedly_evaluable(self) -> bool:
        return self.fetch_plan.uses_constraints_only()

    def resolution_map(self) -> Dict[str, float]:
        return self.fetch_plan.resolution_map()

    def describe(self) -> str:
        lines = [
            f"BoundedPlan(budget={self.budget}, tariff={self.tariff}, eta={self.eta:.4f}, "
            f"exact={self.exact})",
            self.fetch_plan.describe(),
        ]
        return "\n".join(lines)
