"""Deriving fetching plans ``ξ_F`` from chasing sequences (Section 5, step 1).

Each chase step that is read maps onto a :class:`~repro.core.plan.FetchStep`:
the accessor is carried over, and the accessor's ``X``-attributes become
fetch *sources* — constants of the query, or columns of the earlier step
that covered the shared variable (recorded by the chase as the variable's
producer).  The chase's frame steps carry over as the plan's ``frames``.

Only the steps that are *read* are kept: atoms' frame steps, and the steps
a kept step draws ``X``-values from.  The others (phase-1 steps that phase 2
replaced with a frame) are neither fetched nor charged.  That is sound: a
dropped step has no reader, so no atom's relation and no ``X``-value depends
on what it would fetch.  Kept steps keep their chase names, so a plan's
description shows the gap.
"""

from __future__ import annotations

from typing import Dict, List

from ..algebra.tableau import Constant, Tableau, Variable
from ..errors import PlanError
from .chase import ChaseResult, ChaseStep
from .plan import FetchPlan, FetchSource, FetchStep


def fetch_plan_from_chase(tableau: Tableau, result: ChaseResult) -> FetchPlan:
    """Translate a chasing sequence into a fetching plan of the steps that are read."""
    steps: List[FetchStep] = []
    for chase_step in result.steps:
        sources = tuple(
            _source_for(chase_step, attribute, term, result)
            for attribute, term in chase_step.input_terms.items()
        )
        steps.append(
            FetchStep(
                name=chase_step.name,
                alias=chase_step.alias,
                relation=chase_step.relation,
                accessor=chase_step.accessor,
                sources=sources,
            )
        )
    # A step can read only earlier steps (the executor refuses one that reads
    # ahead), so one backward walk finds every step that is read.
    read = set(result.frames.values())
    for step in reversed(steps):
        if step.name in read:
            read.update(source.step for source in step.sources if source.kind == "column")
    return FetchPlan(steps=[step for step in steps if step.name in read], frames=dict(result.frames))


def _source_for(chase_step: ChaseStep, attribute: str, term, result: ChaseResult) -> FetchSource:
    if isinstance(term, Constant):
        return FetchSource.constant(attribute, term.value)
    if isinstance(term, Variable):
        producer = result.variable_producer.get(term)
        if producer is None:
            raise PlanError(
                f"fetch step {chase_step.name} needs variable {term} for attribute "
                f"{attribute!r} but no earlier step produced it"
            )
        producer_step, producer_alias, producer_attribute = producer
        if producer_step == chase_step.name:
            raise PlanError(
                f"fetch step {chase_step.name} would read variable {term} from itself"
            )
        return FetchSource.from_step(
            attribute, producer_step, f"{producer_alias}.{producer_attribute}"
        )
    raise PlanError(f"unsupported tableau term {term!r}")


def atom_constants(tableau: Tableau) -> Dict[str, Dict[str, object]]:
    """Constant cells per atom, used to re-materialise unfetched attributes."""
    constants: Dict[str, Dict[str, object]] = {}
    for template in tableau.templates:
        values = {
            attribute: term.value
            for attribute, term in template.cells.items()
            if isinstance(term, Constant)
        }
        if values:
            constants[template.alias] = values
    return constants


def needed_attributes(tableau: Tableau) -> Dict[str, List[str]]:
    """Per atom, the attributes the query actually uses (its tableau cells)."""
    return {template.alias: list(template.cells) for template in tableau.templates}
