"""The chase over query tableaux under an access schema (Section 5).

A chasing sequence for an SPC query ``Q`` under an access schema ``A`` is a
sequence of annotated tableaux: each step applies an access constraint or an
access template (at level 0) to one tuple template, marking variables and
tuple templates as *exactly* or *approximately* covered:

* **variable marking** — if the ``X``-cells of the template's atom are
  constants or already-covered variables, the ``Y``-cells become covered:
  exactly when the accessor is a constraint and no ``X``-cell is approximate,
  approximately otherwise;
* **tuple marking** — an atom is exactly covered when all its cells are
  exact, approximately covered when all its cells are covered at all.

Under any schema subsuming the canonical ``A_t`` every chasing sequence
terminates with all atoms covered (Lemma 4): the whole-relation template
``R(∅ → attr(R), 2^k, d̄_k)`` is always applicable.

The chase also keeps a running *tariff* (worst-case tuples fetched, deduced
from the accessors' ``N`` bounds); when applying a constraint would blow the
budget ``B = α·|D|``, the step falls back to a level-0 template instead, so
the initial plan always fits the budget.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..access.schema import AccessConstraint, AccessSchema, TemplateFamily
from ..algebra.tableau import Constant, Tableau, Term, TupleTemplate, Variable
from ..errors import PlanError
from .plan import Accessor


class Mark(enum.Enum):
    """Coverage state of a variable or tuple template."""

    UNCOVERED = 0
    APPROX = 1
    EXACT = 2

    @property
    def covered(self) -> bool:
        return self is not Mark.UNCOVERED


@dataclass
class ChaseStep:
    """One step of a chasing sequence.

    Attributes:
        name: the fetch-step name this chase step will become (``T1``, ...).
        alias: the query atom (tuple template) the accessor was applied to.
        accessor: the constraint or level-0 template applied.
        input_terms: for every ``X``-attribute of the accessor, the tableau
            term supplying its value (a constant of ``Q`` or a covered
            variable).
        covered_variables: variables newly covered (or upgraded) by the step.
        exact: whether the produced ``Y`` values are exact (constraint with
            exact inputs).
    """

    name: str
    alias: str
    relation: str
    accessor: Accessor
    input_terms: Dict[str, Term]
    covered_variables: List[Variable]
    exact: bool


@dataclass
class ChaseResult:
    """The outcome of chasing a tableau under an access schema."""

    steps: List[ChaseStep]
    variable_marks: Dict[Variable, Mark]
    atom_marks: Dict[str, Mark]
    variable_producer: Dict[Variable, Tuple[str, str, str]]  # step name, alias, attribute
    tariff: int
    #: Per atom, the step whose output is the atom's relation (phase 2 of :meth:`Chaser.run`).
    frames: Dict[str, str]


class Chaser:
    """Runs the chase for one tableau under one access schema and budget."""

    def __init__(
        self,
        tableau: Tableau,
        access_schema: AccessSchema,
        budget: int,
        name_prefix: str = "T",
    ) -> None:
        self.tableau = tableau
        self.schema = access_schema
        self.budget = max(1, budget)
        self.name_prefix = name_prefix
        self._variable_marks: Dict[Variable, Mark] = {
            v: Mark.UNCOVERED for v in tableau.all_variables()
        }
        self._atom_marks: Dict[str, Mark] = {t.alias: Mark.UNCOVERED for t in tableau.templates}
        self._producer: Dict[Variable, Tuple[str, str, str]] = {}
        self._steps: List[ChaseStep] = []
        self._frames: Dict[str, str] = {}
        self._output_sizes: Dict[str, int] = {}
        self._tariff = 0
        self._counter = 0

    # -- term / mark helpers -----------------------------------------------------
    def _term_mark(self, term: Term) -> Mark:
        if isinstance(term, Constant):
            return Mark.EXACT
        return self._variable_marks.get(term, Mark.UNCOVERED)

    def _atom_cells_covered(self, template: TupleTemplate) -> Mark:
        marks = [self._term_mark(term) for term in template.cells.values()]
        if all(m is Mark.EXACT for m in marks):
            return Mark.EXACT
        if all(m.covered for m in marks):
            return Mark.APPROX
        return Mark.UNCOVERED

    def _refresh_atom_marks(self) -> None:
        for template in self.tableau.templates:
            mark = self._atom_cells_covered(template)
            if mark.value > self._atom_marks[template.alias].value:
                self._atom_marks[template.alias] = mark

    # -- applicability -------------------------------------------------------------
    def _x_terms(self, template: TupleTemplate, x: Sequence[str]) -> Optional[Dict[str, Term]]:
        """The atom's terms for the accessor's X attributes, or ``None`` if not applicable."""
        terms: Dict[str, Term] = {}
        for attribute in x:
            if attribute not in template.cells:
                return None
            term = template.cells[attribute]
            if not self._term_mark(term).covered:
                return None
            terms[attribute] = term
        return terms

    def _estimated_inputs(self, input_terms: Dict[str, Term]) -> int:
        """Upper bound on distinct X-values, from the producing steps' bounds."""
        bound = 1
        counted: Set[str] = set()
        for term in input_terms.values():
            if isinstance(term, Constant):
                continue
            producer = self._producer.get(term)
            if producer is None:
                # Covered variable without a recorded producer should not
                # happen; be conservative.
                return self.budget + 1
            step_name = producer[0]
            if step_name in counted:
                continue
            counted.add(step_name)
            bound *= max(1, self._output_sizes.get(step_name, 1))
        return bound

    # -- step application ---------------------------------------------------------
    def _next_name(self) -> str:
        self._counter += 1
        return f"{self.name_prefix}{self._counter}"

    def _apply(
        self,
        template: TupleTemplate,
        accessor: Accessor,
        input_terms: Dict[str, Term],
    ) -> ChaseStep:
        inputs = self._estimated_inputs(input_terms)
        cost = inputs * accessor.n
        exact = accessor.is_constraint and all(
            self._term_mark(t) is Mark.EXACT for t in input_terms.values()
        )
        name = self._next_name()
        covered: List[Variable] = []
        target_mark = Mark.EXACT if exact else Mark.APPROX
        for attribute in accessor.y:
            term = template.cells.get(attribute)
            if not isinstance(term, Variable):
                continue
            current = self._variable_marks.get(term, Mark.UNCOVERED)
            if target_mark.value > current.value:
                self._variable_marks[term] = target_mark
                covered.append(term)
                self._producer[term] = (name, template.alias, attribute)
            elif term not in self._producer:
                self._producer[term] = (name, template.alias, attribute)

        step = ChaseStep(
            name=name,
            alias=template.alias,
            relation=template.relation,
            accessor=accessor,
            input_terms=dict(input_terms),
            covered_variables=covered,
            exact=exact,
        )
        self._steps.append(step)
        self._output_sizes[name] = inputs * accessor.n
        self._tariff += cost
        self._refresh_atom_marks()
        return step

    # -- candidate selection ---------------------------------------------------------
    def _useful_constraint(
        self, template: TupleTemplate, constraint: AccessConstraint
    ) -> Optional[Dict[str, Term]]:
        """X-terms if the constraint is applicable and covers something new."""
        input_terms = self._x_terms(template, constraint.spec.x)
        if input_terms is None:
            return None
        gains = False
        exact_inputs = all(self._term_mark(t) is Mark.EXACT for t in input_terms.values())
        for attribute in constraint.spec.y:
            term = template.cells.get(attribute)
            if not isinstance(term, Variable):
                continue
            mark = self._variable_marks.get(term, Mark.UNCOVERED)
            if mark is Mark.UNCOVERED or (mark is Mark.APPROX and exact_inputs):
                gains = True
                break
        return input_terms if gains else None

    def _frame_family(
        self, template: TupleTemplate
    ) -> Optional[Tuple[TemplateFamily, Dict[str, Term]]]:
        """Pick the template family used to (approximately) cover an atom.

        Preference order: a family with non-empty, already-covered ``X`` whose
        ``X ∪ Y`` spans every used attribute of the atom (selective, e.g. the
        families derived from access constraints), then the whole-relation
        family of ``A_t``.
        """
        needed = set(template.cells)
        best: Optional[Tuple[TemplateFamily, Dict[str, Term]]] = None
        for family in self.schema.families_for(template.relation):
            if not set(family.x) | set(family.y) >= needed:
                continue
            input_terms = self._x_terms(template, family.x)
            if input_terms is None:
                continue
            if family.x:
                return family, input_terms
            if best is None:
                best = (family, input_terms)
        return best

    def _apply_frame_constraint(self, template: TupleTemplate) -> Optional[ChaseStep]:
        """Cover a whole atom with one access constraint if possible.

        Used when an atom's cells are already covered — through variables
        shared with other atoms (so no constraint was "useful" during phase
        1), or by several of its own steps none of which spans it — but the
        atom still needs one fetch step whose output is its relation, so the
        executor can verify its tuples actually exist.  Budget permitting, an
        exact constraint whose ``X ∪ Y`` spans the atom is preferred over an
        approximate template.  Returns the step applied, or ``None``.
        """
        needed = set(template.cells)
        for constraint in self.schema.constraints_for(template.relation):
            if not set(constraint.spec.x) | set(constraint.spec.y) >= needed:
                continue
            input_terms = self._x_terms(template, constraint.spec.x)
            if input_terms is None:
                continue
            accessor = Accessor(constraint=constraint)
            inputs = self._estimated_inputs(input_terms)
            if self._tariff + inputs * accessor.n > self.budget:
                continue
            return self._apply(template, accessor, input_terms)
        return None

    # -- main loop ------------------------------------------------------------------
    def run(self) -> ChaseResult:
        # Phase 1: apply access constraints to propagate exact coverage as far
        # as the budget allows.
        progress = True
        while progress:
            progress = False
            for template in self.tableau.templates:
                for constraint in self.schema.constraints_for(template.relation):
                    input_terms = self._useful_constraint(template, constraint)
                    if input_terms is None:
                        continue
                    accessor = Accessor(constraint=constraint)
                    inputs = self._estimated_inputs(input_terms)
                    if self._tariff + inputs * accessor.n > self.budget:
                        continue
                    self._apply(template, accessor, input_terms)
                    progress = True

        # Phase 2: the executor reads each atom's relation from ONE step, its
        # frame step, so an atom is done only when its steps cover all of its
        # cells and one of them spans its non-constant cells on its own (the
        # executor appends constant cells as columns); the last such step is
        # its frame.  Steps that cover the atom only between them are not
        # enough: two projections of a relation joined on a non-key attribute
        # are not the relation.  An atom that is not done gets one accessor
        # covering all of it, which becomes its frame — an exact constraint if
        # one spans the atom within budget, else a level-0 template.
        for template in self.tableau.templates:
            own = [step for step in self._steps if step.alias == template.alias]
            variables = {a for a, term in template.cells.items() if not isinstance(term, Constant)}
            spanning = [step for step in own if variables <= set(step.accessor.x + step.accessor.y)]
            if spanning and set(template.cells) <= {a for step in own for a in step.accessor.x + step.accessor.y}:
                self._frames[template.alias] = spanning[-1].name
                continue
            frame = self._apply_frame_constraint(template)
            if frame is None:
                choice = self._frame_family(template)
                if choice is None:
                    raise PlanError(
                        f"no applicable access template covers atom {template.alias!r} "
                        f"({template.relation}); the access schema must subsume A_t"
                    )
                family, input_terms = choice
                frame = self._apply(template, Accessor(family=family, level=0), input_terms)
            self._frames[template.alias] = frame.name

        self._refresh_atom_marks()
        return ChaseResult(
            steps=self._steps,
            variable_marks=dict(self._variable_marks),
            atom_marks=dict(self._atom_marks),
            variable_producer=dict(self._producer),
            tariff=self._tariff,
            frames=dict(self._frames),
        )


def chase(
    tableau: Tableau,
    access_schema: AccessSchema,
    budget: int,
    name_prefix: str = "T",
) -> ChaseResult:
    """Run the chase for ``tableau`` under ``access_schema`` with budget ``B``."""
    return Chaser(tableau, access_schema, budget, name_prefix=name_prefix).run()
