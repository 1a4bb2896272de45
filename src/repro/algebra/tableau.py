"""Tableau representation of SPC queries (Section 5).

The tableau ``(T(Q), u(Q))`` of an SPC query ``Q`` contains one *tuple
template* per relation atom.  Each cell of a template is a *term*: either a
constant from ``Q`` (the atom's attribute is equated to a constant by the
selection condition) or a *variable*.  Variables are shared across cells that
the condition equates (``A = B`` join predicates), so computing ``Q(D)``
amounts to fetching tuples that instantiate the templates consistently.

The chase (``repro.core.chase``) operates on this structure: it marks
variables and tuple templates as *exactly* or *approximately* covered as
access constraints/templates are applied.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from ..errors import QueryError
from ..relational.schema import DatabaseSchema
from .predicates import AttrRef, CompareOp, Comparison, Const
from .spc import SPCQuery


@dataclass(frozen=True)
class Variable:
    """A tableau variable, shared by all cells equated by the query."""

    vid: int

    def __str__(self) -> str:  # pragma: no cover - debug helper
        return f"x{self.vid}"


@dataclass(frozen=True)
class Constant:
    """A constant cell value originating from the query."""

    value: object

    def __str__(self) -> str:  # pragma: no cover - debug helper
        return repr(self.value)


Term = Union[Variable, Constant]


@dataclass
class TupleTemplate:
    """One tuple template: the cells of a relation atom, keyed by attribute."""

    alias: str
    relation: str
    cells: Dict[str, Term]

    def variables(self) -> List[Variable]:
        return [term for term in self.cells.values() if isinstance(term, Variable)]

    def term(self, attribute: str) -> Term:
        try:
            return self.cells[attribute]
        except KeyError:
            raise QueryError(
                f"atom {self.alias!r} ({self.relation}) has no cell for attribute {attribute!r}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        cells = ", ".join(f"{a}={t}" for a, t in self.cells.items())
        return f"{self.relation}[{self.alias}]({cells})"


@dataclass
class Tableau:
    """The tableau ``(T(Q), u(Q))`` of an SPC query.

    Attributes:
        templates: one :class:`TupleTemplate` per relation atom.
        output: the terms of the output tuple ``u(Q)`` (projection columns).
        constraints: residual comparisons that are *not* representable as
            cell constants or shared variables (inequalities such as
            ``price <= 95``); the chase does not need them, but the
            evaluation plan re-applies them.
    """

    templates: List[TupleTemplate]
    output: List[Tuple[AttrRef, Term]]
    constraints: List[Comparison]

    def template_for(self, alias: str) -> TupleTemplate:
        for template in self.templates:
            if template.alias == alias:
                return template
        raise QueryError(f"no tuple template for alias {alias!r}")

    def all_variables(self) -> List[Variable]:
        """All distinct variables appearing in the tableau."""
        seen: Dict[Variable, None] = {}
        for template in self.templates:
            for variable in template.variables():
                seen.setdefault(variable, None)
        return list(seen)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Tableau({len(self.templates)} templates, {len(self.all_variables())} variables)"


class _UnionFind:
    """Union-find over (alias, attribute) cells, used to share variables."""

    def __init__(self) -> None:
        self._parent: Dict[Tuple[str, str], Tuple[str, str]] = {}

    def find(self, cell: Tuple[str, str]) -> Tuple[str, str]:
        self._parent.setdefault(cell, cell)
        root = cell
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression.
        while self._parent[cell] != root:
            self._parent[cell], cell = root, self._parent[cell]
        return root

    def union(self, a: Tuple[str, str], b: Tuple[str, str]) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb


def build_tableau(query: SPCQuery, db_schema: DatabaseSchema) -> Tableau:
    """Construct the tableau of an SPC query in canonical form.

    Equality predicates ``A = B`` merge the two cells into one shared
    variable; equality predicates ``A = c`` turn the cell into the constant
    ``c``; all other comparisons become residual constraints.
    """
    # Collect all cells that the query uses per atom (condition + output).
    used: Dict[str, List[str]] = {alias: query.attributes_of(alias) for alias in query.atoms}
    # Make sure every atom has at least one cell so it appears in the tableau.
    for alias, relation in query.atoms.items():
        if not used[alias]:
            used[alias] = list(db_schema.relation(relation).attribute_names[:1])

    uf = _UnionFind()
    constants: Dict[Tuple[str, str], object] = {}
    residual: List[Comparison] = []

    for comparison in query.condition:
        comparison = comparison.normalized()
        if comparison.op is CompareOp.EQ and comparison.is_attr_attr:
            left, right = comparison.attributes()
            if left.alias is None or right.alias is None:
                residual.append(comparison)
                continue
            uf.union((left.alias, left.attribute), (right.alias, right.attribute))
        elif comparison.op is CompareOp.EQ and comparison.is_attr_const:
            ref = comparison.attributes()[0]
            if ref.alias is None:
                residual.append(comparison)
                continue
            constants[(ref.alias, ref.attribute)] = comparison.constant()
        else:
            residual.append(comparison)

    # Propagate constants across equivalence classes.
    class_constant: Dict[Tuple[str, str], object] = {}
    for cell, value in constants.items():
        root = uf.find(cell)
        if root in class_constant and class_constant[root] != value:
            # Two different constants forced onto the same cell: the query is
            # unsatisfiable; keep one and record the conflict as residual so
            # evaluation returns the empty answer.
            residual.append(
                Comparison(AttrRef(cell[0], cell[1]), CompareOp.EQ, Const(value))
            )
            continue
        class_constant[root] = value

    # Assign variables to the remaining equivalence classes.
    variable_ids = itertools.count(1)
    class_variable: Dict[Tuple[str, str], Variable] = {}

    def term_for(cell: Tuple[str, str]) -> Term:
        root = uf.find(cell)
        if root in class_constant:
            return Constant(class_constant[root])
        if root not in class_variable:
            class_variable[root] = Variable(next(variable_ids))
        return class_variable[root]

    templates: List[TupleTemplate] = []
    for alias, relation in query.atoms.items():
        cells = {attribute: term_for((alias, attribute)) for attribute in used[alias]}
        templates.append(TupleTemplate(alias=alias, relation=relation, cells=cells))

    output_terms: List[Tuple[AttrRef, Term]] = []
    for ref in query.output_or_all(db_schema):
        if ref.alias is None:
            raise QueryError(f"output column {ref.qualified!r} must be alias-qualified")
        output_terms.append((ref, term_for((ref.alias, ref.attribute))))

    return Tableau(templates=templates, output=output_terms, constraints=residual)
