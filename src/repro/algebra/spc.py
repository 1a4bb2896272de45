"""SPC canonical form and SPC-related query decompositions.

Three pieces of machinery the BEAS algorithms rely on:

* :class:`SPCQuery` — the canonical form of an SPC query: a set of relation
  atoms (alias → relation), a conjunction of selection/join predicates, and a
  list of output columns.  The tableau/chase (Section 5) and the join-aware
  evaluator both work on this form.
* :func:`max_spc_subqueries` — the maximal SPC sub-queries of an RA query
  (Section 6): BEAS_RA builds fetching plans for each of them.
* :func:`maximal_induced_query` — ``Q̂``, the query obtained by dropping the
  negated side of every set difference, so ``Q̂(D) ⊇ Q(D)`` (used both to
  enforce set-difference semantics and to bound coverage).
* :func:`scope_aliases` — the query with one alias per relation atom, so the
  planner and the executor can key an atom's data by its alias.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..errors import QueryError
from ..relational.schema import DatabaseSchema
from .ast import Difference, GroupBy, Product, Project, QueryNode, Rename, Scan, Select, Union, transform
from .predicates import AttrRef, Comparison, Conjunction


@dataclass
class SPCQuery:
    """Canonical form of an SPC query.

    Attributes:
        atoms: mapping alias → relation name (the ``from`` list).
        condition: conjunction of all selection predicates, with attribute
            references qualified by atom alias.
        output: the projected columns (qualified references).  When empty the
            query outputs all attributes of all atoms.
    """

    atoms: Dict[str, str]
    condition: Conjunction
    output: Tuple[AttrRef, ...]

    @property
    def relation_names(self) -> List[str]:
        return list(self.atoms.values())

    def output_or_all(self, db_schema: DatabaseSchema) -> Tuple[AttrRef, ...]:
        """The output columns, defaulting to every attribute of every atom."""
        if self.output:
            return self.output
        refs: List[AttrRef] = []
        for alias, relation in self.atoms.items():
            for attr in db_schema.relation(relation).attribute_names:
                refs.append(AttrRef(alias, attr))
        return tuple(refs)

    def attributes_of(self, alias: str) -> List[str]:
        """Attributes of one atom that the query actually uses.

        This is the union of attributes mentioned in the condition and in the
        output columns; the chase only needs to cover these.
        """
        used: List[str] = []
        for ref in list(self.condition.attributes()) + list(self.output):
            if ref.alias == alias and ref.attribute not in used:
                used.append(ref.attribute)
        return used

    def join_predicates(self) -> List[Comparison]:
        """Attr/attr predicates (joins) of the query."""
        return [c for c in self.condition if c.is_attr_attr]

    def to_ast(self) -> QueryNode:
        """Rebuild an equivalent AST (scan/product → select → project)."""
        node: Optional[QueryNode] = None
        for alias, relation in self.atoms.items():
            scan = Scan(relation, alias)
            node = scan if node is None else Product(node, scan)
        if node is None:
            raise QueryError("SPC query with no relation atoms")
        if self.condition:
            node = Select(node, self.condition)
        if self.output:
            node = Project(node, tuple(self.output))
        return node

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        atoms = ", ".join(f"{rel} as {alias}" for alias, rel in self.atoms.items())
        return f"SPCQuery(from [{atoms}] where {self.condition})"


def to_spc(node: QueryNode) -> SPCQuery:
    """Convert an SPC AST (σ/π/×/ρ over scans) to canonical form.

    Raises :class:`~repro.errors.QueryError` if the subtree is not SPC.
    """
    if not node.is_spc():
        raise QueryError("query is not an SPC query (contains ∪, − or group-by)")

    atoms: Dict[str, str] = {}
    comparisons: List[Comparison] = []
    output: List[AttrRef] = []

    def visit(current: QueryNode) -> None:
        if isinstance(current, Scan):
            alias = current.effective_alias
            if alias in atoms:
                raise QueryError(f"duplicate relation alias {alias!r}")
            atoms[alias] = current.relation
            return
        if isinstance(current, Select):
            comparisons.extend(current.condition.comparisons)
            visit(current.child)
            return
        if isinstance(current, Product):
            visit(current.left)
            visit(current.right)
            return
        if isinstance(current, Project):
            # Outer-most projection wins; inner projections are ignored for
            # the canonical form (they only restrict which attributes are
            # visible, and the canonical output already does that).
            if not output:
                output.extend(current.columns)
            visit(current.child)
            return
        if isinstance(current, Rename):
            visit(current.child)
            return
        raise QueryError(f"unexpected node {type(current).__name__} in SPC query")

    visit(node)
    return SPCQuery(atoms=atoms, condition=Conjunction.of(comparisons), output=tuple(output))


def max_spc_subqueries(node: QueryNode) -> List[QueryNode]:
    """The maximal SPC sub-queries of an RA / RA_aggr query.

    A maximal SPC sub-query is an SPC subtree that is not contained in any
    larger SPC subtree.  BEAS_RA generates a fetching plan for each of them
    and stitches the plans together (Section 6).
    """
    if node.is_spc():
        return [node]
    result: List[QueryNode] = []
    for child in node.children():
        result.extend(max_spc_subqueries(child))
    return result


def maximal_induced_query(node: QueryNode) -> QueryNode:
    """``Q̂`` — drop the negated side of every set difference in the query.

    For any database ``D``, ``Q̂(D) ⊇ Q(D)``; BEAS_RA uses ``Q̂`` both to
    enforce set-difference semantics without scanning ``D`` and to derive a
    sound coverage bound (Section 6).  A subtree with no difference is its
    own induced query — the same object, so compiled operators and frames
    are shared with it.
    """

    def induced(value: object) -> object:
        if isinstance(value, Difference):
            return maximal_induced_query(value.left)
        return None if isinstance(value, QueryNode) and value.has_difference() else value

    return transform(node, induced)


def scope_aliases(query: QueryNode) -> QueryNode:
    """``query`` with every alias an earlier branch already used renamed (``p`` → ``p_2``).

    A branch is a maximal subtree with no ∪ or −.  A plan keys each atom's
    constants, attributes and frame step by alias, so two atoms sharing one
    would read one atom's data.  The renaming covers the whole branch — its
    scans and the references of its selections, projections, group-bys and
    renamings — and skips every name the query already uses.  The left-most
    branch keeps its names, so a set operation's output schema, and every
    answer column, is unchanged; a query that reuses no alias comes back as
    the same object.
    """
    taken = {scan.effective_alias for scan in query.scans()}
    used: Set[str] = set()

    def fresh(alias: str) -> str:
        suffix = 2
        while f"{alias}_{suffix}" in taken:
            suffix += 1
        taken.add(f"{alias}_{suffix}")
        return f"{alias}_{suffix}"

    def scoped(value: object) -> object:
        if not isinstance(value, QueryNode):
            return value
        if any(isinstance(node, (Union, Difference)) for node in value.walk()):
            return None  # not yet inside one branch
        aliases = {scan.effective_alias for scan in value.scans()}
        renames = {alias: fresh(alias) for alias in sorted(aliases & used)}
        used.update(aliases)
        return transform(value, lambda inner: _renamed(inner, renames)) if renames else value

    return transform(query, scoped)


def _renamed(value: object, renames: Dict[str, str]) -> object:
    """``value`` with the aliases in ``renames`` substituted, or ``None`` to look inside it."""
    if isinstance(value, Scan):
        return Scan(value.relation, renames.get(value.effective_alias, value.alias))
    if isinstance(value, AttrRef):
        return AttrRef(renames.get(value.alias, value.alias), value.attribute)
    if isinstance(value, Rename):
        mapping = tuple(tuple(_renamed(AttrRef.parse(n), renames).qualified for n in pair) for pair in value.mapping)
        return Rename(transform(value.child, lambda inner: _renamed(inner, renames)), mapping)
    return None


def classify(node: QueryNode) -> str:
    """Classify a query as ``"SPC"``, ``"RA"``, ``"agg(SPC)"`` or ``"agg(RA)"``.

    Used by the experiment harness (Fig 6(i) groups accuracy by query type).
    """
    if isinstance(node, GroupBy) or node.has_aggregate():
        inner_spc = all(
            child.is_spc()
            for n in node.walk()
            if isinstance(n, GroupBy)
            for child in n.children()
        )
        return "agg(SPC)" if inner_spc else "agg(RA)"
    return "SPC" if node.is_spc() else "RA"
