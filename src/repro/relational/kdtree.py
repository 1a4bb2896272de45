"""KD-tree over relation tuples, for the distance kernels' search.

Tuples of a relation are treated as ``m``-dimensional points w.r.t. their
per-attribute distance functions.  The tree answers **within-radius** and
**nearest-neighbour** queries under those distances; the distance kernels in
:mod:`repro.relational.kernels` use it to replace quadratic nested-loop
scans.  This module serves kernel search only: the levelled trees behind
access templates (Section 4.1) are the flat template index of
:mod:`repro.access.index`, which splits the same way.

Splitting strategy: at each node we pick the attribute with the largest value
spread (numeric attributes by range under their distance function,
non-numeric attributes by number of distinct values) and split the node's
rows at the median of that attribute.

**Columnar construction.**  The tree is built over the relation's storage
backend: per-attribute column buffers are pulled once
(:meth:`repro.relational.store.Store.columns`) and every construction
decision — split choice, median sort, min/max bounds — runs over those
buffers with *index lists*, never materializing intermediate row tuples.
A tree over a sharded relation reads the store's whole columns, which
concatenate (range-partitioned shards) or interleave the shard buffers
transparently.

**Search.**  Each node carries min/max bounds for its numeric attributes;
search prunes a subtree when the bound-derived lower bound on some attribute
distance already exceeds the radius (or the best distance found so far).
Pruning assumes numeric distance functions are monotone in ``|x - y|`` (true
for the built-in absolute and scaled distances); candidate tuples at the
leaves are always checked with the *exact* distance functions, so results
are identical to a full nested-loop scan.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .distance import INFINITY, is_real_number
from .relation import Relation, Row, value_sort_key
from .schema import RelationSchema


def _spread(values: Sequence[object], distinct: int) -> float:
    """The split rule's spread of a numeric attribute: the range of its numbers
    (of its ``distinct`` values when it holds none)."""
    numbers = [v for v in values if isinstance(v, (int, float))]
    return float(max(numbers) - min(numbers)) if numbers else float(distinct)


class KDNode:
    """One node of the KD-tree.

    Attributes:
        indices: positions (into the relation's row order) of all tuples
            in this subtree.
        left/right: children, or ``None`` for a leaf.
        bounds: per-attribute-position ``(min, max)`` over the subtree's
            values, recorded only for numeric attributes whose values are all
            real numbers (search pruning skips attributes without bounds).
    """

    __slots__ = ("indices", "left", "right", "bounds")

    def __init__(self, indices: List[int], bounds: Dict[int, Tuple[float, float]]) -> None:
        self.indices = indices
        self.left: Optional["KDNode"] = None
        self.right: Optional["KDNode"] = None
        self.bounds = bounds

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


class KDTree:
    """KD-tree over the tuples of one relation."""

    def __init__(self, relation: Relation, max_leaf_size: int = 1) -> None:
        self.relation = relation
        self.schema: RelationSchema = relation.schema
        self.max_leaf_size = max(1, max_leaf_size)
        self._numeric_positions = [
            i for i, a in enumerate(self.schema.attributes) if a.numeric
        ]
        # Pull the column buffers once; every build decision reads these.
        self._columns: List[Sequence[object]] = relation.store.columns()
        self._rows: Optional[List[Row]] = None
        size = len(relation)
        self.root: Optional[KDNode] = self._build(list(range(size))) if size else None

    def _master_rows(self) -> List[Row]:
        """All tuples in storage order (materialized lazily, then shared)."""
        if self._rows is None:
            self._rows = self.relation.store.row_list()
        return self._rows

    # -- construction ------------------------------------------------------
    def _numeric_bounds(self, indices: List[int]) -> Dict[int, Tuple[float, float]]:
        """Min/max per numeric attribute, omitted when any value is non-real."""
        bounds: Dict[int, Tuple[float, float]] = {}
        for position in self._numeric_positions:
            column = self._columns[position]
            lo = hi = None
            for index in indices:
                value = column[index]
                if not is_real_number(value):
                    lo = None
                    break
                if lo is None or value < lo:
                    lo = value
                if hi is None or value > hi:
                    hi = value
            if lo is not None:
                bounds[position] = (lo, hi)
        return bounds

    def _build(self, indices: List[int]) -> KDNode:
        node = KDNode(indices, self._numeric_bounds(indices))
        if len(indices) <= self.max_leaf_size:
            return node
        position = self._choose_split(indices)
        if position is None:
            return node
        column = self._columns[position]
        ordered = sorted(indices, key=lambda i: value_sort_key(column[i]))
        mid = len(ordered) // 2
        node.left = self._build(ordered[:mid])
        node.right = self._build(ordered[mid:])
        return node

    def _choose_split(self, indices: List[int]) -> Optional[int]:
        """The position of the attribute with the widest spread; ``None`` if all are constant."""
        best: Optional[Tuple[float, int]] = None
        for position, attribute in enumerate(self.schema.attributes):
            column = self._columns[position]
            values = [column[i] for i in indices]
            distinct = len(set(values))
            if distinct <= 1:
                continue
            spread = _spread(values, distinct) if attribute.numeric else float(distinct)
            if best is None or spread > best[0]:
                best = (spread, position)
        return None if best is None else best[1]

    # -- search ----------------------------------------------------------------
    def _node_lower_bounds(self, node: KDNode, values: Sequence[object]) -> Dict[int, float]:
        """Per-attribute lower bounds of ``dis_A(values[A], row[A])`` over the subtree.

        Only attributes with recorded numeric bounds (and a real query value)
        contribute; everything else is bounded below by 0.  Valid because the
        numeric distances are monotone in ``|x - y|``.
        """
        lower: Dict[int, float] = {}
        for position, (lo, hi) in node.bounds.items():
            value = values[position]
            if not is_real_number(value):
                continue
            if value < lo:
                lower[position] = self.schema.attributes[position].distance(value, lo)
            elif value > hi:
                lower[position] = self.schema.attributes[position].distance(value, hi)
        return lower

    def within_radius_indices(
        self, values: Sequence[object], radii: Sequence[float]
    ) -> List[int]:
        """Indices (into the relation's row order) of all rows within radius.

        The index-returning variant of :meth:`within_radius`: consumers that
        map matches onward (the distance kernels' bucket trees, gather-based
        join outputs) get storage-order row indices straight from the column
        buffers, without a single row tuple being materialized.  Candidate
        leaves are checked with the exact distance functions, so the index
        set equals the nested-loop filter's (in tree-traversal order, as
        before).
        """
        if self.root is None:
            return []
        distances = [a.distance for a in self.schema.attributes]
        checks = list(zip(values, radii, distances, self._columns))
        out: List[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            lower = self._node_lower_bounds(node, values)
            if any(bound > radii[position] for position, bound in lower.items()):
                continue
            if node.is_leaf:
                for index in node.indices:
                    if all(
                        dist(value, column[index]) <= radius
                        for value, radius, dist, column in checks
                    ):
                        out.append(index)
            else:
                stack.append(node.left)
                stack.append(node.right)
        return out

    def within_radius(self, values: Sequence[object], radii: Sequence[float]) -> List[Row]:
        """All rows within ``radii[A]`` of ``values[A]`` on *every* attribute.

        Identical to the nested-loop filter
        ``[row for row in rows if all(dis_A(values[A], row[A]) <= radii[A])]``
        (up to row order); the tree only prunes subtrees that provably
        contain no matching row.  Matching rows are gathered from the master
        row list by :meth:`within_radius_indices` — only matches are ever
        materialized.
        """
        indices = self.within_radius_indices(values, radii)
        if not indices:
            return []
        master = self._master_rows()
        return [master[index] for index in indices]

    def nearest_distance(self, values: Sequence[object]) -> float:
        """``min_row max_A dis_A(values[A], row[A])`` — branch-and-bound NN.

        Returns the exact minimum tuple distance (possibly ``+inf`` when every
        row mismatches on a trivial-distance attribute), identical to a full
        scan with :func:`repro.relational.distance.tuple_distance`.
        """
        if self.root is None:
            return INFINITY
        distances = [a.distance for a in self.schema.attributes]
        pairs = list(zip(values, distances, self._columns))
        best = INFINITY
        stack: List[Tuple[float, KDNode]] = [(0.0, self.root)]
        while stack:
            bound, node = stack.pop()
            if bound >= best and best < INFINITY:
                continue
            if node.is_leaf:
                for index in node.indices:
                    worst = 0.0
                    for value, dist, column in pairs:
                        d = dist(value, column[index])
                        if d > worst:
                            worst = d
                        if worst >= best:
                            break
                    else:
                        if worst < best:
                            best = worst
                if best == 0.0:
                    return 0.0
            else:
                children = []
                for child in (node.left, node.right):
                    lower = self._node_lower_bounds(child, values)
                    children.append((max(lower.values(), default=0.0), child))
                # Visit the closer child first (it is popped last-pushed).
                children.sort(key=lambda pair: pair[0], reverse=True)
                stack.extend(children)
        return best

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"KDTree({self.schema.name}, {len(self.relation)} rows)"
