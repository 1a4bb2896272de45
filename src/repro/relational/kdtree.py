"""KD-tree over relation tuples.

Section 4.1 of the paper builds the indexes of the canonical access schema
``A_t`` from a K-D tree: tuples of a relation are treated as
``m``-dimensional points w.r.t. their per-attribute distance functions, and
the nodes at level ``k`` of the tree provide the (at most) ``2^k``
representative tuples of access template ``ψ^R_k = R(∅ → attr(R), 2^k, d̄_k)``.

The resolution ``d̄_k[B]`` is the largest distance, over all level-``k``
nodes, between the node's representative tuple and any tuple in the node's
subtree on attribute ``B``.  This is exactly the guarantee an access template
needs: every tuple of the relation is within ``d̄_k[B]`` of some fetched
representative on every attribute ``B``.

Splitting strategy: at each node we pick the attribute with the largest value
spread (numeric attributes by range under their distance function,
non-numeric attributes by number of distinct values) and split the node's
rows at the median of that attribute.  This mirrors the paper's motivation
for K-D trees — upgrading from level ``k`` to ``k+1`` should maximise the
gain in resolution.

**Columnar construction.**  The tree is built over the relation's storage
backend: per-attribute column buffers are pulled once
(:meth:`repro.relational.store.Store.columns`) and every construction
decision — split choice, median sort, min/max bounds — runs over those
buffers with *index lists*, never materializing intermediate row tuples.
Each :class:`KDNode` records the indices of its subtree; its ``rows`` view
is materialized lazily on first access (level/representative consumers and
leaf checks), so the node API is unchanged.

Beyond the level/resolution API that access templates need, the tree also
answers **within-radius** and **nearest-neighbour** queries under the
per-attribute distance functions (used by the distance kernels in
:mod:`repro.relational.kernels` to replace quadratic nested-loop scans).
Each node carries min/max bounds for its numeric attributes; search prunes a
subtree when the bound-derived lower bound on some attribute distance already
exceeds the radius (or the best distance found so far).  Pruning assumes
numeric distance functions are monotone in ``|x - y|`` (true for the built-in
absolute and scaled distances); candidate tuples at the leaves are always
checked with the *exact* distance functions, so results are identical to a
full nested-loop scan.  A tree over a sharded relation reads the store's
whole columns, which concatenate (range-partitioned shards) or interleave
the shard buffers transparently.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from .distance import INFINITY, is_real_number
from .relation import Relation, Row, value_sort_key
from .schema import RelationSchema
from .store import _typed_buffer


class KDNode:
    """One node of the KD-tree.

    Attributes:
        indices: positions (into the tree's master row order) of all tuples
            in this subtree.
        representative: the tuple chosen to stand for the subtree.
        depth: distance from the root (root has depth 0).
        left/right: children, or ``None`` for a leaf.
        split_attribute: name of the attribute this node split on (if any).
        bounds: per-attribute-position ``(min, max)`` over the subtree's
            values, recorded only for numeric attributes whose values are all
            real numbers (search pruning skips attributes without bounds).
        rows: all tuples in this subtree (materialized lazily from the
            tree's columns on first access).
    """

    __slots__ = (
        "indices",
        "representative",
        "depth",
        "left",
        "right",
        "split_attribute",
        "bounds",
        "_tree",
        "_rows",
    )

    def __init__(
        self,
        indices: List[int],
        representative: Row,
        depth: int,
        tree: "KDTree",
        bounds: Optional[Dict[int, Tuple[float, float]]] = None,
    ) -> None:
        self.indices = indices
        self.representative = representative
        self.depth = depth
        self.left: Optional["KDNode"] = None
        self.right: Optional["KDNode"] = None
        self.split_attribute: Optional[str] = None
        self.bounds: Dict[int, Tuple[float, float]] = bounds if bounds is not None else {}
        self._tree = tree
        self._rows: Optional[List[Row]] = None

    @property
    def rows(self) -> List[Row]:
        """The subtree's tuples (lazy view over the tree's master rows)."""
        if self._rows is None:
            master = self._tree._master_rows()
            self._rows = [master[i] for i in self.indices]
        return self._rows

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

    @property
    def size(self) -> int:
        return len(self.indices)


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
        self.root: Optional[KDNode] = (
            self._build(list(range(size)), depth=0) if size else None
        )
        self._levels: Dict[int, List[KDNode]] = {}
        self._level_columns: Dict[int, Tuple[List[Sequence[object]], array]] = {}

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

    def _build(self, indices: List[int], depth: int) -> KDNode:
        master = self._master_rows()
        node = KDNode(
            indices=indices,
            representative=master[indices[len(indices) // 2]],
            depth=depth,
            tree=self,
            bounds=self._numeric_bounds(indices),
        )
        if len(indices) <= self.max_leaf_size:
            return node
        split = self._choose_split(indices)
        if split is None:
            return node
        attr_name, position = split
        column = self._columns[position]
        ordered = sorted(indices, key=lambda i: self._sort_key(column[i]))
        mid = len(ordered) // 2
        left_indices, right_indices = ordered[:mid], ordered[mid:]
        if not left_indices or not right_indices:
            return node
        node.split_attribute = attr_name
        node.representative = master[ordered[mid]]
        node.left = self._build(left_indices, depth + 1)
        node.right = self._build(right_indices, depth + 1)
        return node

    @staticmethod
    def _sort_key(value: object) -> Tuple[int, object]:
        # Shared type-aware total order (None, then numbers, then repr) so
        # that heterogeneous columns still order deterministically.
        return value_sort_key(value)

    def _choose_split(self, indices: List[int]) -> Optional[Tuple[str, int]]:
        """Pick the attribute with the widest spread; ``None`` if all constant."""
        best: Optional[Tuple[float, str, int]] = None
        for position, attribute in enumerate(self.schema.attributes):
            column = self._columns[position]
            values = [column[i] for i in indices]
            distinct = set(values)
            if len(distinct) <= 1:
                continue
            if attribute.numeric:
                numeric = [v for v in values if isinstance(v, (int, float))]
                if not numeric:
                    spread = float(len(distinct))
                else:
                    spread = float(max(numeric) - min(numeric))
            else:
                spread = float(len(distinct))
            if best is None or spread > best[0]:
                best = (spread, attribute.name, position)
        if best is None:
            return None
        return best[1], best[2]

    # -- level access --------------------------------------------------------
    @property
    def height(self) -> int:
        """Depth of the deepest node (0 for a single-node tree, -1 if empty)."""
        if self.root is None:
            return -1

        def _depth(node: KDNode) -> int:
            if node.is_leaf:
                return node.depth
            return max(_depth(node.left), _depth(node.right))

        return _depth(self.root)

    def level_nodes(self, level: int) -> List[KDNode]:
        """The frontier of the tree at ``level``.

        These are all nodes at depth ``level`` plus leaves shallower than
        ``level``; together they partition the relation's tuples and there
        are at most ``2^level`` of them.
        """
        if self.root is None:
            return []
        if level in self._levels:
            return self._levels[level]
        frontier: List[KDNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.depth == level or node.is_leaf:
                frontier.append(node)
            else:
                stack.append(node.left)
                stack.append(node.right)
        self._levels[level] = frontier
        return frontier

    def representatives(self, level: int) -> List[Tuple[Row, int]]:
        """``(representative, subtree_size)`` pairs for the level frontier."""
        return [(node.representative, node.size) for node in self.level_nodes(level)]

    def level_columns(self, level: int) -> Tuple[List[Sequence[object]], array]:
        """:meth:`representatives` column-wise: per attribute the frontier's
        values, plus the subtree sizes as floats (the weights a fetch emits).

        Cached per level like the frontier itself, each column in the buffer
        :func:`~repro.relational.store._typed_buffer` chooses for it (an
        ``array`` when the frontier's values are all ``float`` or all
        machine ``int``), so a batched fetch hands a store buffers it adopts
        without looking at a value.  Treat as read-only.
        """
        cached = self._level_columns.get(level)
        if cached is None:
            nodes = self.level_nodes(level)
            cached = self._level_columns[level] = (
                [_typed_buffer(column)[1] for column in zip(*(node.representative for node in nodes))],
                array("d", [node.size for node in nodes]),
            )
        return cached

    def resolution(self, level: int) -> Dict[str, float]:
        """Per-attribute resolution ``d̄_level`` of the level frontier.

        ``d̄_level[B]`` bounds, for every tuple of the relation, the distance
        on ``B`` to the representative of the frontier node containing it.
        The sweep runs per attribute over the column buffers (indices only,
        no row tuples).
        """
        resolution: Dict[str, float] = {a.name: 0.0 for a in self.schema.attributes}
        for node in self.level_nodes(level):
            rep = node.representative
            for position, attribute in enumerate(self.schema.attributes):
                dist = attribute.distance
                column = self._columns[position]
                worst = 0.0
                rep_value = rep[position]
                for index in node.indices:
                    d = dist(rep_value, column[index])
                    if d > worst:
                        worst = d
                    if worst == INFINITY:
                        break
                if worst > resolution[attribute.name]:
                    resolution[attribute.name] = worst
        return resolution

    def exact_level(self) -> int:
        """The smallest level at which every frontier node is a single tuple.

        Fetching this level returns (a representative for) every distinct
        tuple, i.e. the access template at this level behaves like an access
        constraint with resolution 0 on duplicate-free relations.
        """
        if self.root is None:
            return 0
        level = 0
        while True:
            nodes = self.level_nodes(level)
            if all(node.is_leaf for node in nodes):
                return level
            level += 1

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

    # -- bookkeeping ----------------------------------------------------------
    def node_count(self) -> int:
        """Total number of nodes in the tree."""
        if self.root is None:
            return 0
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.append(node.left)
                stack.append(node.right)
        return count

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"KDTree({self.schema.name}, {len(self.relation)} rows, "
            f"height={self.height})"
        )

