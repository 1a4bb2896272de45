"""Physical indexes realising access constraints and access templates.

Two index kinds (Section 4.1, "Implementation"):

* :class:`ConstraintIndex` — for an access constraint ``R(X → Y, N, 0̄)``: a
  hash index from ``X``-values to the exact distinct ``Y``-values.
* :class:`TemplateIndex` — for a *family* of levelled access templates
  ``R(X → Y, 2^k, d̄_k)``, ``k = 0..M``: per ``X``-value a K-D tree over the
  associated ``Y``-values; fetching at level ``k`` returns the (at most
  ``2^k``) representatives of the tree's level-``k`` frontier, together with
  the number of original tuples each representative stands for (needed by
  ``sum``/``count``/``avg``, Section 7).  The per-level resolutions ``d̄_k``
  are the worst representative-to-tuple distance across all groups.

Both indexes report entry counts so Exp-4 (Fig 6(k)) can measure index size.

**Layout of a constraint index.**  The resource the paper bounds is tuples
accessed through these indexes, so a fetch step — hundreds of ``X``-values
against one index — must cost a dictionary lookup per ``X``-value and
nothing per fetched tuple.  The index is therefore one table in compressed
sparse row form: an *entry* is a distinct ``(X, Y)`` value of ``D_R``; the
table holds one column buffer per ``X ∪ Y`` attribute (the buffer
:func:`~repro.relational.store._typed_buffer` chooses: a column that is all
``float`` / all machine ``int`` at build time is an ``array`` — the store's
one rule decides, at build time, once) beside the duplicate counts as an
``array('d')``; and ``_rows`` maps each ``X``-value to the row numbers of
its entries.  Entries are laid out grouped by ``X``-value in first-seen
order, ``Y``-values in first-seen order within a group — the order a scan
of ``D_R`` meets them, which is the order :meth:`ConstraintIndex.fetch`
has always answered in and so the row order of every fetched frame — which
makes every ``_rows`` value a ``range``.  A batch fetch is then
``map(_rows.get, keys)``, one ``chain`` of the row numbers, and one gather
per column; typed columns leave as ``array`` buffers a store adopts by copy.
Every fetched value, the ``X`` columns included, is the stored one: asked for
``1.0`` where ``D_R`` holds ``1``, a fetch answers with the tuples of ``D_R``.

Nothing reads ``_rows`` values as anything but a ``Sequence[int]``: appending
a tuple to ``D_R`` (ROADMAP item 2(c)) adds its entry at the end of the
table and replaces the ``X``-value's ``range`` by a list with the new row
number last, leaving every other group's rows — and first-seen order —
untouched; ``n`` becomes a ``max`` with the grown group's length, and a typed
column that meets a value of another type is demoted to a list first, as a
``ColumnStore`` buffer is.

**Layout of a template index.**  Building these is nearly all of what an
access schema costs (a family builds its index when a plan first binds it,
see :class:`~repro.access.schema.TemplateFamily`), so a family is flat
lists, not a tree object per ``X``-value.  All groups share
one permutation of ``D_R``'s row numbers, grouped by ``X``-value in
first-seen order; a node is a ``(start, end)`` range of it.  A node splits
on the attribute of widest spread over its range (a numeric attribute's
spread is the range of its numbers, any other's its number of distinct
values; constant attributes never split), by a stable in-place sort of the
range on that attribute's *rank* (its place under
:func:`~repro.relational.relation.value_sort_key`, computed once per
attribute), so both median halves stay contiguous; the row at the middle of the
range (the first of the upper half) represents the node.  Nodes are numbered in preorder, with
their range, representative row, depth and children in flat lists;
``_groups`` maps each ``X``-value to its root.  A level-``k`` frontier is
every node of depth ``k`` and every shallower leaf, right subtree first,
gathered into typed buffers once per ``(group, level)``.  Under the built-in
numeric distances over real numbers (monotone, float rounding included) and
the trivial and categorical ones, a node's worst distance to its
representative is the worse of its lowest- and highest-ranked values';
``STRING_PREFIX``, custom distances and columns holding ``None`` or NaN scan
the range.  ``d̄_k`` is the worst over the nodes of depth ``k`` and the
leaves above them.  The ``Y`` columns are copied when the index is built —
the first time a plan binds its family, not when the family is declared: an
index answers from the data it was built over, the relation instance its
family was declared over.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import chain, repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..relational.database import AccessMeter
from ..relational.distance import INFINITY, categorical_distance, is_real_number, numeric_typecode, trivial_distance
from ..relational.relation import Relation, Row, value_sort_key
from ..relational.schema import Attribute
from ..relational.store import _concat_buffers, _gather, _typed_buffer
from .template import TemplateSpec

FetchedRow = Tuple[Row, float]  # (X ∪ Y values, represented-tuple count)
# One value buffer per X ∪ Y attribute, plus the represented-tuple counts.
FetchedColumns = Tuple[List[Sequence[object]], List[float]]


def _spread(values: Sequence[object], distinct: int) -> float:
    """The split rule's spread of a numeric attribute: the range of its numbers
    (of its ``distinct`` values when it holds none)."""
    numbers = [v for v in values if isinstance(v, (int, float))]
    return float(max(numbers) - min(numbers)) if numbers else float(distinct)


class ConstraintIndex:
    """Hash index for an access constraint ``R(X → Y, N, 0̄)``."""

    def __init__(self, relation: Relation, x: Sequence[str], y: Sequence[str]) -> None:
        self.relation_name = relation.schema.name
        self.x = tuple(x)
        self.y = tuple(y)
        store, schema = relation.store, relation.schema
        # Each entry is a distinct (X, Y) value together with the number of
        # base tuples carrying it (Section 7's duplicate counts, used by
        # sum/count/avg evaluation over fetched data).  The key columns are
        # read column-wise: no store materialises its row tuples for an index.
        x_keys = store.key_tuples(schema.positions(self.x))
        pairs = Counter(zip(x_keys, store.key_tuples(schema.positions(self.y))))
        groups: Dict[Row, List[Row]] = {}
        for (key, value), count in pairs.items():
            groups.setdefault(key, []).append(key + value + (count,))
        # Transposed: the X ∪ Y columns, then the counts (all empty over an empty relation).
        columns = list(zip(*chain.from_iterable(groups.values()))) or [()] * (len(self.x + self.y) + 1)
        self._counts = array("d", columns.pop())
        self._columns = [_typed_buffer(column)[1] for column in columns]
        self._rows: Dict[Row, Sequence[int]] = {}
        start = 0
        for key, entries in groups.items():
            self._rows[key] = range(start, start + len(entries))
            start += len(entries)
        self.n = max(map(len, self._rows.values()), default=1)

    def spec(self, declared_n: Optional[int] = None) -> TemplateSpec:
        """The logical template realised by this index (resolution 0)."""
        return TemplateSpec(
            relation=self.relation_name,
            x=self.x,
            y=self.y,
            n=declared_n if declared_n is not None else max(1, self.n),
            resolution={a: 0.0 for a in self.y},
        )

    def fetch(self, x_value: Sequence[object], meter: Optional[AccessMeter] = None) -> List[FetchedRow]:
        """All exact ``Y``-values for ``x_value`` with their duplicate counts."""
        rows = self._rows.get(tuple(x_value), ())
        if meter is not None:
            meter.charge(len(rows), self.relation_name)
        return [(tuple(column[row] for column in self._columns), self._counts[row]) for row in rows]

    def fetch_columns(
        self, x_values: Iterable[Sequence[object]], meter: Optional[AccessMeter] = None
    ) -> FetchedColumns:
        """:meth:`fetch` for a batch of ``X``-values, emitted column-wise.

        The rows :meth:`fetch` would return for each ``X``-value in turn,
        as one value buffer per ``X ∪ Y`` attribute plus the counts — what a
        fetch step's frame is built from, without a tuple per row.  The
        meter is charged every ``X``-value's group size before a value is
        read (:meth:`AccessMeter.charge_many`), so a budget overrun raises
        exactly where charging them through :meth:`fetch` would.
        """
        spans = list(map(self._rows.get, map(tuple, x_values), repeat(())))
        if meter is not None:
            meter.charge_many(map(len, spans), self.relation_name)
        rows = list(chain.from_iterable(spans))
        columns: List[Sequence[object]] = []
        for column in self._columns:
            values = _gather(column, rows)
            columns.append(array(column.typecode, values) if isinstance(column, array) else list(values))
        return columns, list(_gather(self._counts, rows))

    def keys(self) -> List[Tuple[object, ...]]:
        return list(self._rows)

    @property
    def entry_count(self) -> int:
        """Number of (X, Y) entries stored."""
        return len(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ConstraintIndex({self.relation_name}: {self.x} -> {self.y}, N={self.n})"


class TemplateIndex:
    """Levelled K-D index for a family of access templates (layout: module docstring).

    For ``X = ∅`` there is a single tree over the whole relation (the
    canonical ``A_t`` case); otherwise one tree per distinct ``X``-value.
    """

    def __init__(
        self,
        relation: Relation,
        x: Sequence[str],
        y: Sequence[str],
        max_level: Optional[int] = None,
    ) -> None:
        self.relation_name = relation.schema.name
        self.x = tuple(x)
        self.y = tuple(y)
        schema, store = relation.schema, relation.store
        attributes = schema.project(self.y).attributes
        groups: Dict[Row, List[int]] = {}
        for row, key in enumerate(store.key_tuples(schema.positions(self.x))):
            groups.setdefault(key, []).append(row)
        # The Y columns as of the build: a fetch answers from them, never from the live store.
        self._columns = [_typed_buffer(store.column(p))[1] for p in schema.positions(self.y)]
        # Per node: its range of _perm, representative row, depth and children (-1: a leaf).
        self._start, self._end, self._rep, self._depth, self._left, self._right = [], [], [], [], [], []
        builder = _TreeBuilder(self, attributes, list(chain.from_iterable(groups.values())))
        self._groups: Dict[Row, int] = {}
        start = 0
        for key, rows in groups.items():
            self._groups[key] = builder.build(start, start + len(rows), 0)
            start += len(rows)
        self._perm = array("q", builder.perm)

        # The deepest level worth materialising: beyond it every frontier node
        # is a single tuple and the resolution is 0.
        natural_max = max(self._depth, default=0)
        self.max_level = natural_max if max_level is None else min(max_level, natural_max)
        self._resolutions = builder.resolutions(self.max_level)
        self._level_columns: Dict[Tuple[int, int], Tuple[List[Sequence[object]], array]] = {}

    # -- resolutions -------------------------------------------------------------
    def resolution(self, level: int) -> Dict[str, float]:
        """``d̄_k`` for level ``k`` (clamped to the materialised range)."""
        level = min(max(level, 0), self.max_level)
        return dict(self._resolutions[level])

    def resolution_of(self, level: int, attribute: str) -> float:
        """One component of ``d̄_k`` (0 for attributes outside ``Y``), without copying the level's dict."""
        level = min(max(level, 0), self.max_level)
        return self._resolutions[level].get(attribute, 0.0)

    def level_spec(self, level: int) -> TemplateSpec:
        """The logical template ``R(X → Y, 2^level, d̄_level)``."""
        level = min(max(level, 0), self.max_level)
        return TemplateSpec(
            relation=self.relation_name,
            x=self.x,
            y=self.y,
            n=2**level,
            resolution=self.resolution(level),
        )

    # -- levels -------------------------------------------------------------------
    def frontier(self, root: int, level: int) -> List[int]:
        """The (at most ``2^level``) nodes of ``root``'s tree at ``level``,
        which partition its group: every node of that depth and every
        shallower leaf, right subtree first."""
        depth, left, right = self._depth, self._left, self._right
        nodes: List[int] = []
        stack = [root]
        while stack:
            node = stack.pop()
            if depth[node] == level or left[node] < 0:
                nodes.append(node)
            else:
                stack.append(left[node])
                stack.append(right[node])
        return nodes

    def level_columns(self, root: int, level: int) -> Tuple[List[Sequence[object]], array]:
        """Per ``Y`` attribute the values of :meth:`frontier`'s representatives,
        plus its nodes' sizes as floats (the weights a fetch emits).

        Cached per ``(group, level)``, each column in the buffer
        :func:`~repro.relational.store._typed_buffer` chooses, so a batched
        fetch hands a store buffers it adopts as they are.  Treat as read-only.
        """
        cached = self._level_columns.get((root, level))
        if cached is None:
            nodes = self.frontier(root, level)
            reps = [self._rep[node] for node in nodes]
            cached = self._level_columns[root, level] = (
                [_typed_buffer(_gather(column, reps))[1] for column in self._columns],
                array("d", [self._end[node] - self._start[node] for node in nodes]),
            )
        return cached

    # -- fetching ---------------------------------------------------------------
    def fetch(
        self,
        x_value: Sequence[object],
        level: int,
        meter: Optional[AccessMeter] = None,
    ) -> List[FetchedRow]:
        """Representatives (plus counts) for ``x_value`` at ``level``.

        The meter is charged one access per returned representative — the
        index is itself data derived from ``D`` and reading it consumes the
        resource budget exactly like reading base tuples (Section 8, Exp-4:
        "BEAS accesses at most α|D| tuples no matter whether the tuples are
        from the indices ... or the original D").
        """
        level = min(max(level, 0), self.max_level)
        key = tuple(x_value)
        root = self._groups.get(key)
        if root is None:
            return []
        columns, counts = self.level_columns(root, level)
        if meter is not None:
            meter.charge(len(counts), self.relation_name)
        return [(key + rep, count) for rep, count in zip(zip(*columns), counts)]

    def fetch_columns(
        self,
        x_values: Iterable[Sequence[object]],
        level: int,
        meter: Optional[AccessMeter] = None,
    ) -> FetchedColumns:
        """:meth:`fetch` for a batch of ``X``-values, emitted column-wise
        (see :meth:`ConstraintIndex.fetch_columns`; same metering)."""
        level = min(max(level, 0), self.max_level)
        keys = list(filter(self._groups.__contains__, map(tuple, x_values)))
        if not keys:
            return [[] for _ in self.x + self.y], []
        frontiers, counts = zip(*(self.level_columns(self._groups[key], level) for key in keys))
        sizes = list(map(len, counts))
        if meter is not None:
            meter.charge_many(sizes, self.relation_name)
        x_columns = [list(chain.from_iterable(map(repeat, values, sizes))) for values in zip(*keys)]
        y_columns = [_concat_buffers(parts) for parts in zip(*frontiers)]
        return x_columns + y_columns, list(chain.from_iterable(counts))

    def keys(self) -> List[Tuple[object, ...]]:
        """All distinct ``X``-values with a tree (``[()]`` when ``X = ∅``)."""
        return list(self._groups)

    # -- size accounting ----------------------------------------------------------
    @property
    def entry_count(self) -> int:
        """Total number of stored representatives (tree nodes) across groups."""
        return len(self._rep)

    def levels(self) -> List[int]:
        return list(range(self.max_level + 1))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"TemplateIndex({self.relation_name}: {self.x or '∅'} -> {self.y}, "
            f"levels 0..{self.max_level}, {len(self._groups)} groups)"
        )


def _value_ranks(column: Sequence[object]) -> Tuple[List[int], List[object]]:
    """Per row the rank of its value under :func:`value_sort_key`, and a value of every rank.

    Equal keys get equal ranks, so a stable sort by rank is the stable sort
    by :func:`value_sort_key` the K-D split has always used.
    """
    keys = list(map(value_sort_key, column))
    value_of = dict(zip(keys, column))
    ordered = sorted(value_of)
    rank_of = {key: rank for rank, key in enumerate(ordered)}
    return list(map(rank_of.__getitem__, keys)), [value_of[key] for key in ordered]


def _ranked_equality(value: object) -> bool:
    """Whether ``value`` equals exactly the values of its rank (NaN equals none)."""
    return value is None or (type(value) in (bool, int, float, str) and value == value)


class _TreeBuilder:
    """Builds a :class:`TemplateIndex`'s trees (layout: module docstring).

    Per attribute: ``ranked`` — equal ranks mean equal values, so a node's
    distinct values are its distinct ranks; ``typed`` — one number type, so
    a node's range is its extreme ranks'; ``extremes`` — a node's worst
    distance is the worse of its extremes'.
    """

    def __init__(self, index: TemplateIndex, attributes: Sequence[Attribute], perm: List[int]) -> None:
        self.index = index
        self.perm = perm
        columns = index._columns
        self.names = [attribute.name for attribute in attributes]
        self.numeric = [attribute.numeric for attribute in attributes]
        self.distances = [attribute.distance.func for attribute in attributes]
        ranked_values = list(map(_value_ranks, columns))
        self.ranks = [ranks for ranks, _ in ranked_values]
        self.rank_values = [values for _, values in ranked_values]
        self.ranked = [all(map(_ranked_equality, column)) for column in columns]
        self.typed = [numeric_typecode(column) is not None for column in columns]
        self.extremes = [
            ranked
            and (
                (distance._scale() is not None and all(map(is_real_number, column)))
                or distance.func in (trivial_distance, categorical_distance)
            )
            for ranked, distance, column in zip(self.ranked, (a.distance for a in attributes), columns)
        ]
        # A single tuple is its own representative: only a scanned distance can be nonzero there.
        self.scanned = [a for a, extremes in enumerate(self.extremes) if not extremes]
        self.worst: List[List[float]] = []  # per depth, per attribute: worst node distance
        self.worst_leaf: List[List[float]] = []  # the same over leaves only

    def build(self, start: int, end: int, depth: int) -> int:
        """The node for ``perm[start:end]`` and its subtree, in preorder; returns its number."""
        index, perm = self.index, self.perm
        segment = perm[start:end]
        size = end - start
        split, bounds = self._summarize(segment) if size > 1 else (None, [])
        if split is not None:
            segment.sort(key=self.ranks[split].__getitem__)
            perm[start:end] = segment
        rep = segment[size // 2]
        node = len(index._rep)
        per_node = (index._start, index._end, index._rep, index._depth, index._left, index._right)
        for values, value in zip(per_node, (start, end, rep, depth, -1, -1)):
            values.append(value)
        self._fold(depth, split is None, segment, rep, bounds)
        if split is not None:
            index._left[node] = self.build(start, start + size // 2, depth + 1)
            index._right[node] = self.build(start + size // 2, end, depth + 1)
        return node

    def _summarize(self, segment: List[int]) -> Tuple[Optional[int], List[Optional[Tuple[int, int]]]]:
        """The attribute with the widest spread over ``segment`` (``None`` if
        all are constant), and per ranked attribute the minimum and maximum rank."""
        best: Optional[Tuple[float, int]] = None
        bounds: List[Optional[Tuple[int, int]]] = []
        for a, column in enumerate(self.index._columns):
            if self.ranked[a]:
                present = set(map(self.ranks[a].__getitem__, segment))
                lo, hi = min(present), max(present)
                bounds.append((lo, hi))
                distinct = len(present)
            else:
                bounds.append(None)
                distinct = len(set(map(column.__getitem__, segment)))
            if distinct <= 1:
                continue
            if not self.numeric[a]:
                spread = float(distinct)
            elif self.ranked[a] and self.typed[a]:
                spread = float(self.rank_values[a][hi] - self.rank_values[a][lo])
            else:
                spread = _spread(list(map(column.__getitem__, segment)), distinct)
            if best is None or spread > best[0]:
                best = (spread, a)
        return (None if best is None else best[1]), bounds

    def _fold(
        self, depth: int, leaf: bool, segment: List[int], rep: int, bounds: List[Optional[Tuple[int, int]]]
    ) -> None:
        """Fold the node's worst distance to its representative, per attribute, into its depth's maxima."""
        while len(self.worst) <= depth:
            self.worst.append([0.0] * len(self.names))
            self.worst_leaf.append([0.0] * len(self.names))
        worst, worst_leaf = self.worst[depth], self.worst_leaf[depth]
        for a in range(len(self.names)) if bounds else self.scanned:
            column, distance = self.index._columns[a], self.distances[a]
            if self.extremes[a]:
                lo, hi = bounds[a]
                if lo == hi:
                    continue  # every value equals the representative's: distance 0
                values = (self.rank_values[a][lo], self.rank_values[a][hi])
            else:
                values = map(column.__getitem__, segment)
            rep_value = column[rep]
            far = 0.0
            for value in values:
                d = distance(rep_value, value)
                if d > far:
                    far = d
                    if far == INFINITY:
                        break
            if far > worst[a]:
                worst[a] = far
            if leaf and far > worst_leaf[a]:
                worst_leaf[a] = far

    def resolutions(self, max_level: int) -> List[Dict[str, float]]:
        """``d̄_k`` for ``k = 0..max_level``: the worst node distance over the
        nodes of depth ``k`` and the leaves above it — the level-``k`` frontiers."""
        levels: List[Dict[str, float]] = []
        above = [0.0] * len(self.names)
        for worst, worst_leaf in zip(self.worst[: max_level + 1], self.worst_leaf):
            levels.append(dict(zip(self.names, map(max, above, worst))))
            above = list(map(max, above, worst_leaf))
        return levels or [dict.fromkeys(self.names, 0.0)]
