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
on the first attribute of widest spread over its range (a numeric
attribute's spread is the range of its numbers, any other's its number of
distinct values; constant attributes never split), by a stable in-place sort
of the range on that attribute's *rank* (its place under
:func:`~repro.relational.relation.value_sort_key`, computed once per
attribute), so both median halves stay contiguous; the row at the middle of
the range (the first of the upper half) represents the node.

Every tree is built one depth at a time, all groups' nodes of a depth
together, so the Python cost is per depth and attribute, not per node: each
node's lowest and highest rank per attribute come from one ``map`` of
``min`` / ``max`` over the depth's ranges, and a distinct count is taken
only where a count as large as the node could still win the split.  Nodes
are numbered breadth first: the groups' roots ``0 .. G-1`` in group order,
then each depth's nodes left to right, so a node's children are
consecutive and follow every node of its own depth.  Per node, its range,
representative row, depth and children sit in flat lists; ``_groups`` maps
each ``X``-value to its root.  A level-``k`` frontier is every node of
depth ``k`` and every shallower leaf, right subtree first, gathered into
typed buffers once per ``(group, level)``.  Under the built-in numeric
distances over real numbers (monotone, float rounding included) and the
trivial and categorical ones, a node's worst distance to its representative
is the worse of its lowest- and highest-ranked values'; over a typed column
with no infinity that is one batched subtraction per extreme for the whole
depth.  ``STRING_PREFIX``, custom distances and columns holding ``None`` or
NaN scan each node's range.  ``d̄_k`` is the worst over the nodes of depth
``k`` and the leaves above them.  The ``Y`` columns are copied when the index is built —
the first time a plan binds its family, not when the family is declared: an
index answers from the data it was built over, the relation instance its
family was declared over.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import accumulate, chain, compress, repeat
from math import isnan
from operator import ge, gt, ne, sub
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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
        self._groups: Dict[Row, int] = dict(zip(groups, builder.build(list(map(len, groups.values())))))
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


def _value_ranks(column: Sequence[object]) -> Tuple[List[int], List[object], bool]:
    """Per row the rank of its value under :func:`value_sort_key`, the last
    value seen of every rank, and whether equal ranks mean equal values.

    Equal keys get equal ranks, so a stable sort by rank is the stable sort
    by :func:`value_sort_key` the K-D split has always used.  A typed column
    of machine ints, or of floats without NaN, is ranked by its sorted
    distinct numbers (``value_sort_key`` orders numbers by value): no key
    per value, and only ``-0.0`` and ``0.0`` share a rank.
    """
    code = numeric_typecode(column)
    if code is not None:
        last = dict(zip(column, column))  # each distinct number -> its last occurrence
        if code == "q" or not any(map(isnan, last)):
            ordered = sorted(last)
            rank_of = {value: rank for rank, value in enumerate(ordered)}
            return list(map(rank_of.__getitem__, column)), list(map(last.__getitem__, ordered)), True
    keys = list(map(value_sort_key, column))
    value_of = dict(zip(keys, column))
    ordered = sorted(value_of)
    rank_of = {key: rank for rank, key in enumerate(ordered)}
    ranked = all(map(_ranked_equality, column))
    return list(map(rank_of.__getitem__, keys)), list(map(value_of.__getitem__, ordered)), ranked


def _ranked_equality(value: object) -> bool:
    """Whether ``value`` equals exactly the values of its rank (NaN equals none)."""
    return value is None or (type(value) in (bool, int, float, str) and value == value)


def _far(distance: Callable[[object, object], float], rep_value: object, values: Iterable[object]) -> float:
    """The worst ``distance(rep_value, value)`` over ``values``, 0.0 if none is positive."""
    far = 0.0
    for value in values:
        d = distance(rep_value, value)
        if d > far:
            far = d
            if far == INFINITY:
                break
    return far


# Below every spread: the attribute is constant over the node, so it cannot split it.
_NO_SPLIT = -1.0
# Distances whose worst over a node is one fixed value as soon as two of its values differ.
_MISMATCH_DISTANCES = (trivial_distance, categorical_distance)


def _widest(spreads: List[List[float]], nodes: int, nan_nodes: List[int]) -> List[float]:
    """Per node the widest of ``spreads`` (NaN aside), but ``_NO_SPLIT`` at ``nan_nodes``."""
    widest = list(map(max, repeat(_NO_SPLIT), *spreads)) if spreads else [_NO_SPLIT] * nodes
    for j in nan_nodes:
        widest[j] = _NO_SPLIT
    return widest


class _TreeBuilder:
    """Builds a :class:`TemplateIndex`'s trees one depth at a time (layout: module docstring).

    Per attribute: ``ranked`` — equal ranks mean equal values, so a node's
    distinct values are its distinct ranks; ``extremes`` — a node's worst
    distance is the worse of its extremes'; ``floats`` — the float image of
    its rank values where that worst is one subtraction per extreme (a
    built-in numeric distance over a finite typed column); ``bounded`` —
    its rank bounds per node are read; and how its split spread is found:

    * ``ranged`` — a numeric attribute of one number type: the difference
      of its extreme rank values;
    * ``unique`` — a non-numeric column of distinct values: the node's size;
    * ``counted`` — another ranked non-numeric attribute: the node's number
      of distinct ranks, counted only where a count as large as the node
      could still win the split against the other kinds' spreads;
    * ``scanned`` — the rest: read off the node's values (:func:`_spread`).
    """

    def __init__(self, index: TemplateIndex, attributes: Sequence[Attribute], perm: List[int]) -> None:
        self.index = index
        self.perm = perm
        self.names = [attribute.name for attribute in attributes]
        self.numeric = [attribute.numeric for attribute in attributes]
        self.distances = [attribute.distance.func for attribute in attributes]
        self.ranks: List[List[int]] = []
        self.rank_values: List[List[object]] = []
        self.ranked: List[bool] = []
        self.extremes: List[bool] = []
        self.floats: List[Optional[List[float]]] = []
        self.scales: List[Optional[float]] = []
        self.kinds: List[str] = []
        for attribute, column in zip(attributes, index._columns):
            ranks, values, ranked = _value_ranks(column)
            typed = numeric_typecode(column) is not None
            scale = attribute.distance._scale()
            extremes = ranked and (
                (scale is not None and (typed or all(map(is_real_number, column))))
                or attribute.distance.func in _MISMATCH_DISTANCES
            )
            # inf - inf is NaN where the distance reads 0: a column holding an infinity is not batched.
            finite = typed and (not values or (values[0] != -INFINITY and values[-1] != INFINITY))
            self.ranks.append(ranks)
            self.rank_values.append(values)
            self.ranked.append(ranked)
            self.extremes.append(extremes)
            self.floats.append(list(map(float, values)) if extremes and scale is not None and finite else None)
            self.scales.append(scale)
            if ranked and attribute.numeric:
                self.kinds.append("ranged" if typed else "scanned")
            elif ranked:
                self.kinds.append("unique" if len(values) == len(column) else "counted")
            else:
                self.kinds.append("scanned")
        # A trivial or categorical attribute's worst is read off whether any node's extremes differ.
        self.mismatched = [
            a for a, extremes in enumerate(self.extremes) if extremes and self.distances[a] in _MISMATCH_DISTANCES
        ]
        self.bounded = [
            a
            for a, kind in enumerate(self.kinds)
            if kind == "ranged" or (self.extremes[a] and a not in self.mismatched)
        ]
        # Only the range of a scanned numeric attribute can be NaN.
        self.nan_spreads = [a for a, kind in enumerate(self.kinds) if kind == "scanned" and self.numeric[a]]
        # A single tuple is its own representative: only a scanned distance can be nonzero there.
        self.scanned = [a for a, extremes in enumerate(self.extremes) if not extremes]
        self.worst: List[List[float]] = []  # per depth, per attribute: worst node distance
        self.worst_leaf: List[List[float]] = []  # the same over leaves only

    def build(self, sizes: Sequence[int]) -> List[int]:
        """Build one tree per group (``sizes``: the groups' consecutive ranges
        of ``perm``), depth by depth; returns the roots' numbers."""
        ends = list(accumulate(sizes))
        starts = list(map(sub, ends, sizes))
        sorted_by = [-1] * len(starts)
        depth = 0
        while starts:
            starts, ends, sorted_by = self._level(depth, starts, ends, sorted_by)
            depth += 1
        return list(range(len(sizes)))

    def _level(
        self, depth: int, starts: List[int], ends: List[int], sorted_by: List[int]
    ) -> Tuple[List[int], List[int], List[int]]:
        """Number the nodes of ``depth`` (``perm[start:end]`` each, in order,
        already sorted by attribute ``sorted_by``), split them, and return
        their children's ranges and sort attributes."""
        index, perm = self.index, self.perm
        sizes = list(map(sub, ends, starts))
        multi = list(compress(range(len(sizes)), map(gt, sizes, repeat(1))))
        spans = [slice(starts[j], ends[j]) for j in multi]
        splits, bounds, differs = self._splits(spans) if spans else ([], {}, {})
        split_of = [-1] * len(sizes)
        for j, span, a in zip(multi, spans, splits):
            if a >= 0:
                if a != sorted_by[j]:  # a range of a sorted range is sorted
                    perm[span] = sorted(perm[span], key=self.ranks[a].__getitem__)
                split_of[j] = a
        reps = [perm[start + size // 2] for start, size in zip(starts, sizes)]
        self._worst(starts, ends, reps, split_of, [reps[j] for j in multi], bounds, differs)

        # Children are numbered after every node of this depth, pairwise in their parents' order.
        first_child = len(index._rep) + len(sizes)
        left, right = [-1] * len(sizes), [-1] * len(sizes)
        child_starts: List[int] = []
        child_ends: List[int] = []
        child_sorted_by: List[int] = []
        for j in compress(range(len(sizes)), map(ge, split_of, repeat(0))):
            middle = starts[j] + sizes[j] // 2
            left[j] = first_child + len(child_starts)
            right[j] = left[j] + 1
            child_starts += (starts[j], middle)
            child_ends += (middle, ends[j])
            child_sorted_by += (split_of[j], split_of[j])
        index._start += starts
        index._end += ends
        index._rep += reps
        index._depth += repeat(depth, len(sizes))
        index._left += left
        index._right += right
        return child_starts, child_ends, child_sorted_by

    def _splits(
        self, spans: List[slice]
    ) -> Tuple[List[int], Dict[int, Tuple[List[int], List[int]]], Dict[int, bool]]:
        """Per multi-row node (``perm[span]``) the attribute it splits on — the
        first of the widest spread, -1 if all are constant over it; per
        bounded attribute the nodes' lowest and highest ranks; and per
        trivial or categorical attribute whether any node's extremes differ."""
        rows = list(chain.from_iterable(map(self.perm.__getitem__, spans)))  # scratch of this depth
        sizes = [span.stop - span.start for span in spans]
        cuts = list(accumulate(sizes))
        local = list(map(slice, chain((0,), cuts), cuts))  # each node's part of rows
        bounds: Dict[int, Tuple[List[int], List[int]]] = {}
        for a in self.bounded:
            ranks = list(map(self.ranks[a].__getitem__, rows))
            parts = list(map(ranks.__getitem__, local))
            bounds[a] = list(map(min, parts)), list(map(max, parts))
        spreads: List[Optional[List[float]]] = [None] * len(self.names)
        for a, kind in enumerate(self.kinds):
            if kind == "ranged":
                values = self.rank_values[a]
                spreads[a] = [float(values[hi] - values[lo]) if hi != lo else _NO_SPLIT for lo, hi in zip(*bounds[a])]
            elif kind == "unique":
                spreads[a] = list(map(float, sizes))
            elif kind == "scanned":
                spreads[a] = self._scanned_spreads(a, rows, local)
        # The first attribute of the widest spread wins, so a count wins only
        # above every earlier spread and at least at every later one; it is at
        # most the node's size, so it is not taken where that size is not.  A
        # NaN spread wins as the first candidate: its node's counts are all taken.
        eager = [a for a, spread in enumerate(spreads) if spread is not None]
        nan_nodes = [j for a in self.nan_spreads for j in compress(range(len(spans)), map(isnan, spreads[a]))]
        for a, kind in enumerate(self.kinds):
            if kind == "counted":
                before = _widest([spreads[b] for b in eager if b < a], len(spans), nan_nodes)
                after = _widest([spreads[b] for b in eager if b > a], len(spans), nan_nodes)
                ranks = list(map(self.ranks[a].__getitem__, rows))
                counts = [
                    len(set(ranks[part])) if size > low and size >= high else 0
                    for part, size, low, high in zip(local, sizes, before, after)
                ]
                spreads[a] = [float(n) if n > 1 else _NO_SPLIT for n in counts]
        best = [_NO_SPLIT] * len(spans)
        split = [-1] * len(spans)
        for a, spread in enumerate(spreads):
            if a in self.nan_spreads:
                # A NaN spread wins only as the first candidate, and then for good.
                spread = [INFINITY if s != s and b == _NO_SPLIT else s for s, b in zip(spread, best)]
            for j in compress(range(len(spans)), map(gt, spread, best)):
                best[j] = spread[j]
                split[j] = a
        differs: Dict[int, bool] = {}
        for a in self.mismatched:
            if a in bounds:
                differs[a] = any(map(ne, *bounds[a]))
            elif any(map(gt, spreads[a], repeat(_NO_SPLIT))):
                differs[a] = True  # a candidate's values differ
            else:  # no spread was taken where they might: look
                ranks = list(map(self.ranks[a].__getitem__, rows))
                differs[a] = any(len(set(part)) > 1 for part in map(ranks.__getitem__, local))
        return split, bounds, differs

    def _scanned_spreads(self, a: int, rows: List[int], local: List[slice]) -> List[float]:
        """Attribute ``a``'s spread over each node, read off the node's values."""
        values = list(map(self.index._columns[a].__getitem__, rows))
        ranks = list(map(self.ranks[a].__getitem__, rows)) if self.ranked[a] else values
        spreads = []
        for part in local:
            distinct = len(set(ranks[part]))
            if distinct <= 1:
                spreads.append(_NO_SPLIT)
            elif self.numeric[a]:
                spreads.append(_spread(values[part], distinct))
            else:
                spreads.append(float(distinct))
        return spreads

    def _worst(
        self,
        starts: List[int],
        ends: List[int],
        reps: List[int],
        split_of: List[int],
        multi_reps: List[int],
        bounds: Dict[int, Tuple[List[int], List[int]]],
        differs: Dict[int, bool],
    ) -> None:
        """Record the depth's worst node distance to its representative, per
        attribute, over all its nodes and over its leaves."""
        columns, perm = self.index._columns, self.perm
        worst = [0.0] * len(self.names)
        worst_leaf = [0.0] * len(self.names)
        for a, extremes in enumerate(self.extremes):
            if not extremes or not multi_reps:
                continue  # a leaf's extremes are equal: only split nodes count
            distance, floats, values = self.distances[a], self.floats[a], self.rank_values[a]
            if floats is not None:
                # IEEE subtraction is sign-symmetric and division monotone: the
                # worst |rep - extreme| / scale is the worst difference / scale.
                lows, highs = bounds[a]
                rep_floats = list(map(floats.__getitem__, map(self.ranks[a].__getitem__, multi_reps)))
                above = max(map(sub, map(floats.__getitem__, highs), rep_floats))
                below = max(map(sub, rep_floats, map(floats.__getitem__, lows)))
                far = max(above, below) / self.scales[a]
                worst[a] = far if far > 0.0 else 0.0
            elif a in differs:
                # A node whose extremes differ is as far as any two different values are.
                if differs[a]:
                    worst[a] = distance(values[0], values[-1])
            else:
                column = columns[a]
                for rep, lo, hi in zip(multi_reps, *bounds[a]):
                    if lo != hi:
                        far = _far(distance, column[rep], (values[lo], values[hi]))
                        if far > worst[a]:
                            worst[a] = far
        for a in self.scanned:
            column, distance = columns[a], self.distances[a]
            for start, end, rep, split in zip(starts, ends, reps, split_of):
                far = _far(distance, column[rep], map(column.__getitem__, perm[start:end]))
                if far > worst[a]:
                    worst[a] = far
                if split < 0 and far > worst_leaf[a]:
                    worst_leaf[a] = far
        self.worst.append(worst)
        self.worst_leaf.append(worst_leaf)

    def resolutions(self, max_level: int) -> List[Dict[str, float]]:
        """``d̄_k`` for ``k = 0..max_level``: the worst node distance over the
        nodes of depth ``k`` and the leaves above it — the level-``k`` frontiers."""
        levels: List[Dict[str, float]] = []
        above = [0.0] * len(self.names)
        for worst, worst_leaf in zip(self.worst[: max_level + 1], self.worst_leaf):
            levels.append(dict(zip(self.names, map(max, above, worst))))
            above = list(map(max, above, worst_leaf))
        return levels or [dict.fromkeys(self.names, 0.0)]
