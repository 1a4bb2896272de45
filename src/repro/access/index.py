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
  are computed at build time as the worst representative-to-descendant
  distance across all groups.

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
a tuple to ``D_R`` (ROADMAP item 1(c)) adds its entry at the end of the
table and replaces the ``X``-value's ``range`` by a list with the new row
number last, leaving every other group's rows — and first-seen order —
untouched; ``n`` becomes a ``max`` with the grown group's length, and a typed
column that meets a value of another type is demoted to a list first, as a
``ColumnStore`` buffer is.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import chain, repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..relational.database import AccessMeter
from ..relational.kdtree import KDTree
from ..relational.relation import Relation, Row
from ..relational.store import _concat_buffers, _gather, _typed_buffer
from .template import TemplateSpec

FetchedRow = Tuple[Row, float]  # (X ∪ Y values, represented-tuple count)
# One value buffer per X ∪ Y attribute, plus the represented-tuple counts.
FetchedColumns = Tuple[List[Sequence[object]], List[float]]


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
    """Levelled K-D-tree index for a family of access templates.

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
        schema = relation.schema
        self._y_schema = schema.project(self.y, name=f"{schema.name}_y")
        store = relation.store
        groups: Dict[Row, List[Row]] = {}
        x_keys = store.key_tuples(schema.positions(self.x))
        for key, value in zip(x_keys, store.key_tuples(schema.positions(self.y))):
            groups.setdefault(key, []).append(value)

        self._trees: Dict[Row, KDTree] = {
            key: KDTree(Relation(self._y_schema, rows)) for key, rows in groups.items()
        }

        # The deepest level worth materialising: beyond it every frontier node
        # is a single tuple and the resolution is 0.
        natural_max = max(
            (tree.exact_level() for tree in self._trees.values()), default=0
        )
        self.max_level = natural_max if max_level is None else min(max_level, natural_max)
        self._resolutions: Dict[int, Dict[str, float]] = {}
        self._precompute_resolutions()

    # -- resolutions -------------------------------------------------------------
    def _precompute_resolutions(self) -> None:
        for level in range(self.max_level + 1):
            worst: Dict[str, float] = {a: 0.0 for a in self.y}
            for tree in self._trees.values():
                res = tree.resolution(level)
                for attribute, value in res.items():
                    if value > worst[attribute]:
                        worst[attribute] = value
            self._resolutions[level] = worst

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
        tree = self._trees.get(tuple(x_value))
        if tree is None:
            return []
        reps = tree.representatives(level)
        if meter is not None:
            meter.charge(len(reps), self.relation_name)
        key = tuple(x_value)
        return [(key + rep, float(count)) for rep, count in reps]

    def fetch_columns(
        self,
        x_values: Iterable[Sequence[object]],
        level: int,
        meter: Optional[AccessMeter] = None,
    ) -> FetchedColumns:
        """:meth:`fetch` for a batch of ``X``-values, emitted column-wise
        (see :meth:`ConstraintIndex.fetch_columns`; same metering)."""
        level = min(max(level, 0), self.max_level)
        keys = list(filter(self._trees.__contains__, map(tuple, x_values)))
        if not keys:
            return [[] for _ in self.x + self.y], []
        # Per tree its frontier's columns and counts, cached by the tree per level.
        frontiers, counts = zip(*(self._trees[key].level_columns(level) for key in keys))
        sizes = list(map(len, counts))
        if meter is not None:
            meter.charge_many(sizes, self.relation_name)
        x_columns = [list(chain.from_iterable(map(repeat, values, sizes))) for values in zip(*keys)]
        y_columns = [_concat_buffers(parts) for parts in zip(*frontiers)]
        return x_columns + y_columns, list(chain.from_iterable(counts))

    def keys(self) -> List[Tuple[object, ...]]:
        """All distinct ``X``-values with a tree (``[()]`` when ``X = ∅``)."""
        return list(self._trees)

    # -- size accounting ----------------------------------------------------------
    @property
    def entry_count(self) -> int:
        """Total number of stored representatives (tree nodes) across groups."""
        return sum(tree.node_count() for tree in self._trees.values())

    def levels(self) -> List[int]:
        return list(range(self.max_level + 1))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"TemplateIndex({self.relation_name}: {self.x or '∅'} -> {self.y}, "
            f"levels 0..{self.max_level}, {len(self._trees)} groups)"
        )
