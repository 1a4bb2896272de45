"""Test-only oracle: template indexes as one K-D tree object per ``X``-value.

How ``repro.access.index.TemplateIndex`` was built before it became flat
node lists over one permutation: a ``Relation`` of every group's ``Y``-values,
a tree of node objects each holding its subtree's row list, frontiers found
by walking the tree, and every level's resolution scanned tuple by tuple
with the distance functions.  ``tests/test_template_oracle.py`` holds the flat
index to this: the same levels, the same ``repr`` of every resolution, the
same frontiers (values of the same types, in the same order, with the same
counts), the same entry counts and the same fetches.

:func:`conforms` and :func:`check_conformance` check ``D |= ψ`` from the
definition (Section 2.1): every ``Y``-value of the base relation lies within
``d̄_Y`` of some fetched tuple, and no ``X``-value fetches more than ``N``.
"""

from array import array
from itertools import chain, repeat

from repro.relational.distance import INFINITY
from repro.relational.relation import Relation, value_sort_key
from repro.relational.store import _concat_buffers, _typed_buffer


class OracleNode:
    def __init__(self, indices, representative, depth):
        self.indices = indices
        self.representative = representative
        self.depth = depth
        self.left = self.right = None

    @property
    def is_leaf(self):
        return self.left is None and self.right is None


class OracleKDTree:
    """The levelled K-D tree over one relation: split on the widest spread, at the median."""

    def __init__(self, relation):
        self.schema = relation.schema
        self._columns = relation.store.columns()
        self._rows = relation.store.row_list()
        self.root = self._build(list(range(len(relation))), 0) if len(relation) else None
        self._levels = {}

    def _build(self, indices, depth):
        node = OracleNode(indices, self._rows[indices[len(indices) // 2]], depth)
        if len(indices) <= 1:
            return node
        position = self._choose_split(indices)
        if position is None:
            return node
        column = self._columns[position]
        ordered = sorted(indices, key=lambda i: value_sort_key(column[i]))
        mid = len(ordered) // 2
        node.representative = self._rows[ordered[mid]]
        node.left = self._build(ordered[:mid], depth + 1)
        node.right = self._build(ordered[mid:], depth + 1)
        return node

    def _choose_split(self, indices):
        best = None
        for position, attribute in enumerate(self.schema.attributes):
            column = self._columns[position]
            values = [column[i] for i in indices]
            distinct = set(values)
            if len(distinct) <= 1:
                continue
            if attribute.numeric:
                numeric = [v for v in values if isinstance(v, (int, float))]
                spread = float(max(numeric) - min(numeric)) if numeric else float(len(distinct))
            else:
                spread = float(len(distinct))
            if best is None or spread > best[0]:
                best = (spread, position)
        return None if best is None else best[1]

    def level_nodes(self, level):
        """Every node at depth ``level`` and every shallower leaf, right subtree first."""
        if self.root is None:
            return []
        if level not in self._levels:
            frontier, stack = [], [self.root]
            while stack:
                node = stack.pop()
                if node.depth == level or node.is_leaf:
                    frontier.append(node)
                else:
                    stack.append(node.left)
                    stack.append(node.right)
            self._levels[level] = frontier
        return self._levels[level]

    def representatives(self, level):
        return [(node.representative, len(node.indices)) for node in self.level_nodes(level)]

    def level_columns(self, level):
        nodes = self.level_nodes(level)
        return (
            [_typed_buffer(column)[1] for column in zip(*(node.representative for node in nodes))],
            array("d", [len(node.indices) for node in nodes]),
        )

    def resolution(self, level):
        """The worst distance from a frontier node's representative to a tuple below it."""
        resolution = {a.name: 0.0 for a in self.schema.attributes}
        for node in self.level_nodes(level):
            for position, attribute in enumerate(self.schema.attributes):
                column, rep_value, worst = self._columns[position], node.representative[position], 0.0
                for index in node.indices:
                    d = attribute.distance(rep_value, column[index])
                    if d > worst:
                        worst = d
                    if worst == INFINITY:
                        break
                if worst > resolution[attribute.name]:
                    resolution[attribute.name] = worst
        return resolution

    def exact_level(self):
        """The smallest level whose frontier is all leaves."""
        level = 0
        while self.root is not None and not all(node.is_leaf for node in self.level_nodes(level)):
            level += 1
        return level

    def node_count(self):
        count, stack = 0, [self.root] if self.root is not None else []
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend((node.left, node.right))
        return count


class OracleTemplateIndex:
    """A dict of :class:`OracleKDTree`, one per ``X``-value in first-seen order."""

    def __init__(self, relation, x, y, max_level=None):
        self.relation_name = relation.schema.name
        self.x, self.y = tuple(x), tuple(y)
        schema = relation.schema
        y_schema = schema.project(self.y, name=f"{schema.name}_y")
        groups = {}
        x_keys = relation.store.key_tuples(schema.positions(self.x))
        for key, value in zip(x_keys, relation.store.key_tuples(schema.positions(self.y))):
            groups.setdefault(key, []).append(value)
        self._trees = {key: OracleKDTree(Relation(y_schema, rows, backend="column")) for key, rows in groups.items()}
        natural_max = max((tree.exact_level() for tree in self._trees.values()), default=0)
        self.max_level = natural_max if max_level is None else min(max_level, natural_max)
        self._resolutions = []
        for level in range(self.max_level + 1):
            worst = {a: 0.0 for a in self.y}
            for tree in self._trees.values():
                for attribute, value in tree.resolution(level).items():
                    if value > worst[attribute]:
                        worst[attribute] = value
            self._resolutions.append(worst)

    def resolution(self, level):
        return dict(self._resolutions[min(max(level, 0), self.max_level)])

    def fetch(self, x_value, level):
        tree = self._trees.get(tuple(x_value))
        if tree is None:
            return []
        level = min(max(level, 0), self.max_level)
        return [(tuple(x_value) + rep, float(count)) for rep, count in tree.representatives(level)]

    def fetch_columns(self, x_values, level):
        level = min(max(level, 0), self.max_level)
        keys = [key for key in map(tuple, x_values) if key in self._trees]
        if not keys:
            return [[] for _ in self.x + self.y], []
        frontiers, counts = zip(*(self._trees[key].level_columns(level) for key in keys))
        sizes = list(map(len, counts))
        x_columns = [list(chain.from_iterable(map(repeat, values, sizes))) for values in zip(*keys)]
        y_columns = [_concat_buffers(parts) for parts in zip(*frontiers)]
        return x_columns + y_columns, list(chain.from_iterable(counts))

    def keys(self):
        return list(self._trees)

    @property
    def entry_count(self):
        return sum(tree.node_count() for tree in self._trees.values())


def conforms(relation, spec, fetched):
    """Whether ``relation |= spec``, given for each ``X``-value the ``Y``-tuples the index fetched.

    True iff (a) every sample has at most ``N`` distinct tuples and (b) every
    real ``Y``-value is within ``d̄_Y`` of some sample tuple on every ``Y``
    attribute.
    """
    schema = relation.schema
    x_positions = schema.positions(spec.x)
    y_positions = schema.positions(spec.y)
    distances = [schema.attribute(a).distance for a in spec.y]
    resolutions = [spec.resolution_of(a) for a in spec.y]

    groups = {}
    for row in relation:
        key = tuple(row[p] for p in x_positions)
        groups.setdefault(key, []).append(tuple(row[p] for p in y_positions))

    for key, y_values in groups.items():
        sample = list(fetched.get(key, ()))
        if len(set(sample)) > spec.n:
            return False
        if not sample and y_values:
            return False
        for y_value in y_values:
            if not any(
                all(dist(yv, cv) <= res for yv, cv, dist, res in zip(y_value, candidate, distances, resolutions))
                for candidate in sample
            ):
                return False
    return True


def check_conformance(schema, database, sample_levels=(0,)):
    """Whether ``database |= schema``: every constraint, and every family at ``sample_levels``.

    A level above a family's ``max_level`` checks its top level.  Builds
    every family.
    """
    for constraint in schema.constraints:
        fetched = {
            key: [row[len(constraint.spec.x):] for row, _ in constraint.fetch(key)]
            for key in constraint.index.keys()
        }
        if not conforms(database.relation(constraint.relation), constraint.spec, fetched):
            return False
    for family in schema.families:
        for level in sample_levels:
            level = min(level, family.max_level)
            fetched = {
                key: [row[len(family.x):] for row, _ in family.fetch(key, level)]
                for key in family.index.keys()
            }
            if not conforms(database.relation(family.relation), family.spec_at(level), fetched):
                return False
    return True
