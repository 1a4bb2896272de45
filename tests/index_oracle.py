"""Test-only oracle: the access path one value at a time.

What ``repro.access.index``, ``AccessMeter.charge_many``,
``PlanExecutor._input_values`` and the probe of ``Evaluator._hash_join`` did
before they worked per step: a dict-of-dicts constraint index filled by a scan
of the relation's rows, a meter charged once per ``X``-value as its values
are read, template columns extended value list by value list, ``X``-values
merged from one dict per distinct value, and three appends per joined pair.
``tests/test_index_oracle.py`` holds the per-step code under ``src/`` to
these: same values of the same types in the same order, same weights, the
same meter after every step and the same ``BudgetExceededError`` when the
budget runs out.
"""

import itertools
from itertools import repeat

from repro.algebra.evaluator import Frame
from repro.core.executor import PlanExecutor
from repro.errors import PlanError


class OracleConstraintIndex:
    """``X``-value → {``Y``-value → duplicate count}, both in first-seen order."""

    def __init__(self, relation, x, y):
        self.relation_name = relation.schema.name
        self.x, self.y = tuple(x), tuple(y)
        x_positions = relation.schema.positions(self.x)
        y_positions = relation.schema.positions(self.y)
        self._groups = {}
        for row in relation:
            key = tuple(row[p] for p in x_positions)
            value = tuple(row[p] for p in y_positions)
            bucket = self._groups.setdefault(key, {})
            bucket[value] = bucket.get(value, 0) + 1
        self.n = max((len(v) for v in self._groups.values()), default=1)

    def fetch(self, x_value, meter=None):
        key = tuple(x_value)
        values = self._groups.get(key, {})
        if meter is not None:
            meter.charge(len(values), self.relation_name)
        return [(key + value, float(count)) for value, count in values.items()]

    def fetch_columns(self, x_values, meter=None):
        keys, y_rows, weights = [], [], []
        for x_value in x_values:
            key = tuple(x_value)
            values = self._groups.get(key, {})
            if meter is not None:
                meter.charge(len(values), self.relation_name)
            keys.extend(repeat(key, len(values)))
            y_rows.extend(values)
            weights.extend(map(float, values.values()))
        if not y_rows:
            return [[] for _ in self.x + self.y], weights
        return list(zip(*keys)) + list(zip(*y_rows)), weights

    def keys(self):
        return list(self._groups)

    @property
    def entry_count(self):
        return sum(len(v) for v in self._groups.values())


def _frontier(index, key, level):
    """``(representative, size)`` of every node of ``key``'s frontier at ``level``, read off the node lists."""
    root = index._groups.get(key)
    if root is None:
        return None
    nodes = index.frontier(root, min(max(level, 0), index.max_level))
    return [
        (tuple(column[index._rep[node]] for column in index._columns), index._end[node] - index._start[node])
        for node in nodes
    ]


def template_fetch(index, x_value, level, meter=None):
    """``TemplateIndex.fetch`` from the frontier nodes themselves."""
    nodes = _frontier(index, tuple(x_value), level)
    if nodes is None:
        return []
    if meter is not None:
        meter.charge(len(nodes), index.relation_name)
    return [(tuple(x_value) + rep, float(size)) for rep, size in nodes]


def template_fetch_columns(index, x_values, level, meter=None):
    """``TemplateIndex.fetch_columns`` extending Python lists, one tree and one charge at a time."""
    x_columns = [[] for _ in index.x]
    y_columns = [[] for _ in index.y]
    weights = []
    for x_value in x_values:
        key = tuple(x_value)
        nodes = _frontier(index, key, level)
        if nodes is None:
            continue
        if meter is not None:
            meter.charge(len(nodes), index.relation_name)
        for column, value in zip(x_columns, key):
            column.extend(repeat(value, len(nodes)))
        for column, values in zip(y_columns, zip(*(rep for rep, _ in nodes))):
            column.extend(values)
        weights.extend(float(size) for _, size in nodes)
    return x_columns + y_columns, weights


def charge_each(meter, counts, relation_name=""):
    """What ``AccessMeter.charge_many`` must be indistinguishable from."""
    for count in counts:
        meter.charge(count, relation_name)


def input_values(step_frames, step):
    """``PlanExecutor._input_values`` merging one dict per distinct value and per combination."""
    const_values = {}
    by_step = {}
    for source in step.sources:
        if source.kind == "const":
            const_values[source.attribute] = source.value
        else:
            by_step.setdefault(source.step, []).append((source.attribute, source.column))
    group_choices = []
    for step_name, pairs in by_step.items():
        frame = step_frames.get(step_name)
        if frame is None:
            raise PlanError(f"fetch step {step.name} reads from {step_name} before it ran")
        positions = [frame.schema.position(column) for _, column in pairs]
        seen = {}
        for values in frame.key_tuples(positions):
            seen.setdefault(values, None)
        group_choices.append([dict(zip((attr for attr, _ in pairs), values)) for values in seen])
    x_order = step.accessor.x
    if not group_choices:
        return [tuple(const_values[a] for a in x_order)]
    seen_combo = {}
    for parts in itertools.product(*group_choices):
        merged = dict(const_values)
        for part in parts:
            merged.update(part)
        seen_combo.setdefault(tuple(merged[a] for a in x_order), None)
    return list(seen_combo)


class OracleIndexes:
    """The constraint indexes of an access schema rebuilt as oracles (by a row scan of ``database``)."""

    def __init__(self, database, access_schema):
        self._by_index = {
            id(constraint.index): OracleConstraintIndex(
                database.relation(constraint.relation), constraint.spec.x, constraint.spec.y
            )
            for constraint in access_schema.constraints
        }

    def of(self, index):
        return self._by_index[id(index)]

    def fetch_columns(self, accessor, x_values, meter):
        if accessor.constraint:
            return self.of(accessor.constraint.index).fetch_columns(x_values, meter)
        return template_fetch_columns(accessor.family.index, x_values, accessor.level, meter)


class OracleExecutor(PlanExecutor):
    """``PlanExecutor`` whose fetch steps go through the oracles above."""

    def __init__(self, database, plan, meter, oracles):
        super().__init__(database, plan, meter)
        self._oracles = oracles

    def _input_values(self, step):
        return input_values(self._step_frames, step)

    def _run_step(self, step):
        schema = self._step_schema(step)
        columns, weights = self._oracles.fetch_columns(step.accessor, self._input_values(step), self.meter)
        store_cls = type(self.database.relation(step.relation).store).in_memory_class()
        return Frame(schema, weights=weights, store=store_cls.from_columns(len(schema), columns))


def join_pairs(left_keys, left_weights, right_keys, right_weights):
    """Strict-equality hash join, three appends per pair: (left indices, right indices, weights)."""
    buckets = {}
    for j, key in enumerate(right_keys):
        buckets.setdefault(key, []).append(j)
    left_indices, right_indices, weights = [], [], []
    for i, key in enumerate(left_keys):
        hits = buckets.get(key)
        if hits:
            weight = left_weights[i]
            for j in hits:
                left_indices.append(i)
                right_indices.append(j)
                weights.append(weight * right_weights[j])
    return left_indices, right_indices, weights
