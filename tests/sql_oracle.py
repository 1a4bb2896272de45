"""An exact-answer oracle outside the engine: stdlib ``sqlite3``.

:func:`load` copies a :class:`~repro.relational.database.Database` into an
in-memory SQLite connection, one table per relation with its columns in
schema order; :func:`answer` runs SQL text there unchanged.  The queries
:class:`~repro.workloads.querygen.QueryGenerator` writes are plain SQL
(``select … from … where … group by …`` and ``except``), so SQLite reads
them as they are.

**How answers compare.**  Both sides are reduced to their *distinct* rows,
each value through :func:`normalize`:

* a float is rounded to 6 decimal places, because ``avg`` and ``sum`` add
  the same values in a different order (SQLite in its scan order, the
  engine group by group), and the last bits differ;
* a float with an integral value reads as an int, because SQLite's ``sum``
  of an integer column is an integer where the engine's may be a float
  (``10`` against ``10.0``), and a whole-valued ``avg`` meets both.

**A documented semantic difference.**  The engine refuses, with
:exc:`~repro.errors.QueryError`, an ``except`` that pairs a numeric column
with a string one (:func:`~repro.algebra.ast.check_difference_types`).
SQLite evaluates such a query under its own type affinity.  The tests pin
that difference instead of comparing the answers.
"""

from __future__ import annotations

import sqlite3
from typing import FrozenSet, Iterable, Tuple

from repro.relational.database import Database


def _quoted(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def load(database: Database) -> sqlite3.Connection:
    """A fresh in-memory connection holding every relation of ``database``."""
    connection = sqlite3.connect(":memory:")
    for name in database.relation_names:
        relation = database.relation(name)
        columns = ", ".join(_quoted(attribute) for attribute in relation.schema.attribute_names)
        marks = ", ".join("?" * len(relation.schema))
        connection.execute(f"create table {_quoted(name)} ({columns})")
        connection.executemany(f"insert into {_quoted(name)} values ({marks})", relation.rows)
    connection.commit()
    return connection


def normalize(value: object) -> object:
    """``value`` under the float rule above; every other value as it is."""
    if isinstance(value, float) and value == value and abs(value) != float("inf"):
        if value.is_integer():
            return int(value)
        return round(value, 6)
    return value


def distinct_rows(rows: Iterable[Tuple[object, ...]]) -> FrozenSet[Tuple[object, ...]]:
    """The distinct rows of ``rows``, every value normalized."""
    return frozenset(tuple(map(normalize, row)) for row in rows)


def answer(connection: sqlite3.Connection, sql: str) -> FrozenSet[Tuple[object, ...]]:
    """SQLite's distinct, normalized answer to ``sql``."""
    return distinct_rows(connection.execute(sql).fetchall())
