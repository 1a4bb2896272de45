"""Exception hierarchy for the BEAS reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Each subclass maps to one subsystem of the library.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A relation/database schema is malformed or used inconsistently."""


class QueryError(ReproError):
    """A query is syntactically or semantically invalid."""


class ParseError(QueryError):
    """The SQL-ish parser could not parse the input string."""


class AccessSchemaError(ReproError):
    """An access template or access schema is malformed or violated."""


class PlanError(ReproError):
    """A bounded query plan is malformed or cannot be generated."""


class BudgetExceededError(PlanError):
    """A plan attempted to access more tuples than its budget ``α·|D|``."""

    def __init__(self, accessed: int, budget: int) -> None:
        super().__init__(
            f"plan accessed {accessed} tuples, exceeding budget {budget}"
        )
        self.accessed = accessed
        self.budget = budget


class EvaluationError(ReproError):
    """A query plan or algebra expression failed during evaluation."""


class StorageError(ReproError):
    """The persistent storage tier failed or refused an operation."""


class CorruptShardError(StorageError, ValueError):
    """An on-disk dataset file failed structural or checksum validation.

    Subclasses :exc:`ValueError` as well, because pre-checksum callers
    treated every malformed dataset file as a ``ValueError`` — existing
    ``except ValueError`` handling keeps working.  ``quarantined_to`` is
    filled in when the opener moved the damaged file aside, and is ``None``
    when the rename failed.
    """

    def __init__(self, path: str, reason: str, quarantined_to: "str | None" = None) -> None:
        super().__init__(f"corrupt dataset file {path!r}: {reason}")
        self.path = path
        self.reason = reason
        self.quarantined_to = quarantined_to

    def __reduce__(self):
        # Rebuilt from its fields, so an open that fails inside a worker
        # process reaches the parent as this error, not as a broken pool.
        return type(self), (self.path, self.reason, self.quarantined_to)


class ServingError(ReproError):
    """The query-serving layer is misconfigured or failed to serve."""

