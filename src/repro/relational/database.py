"""Database instances with tuple-access accounting.

The central promise of BEAS is that answering a query touches at most
``α·|D|`` tuples.  To make that promise *checkable*, every retrieval of
tuples from a :class:`Database` — whether a full scan, an index lookup, or an
access-template fetch — goes through :meth:`Database.count_access`, and an
:class:`AccessMeter` records the running total.  Tests and benchmarks assert
``meter.accessed <= alpha * database.total_tuples`` after executing a plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from ..errors import BudgetExceededError, SchemaError
from .relation import Relation
from .schema import DatabaseSchema


@dataclass
class AccessMeter:
    """Counts tuples accessed while answering one query.

    Attributes:
        accessed: number of tuples retrieved so far.
        budget: optional hard limit; exceeding it raises
            :class:`~repro.errors.BudgetExceededError`.
        enforce: when ``False`` the budget is recorded but not enforced
            (used by baselines that intentionally over-access, and by exact
            evaluation for measuring ground truth cost).

    :meth:`charge` is the definition; :meth:`charge_many` is how a fetch
    step pays for all of its ``X``-values at once, *before* it reads any
    value.  Its contract is equivalence: ``charge_many(counts, r)`` leaves
    the meter exactly as ``for c in counts: charge(c, r)`` would — the same
    ``accessed``, the same ``by_relation`` (an entry appears even when every
    count is 0, none when ``counts`` is empty), and when the budget is
    overrun the same ``BudgetExceededError(accessed, budget)`` raised at the
    same prefix of ``counts`` with the meter stopped there.
    """

    budget: Optional[int] = None
    enforce: bool = True
    accessed: int = 0
    by_relation: Dict[str, int] = field(default_factory=dict)

    def charge(self, count: int, relation_name: str = "") -> None:
        """Record ``count`` tuple accesses against the meter."""
        if count < 0:
            raise ValueError("access count must be non-negative")
        self.accessed += count
        if relation_name:
            self.by_relation[relation_name] = self.by_relation.get(relation_name, 0) + count
        if self.enforce and self.budget is not None and self.accessed > self.budget:
            raise BudgetExceededError(self.accessed, self.budget)

    def charge_many(self, counts: Iterable[int], relation_name: str = "") -> None:
        """:meth:`charge` every count in turn, in one addition when that is the same.

        Counts are non-negative, so no prefix overruns a budget the total
        stays within; only a batch that would cross it (or holds a count
        :meth:`charge` rejects) is replayed count by count, to stop where
        the loop would have.
        """
        counts = list(counts)
        if not counts:
            return
        total = sum(counts)
        over = self.enforce and self.budget is not None and self.accessed + total > self.budget
        if over or min(counts) < 0:
            for count in counts:
                self.charge(count, relation_name)
            return
        self.accessed += total
        if relation_name:
            self.by_relation[relation_name] = self.by_relation.get(relation_name, 0) + total

    def remaining(self) -> Optional[int]:
        """Budget still available, or ``None`` when unbounded."""
        if self.budget is None:
            return None
        return max(0, self.budget - self.accessed)

    def reset(self) -> None:
        """Zero the counters (budget unchanged)."""
        self.accessed = 0
        self.by_relation.clear()


class Database:
    """An instance ``D`` of a database schema, with access accounting."""

    def __init__(self, schema: DatabaseSchema, relations: Optional[Mapping[str, Relation]] = None) -> None:
        self.schema = schema
        self._relations: Dict[str, Relation] = {}
        self._epoch_base = 0
        for rel_schema in schema:
            self._relations[rel_schema.name] = Relation(rel_schema)
        if relations:
            for name, relation in relations.items():
                self.set_relation(name, relation)

    # -- construction -------------------------------------------------------
    @classmethod
    def from_relations(cls, relations: Sequence[Relation]) -> "Database":
        """Build a database directly from relation instances."""
        schema = DatabaseSchema([rel.schema for rel in relations])
        db = cls(schema)
        for rel in relations:
            db.set_relation(rel.schema.name, rel)
        return db

    def set_relation(self, name: str, relation: Relation) -> None:
        """Install (or replace) the instance of relation ``name``."""
        expected = self.schema.relation(name)
        if relation.schema.attribute_names != expected.attribute_names:
            raise SchemaError(
                f"relation instance for {name!r} has attributes "
                f"{relation.schema.attribute_names}, expected {expected.attribute_names}"
            )
        previous = self._relations.get(name)
        self._relations[name] = relation
        if previous is not None and previous.store is not relation.store:
            # Replacing an instance must keep the publication epoch strictly
            # monotonic even though the incoming store's own mutation counter
            # starts back at 0: fold the outgoing store's contribution (plus
            # one for the replacement itself) into the base term.
            self._epoch_base += previous.store.epoch + 1

    # -- size accounting ------------------------------------------------------
    @property
    def relation_names(self) -> Tuple[str, ...]:
        return self.schema.relation_names

    def relation(self, name: str) -> Relation:
        """The instance of relation ``name`` (no access charged)."""
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"no instance for relation {name!r}") from None

    @property
    def total_tuples(self) -> int:
        """``|D|`` — the total number of tuples across all relations."""
        return sum(len(rel) for rel in self._relations.values())

    def relation_sizes(self) -> Dict[str, int]:
        """Tuple counts per relation."""
        return {name: len(rel) for name, rel in self._relations.items()}

    @property
    def publication_epoch(self) -> int:
        """Monotonic epoch identifying the current contents of ``D``.

        Advances whenever any relation's store mutates in place (the same
        events that retire process-mode publications — see
        :attr:`repro.relational.store.Store.epoch`) or a relation instance
        is replaced via :meth:`set_relation`.  The serving layer keys its
        result cache on ``(fingerprint, α, enforce_budget,
        publication_epoch)``, so a result computed before a mutation can
        never answer a query after it — invalidation is by key rotation, exactly like the
        republish-on-mutation scheme of the process-parallel executor.
        """
        return self._epoch_base + sum(
            rel.store.epoch for rel in self._relations.values()
        )

    def restore_publication_epoch(self, epoch: int) -> None:
        """Pin :attr:`publication_epoch` to a persisted value.

        Used when reopening a dataset from disk
        (:func:`repro.relational.mmapstore.open_database`): the saved epoch
        must come back *exactly* — a restart is not a mutation, so cache
        keys minted before it stay valid after it.  Compensates for the
        epoch bumps :meth:`set_relation` folded in while the reopened
        relations were being installed.
        """
        epoch = int(epoch)
        if epoch < 0:
            raise ValueError(f"publication epoch must be >= 0, got {epoch}")
        self._epoch_base = epoch - sum(
            rel.store.epoch for rel in self._relations.values()
        )

    def budget_for(self, alpha: float) -> int:
        """The access budget ``⌊α·|D|⌋`` for a resource ratio ``alpha``."""
        if not 0 < alpha <= 1:
            raise ValueError(f"resource ratio alpha must be in (0, 1], got {alpha}")
        return max(1, int(alpha * self.total_tuples))

    def meter(self, alpha: Optional[float] = None, enforce: bool = True) -> AccessMeter:
        """A fresh :class:`AccessMeter`, budgeted at ``α·|D|`` when given."""
        budget = self.budget_for(alpha) if alpha is not None else None
        return AccessMeter(budget=budget, enforce=enforce)

    # -- metered access paths ---------------------------------------------------
    def scan(self, name: str, meter: Optional[AccessMeter] = None) -> Relation:
        """Full scan of a relation, charging one access per tuple."""
        relation = self.relation(name)
        if meter is not None:
            meter.charge(len(relation), name)
        return relation

    # -- misc -----------------------------------------------------------------
    def copy_subset(self, fractions: Mapping[str, float]) -> "Database":
        """A new database keeping only a prefix fraction of each relation.

        Used by scale-sweep experiments (Fig 6(e,f,j,l)) to derive smaller
        instances of the same dataset.
        """
        relations = []
        for name, rel in self._relations.items():
            frac = fractions.get(name, 1.0)
            keep = max(1, int(len(rel) * frac)) if len(rel) else 0
            relations.append(Relation(rel.schema, store=rel.store.head(keep)))
        return Database.from_relations(relations)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        sizes = ", ".join(f"{name}:{len(rel)}" for name, rel in self._relations.items())
        return f"Database({sizes})"
