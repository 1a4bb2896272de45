"""Exact (full-evaluation) baseline.

Stands in for the paper's PostgreSQL / MySQL runs: it evaluates queries over
the full dataset with no synopsis and no budget, providing both the ground
truth for accuracy measures and the unbounded-cost comparison point for the
scalability experiment (Exp-5 / Fig 6(l), where the DBMS "could not finish
within 3 hours" while BEAS plans stay bounded by ``α·|D|``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..algebra.ast import QueryNode
from ..algebra.evaluator import evaluate_exact
from ..relational.database import AccessMeter
from ..relational.relation import Relation, Row
from .base import Approximator


class ExactEvaluation(Approximator):
    """Full evaluation over the base relations (no approximation)."""

    name = "Exact"

    def _build_synopses(self, budget: int) -> Dict[str, Tuple[List[Row], List[float]]]:
        # Streamed from the columns: reading ``relation.rows`` would cache a
        # row-wise copy of every base relation on its store.
        synopses: Dict[str, Tuple[List[Row], List[float]]] = {}
        for name in self.database.relation_names:
            relation = self.database.relation(name)
            synopses[name] = (list(relation.store.iter_rows()), [1.0] * len(relation))
        return synopses

    def answer(self, query: QueryNode) -> Relation:
        return evaluate_exact(query, self.database)

    def answer_metered(self, query: QueryNode) -> Tuple[Relation, int]:
        """Answer and also report how many tuples the full evaluation scanned."""
        meter = AccessMeter(budget=None, enforce=False)
        result = evaluate_exact(query, self.database, meter)
        return result, meter.accessed
