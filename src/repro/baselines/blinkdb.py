"""``BlinkDB``-style stratified sampling (after Agarwal et al., EuroSys 2013).

BlinkDB assumes *predictable* query column sets (QCS): the columns used for
grouping and filtering do not change much over time.  It builds stratified
samples over those column sets — for every distinct combination of QCS
values it keeps up to ``K`` rows — so that rare groups survive sampling, and
answers restricted aggregate queries (no ``min``/``max``, limited joins) over
the samples with per-stratum scale-up weights.

The paper could not drive the real BlinkDB's resource knobs and therefore
simulated its stratified-sampling strategy while capping the sample size at
``α·|D|``; this class is the same simulation.  The QCS columns default to
each relation's categorical attributes (the columns the workloads group and
filter on), which is the favourable setting for BlinkDB.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..algebra.aggregates import AggregateFunction
from ..algebra.ast import GroupBy, QueryNode
from ..relational.relation import Row
from .base import Approximator


class StratifiedSampling(Approximator):
    """BlinkDB-style stratified samples over declared QCS columns."""

    name = "BlinkDB"

    def __init__(
        self,
        database,
        qcs_columns: Optional[Mapping[str, Sequence[str]]] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(database, seed)
        self.qcs_columns = {k: list(v) for k, v in (qcs_columns or {}).items()}

    def _build_synopses(self, budget: int) -> Dict[str, Tuple[List[Row], List[float]]]:
        rng = random.Random(self.seed)
        budgets = self._relation_budgets(self.database, budget)
        synopses: Dict[str, Tuple[List[Row], List[float]]] = {}
        for name in self.database.relation_names:
            relation = self.database.relation(name)
            allowance = budgets.get(name, 0)
            if len(relation) == 0 or allowance == 0:
                synopses[name] = ([], [])
                continue
            columns = [c for c in self.qcs_columns.get(name, []) if c in relation.schema]
            if not columns:
                # No QCS declared for this relation: fall back to uniform rows.
                keep = min(len(relation), allowance)
                rows = list(relation.store.take(rng.sample(range(len(relation)), keep)).iter_rows())
                weight = len(relation) / keep
                synopses[name] = (rows, [weight] * keep)
                continue
            strata = relation.group_by(columns)
            cap = max(1, allowance // max(1, len(strata)))
            rows: List[Row] = []
            weights: List[float] = []
            for stratum_rows in strata.values():
                keep = min(len(stratum_rows), cap)
                chosen = rng.sample(stratum_rows, keep)
                weight = len(stratum_rows) / keep
                rows.extend(chosen)
                weights.extend([weight] * keep)
            synopses[name] = (rows, weights)
        return synopses

    def supports(self, query: QueryNode) -> bool:
        """BlinkDB handles aggregate queries other than ``min``/``max``."""
        if not isinstance(query, GroupBy):
            return False
        return query.aggregate not in (AggregateFunction.MIN, AggregateFunction.MAX)
