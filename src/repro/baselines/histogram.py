"""``Histo`` — multi-dimensional-histogram approximation (after Ioannidis & Poosala).

Each relation gets a multi-dimensional histogram of at most its share of the
``α·|D|`` budget: tuples are partitioned into buckets by recursively splitting
on the attribute with the widest spread (the canonical template index's K-D
levels — histograms and levelled K-D trees coincide at a fixed level),
and each bucket is summarised by a representative tuple plus the bucket's
tuple count.  Queries are answered over the representatives, with bucket
counts as weights so aggregates estimate totals rather than counting buckets.

The crucial difference from BEAS is that the histogram is *one-size-fits-all*:
its resolution is fixed when the synopsis is built, whereas BEAS re-allocates
the same budget per query, guided by the query's own selections (dynamic data
reduction, Fig. 1).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from ..access.index import TemplateIndex
from ..relational.relation import Row
from .base import Approximator


class MultiDimHistogram(Approximator):
    """Bucketised per-relation synopses with representative tuples and counts."""

    name = "Histo"

    def _build_synopses(self, budget: int) -> Dict[str, Tuple[List[Row], List[float]]]:
        budgets = self._relation_budgets(self.database, budget)
        synopses: Dict[str, Tuple[List[Row], List[float]]] = {}
        for name in self.database.relation_names:
            relation = self.database.relation(name)
            allowance = budgets.get(name, 0)
            if len(relation) == 0 or allowance == 0:
                synopses[name] = ([], [])
                continue
            index = TemplateIndex(relation, (), relation.schema.attribute_names)
            # The deepest level whose frontier still fits in the allowance.
            level = max(0, int(math.floor(math.log2(max(1, allowance)))))
            level = min(level, index.max_level)
            representatives = index.fetch((), level)
            while len(representatives) > allowance and level > 0:
                level -= 1
                representatives = index.fetch((), level)
            rows = [rep for rep, _ in representatives]
            weights = [count for _, count in representatives]
            synopses[name] = (rows, weights)
        return synopses
