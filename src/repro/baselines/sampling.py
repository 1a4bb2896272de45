"""``Sampl`` — uniform-sampling approximation (the paper's extension of [17]).

Builds a one-size-fits-all synopsis by sampling ``α·|D|`` tuples uniformly at
random (split across relations proportionally to their sizes) and answers
every query over the sample.  Each sampled tuple carries the inverse sampling
rate of its relation as a weight, so ``count`` and ``sum`` aggregates are
scaled up the standard Horvitz–Thompson way; non-aggregate answers are simply
whatever tuples of the sample satisfy the query.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from ..relational.relation import Row
from .base import Approximator


class UniformSampling(Approximator):
    """Uniform per-relation sampling with Horvitz–Thompson weights."""

    name = "Sampl"

    def _build_synopses(self, budget: int) -> Dict[str, Tuple[List[Row], List[float]]]:
        rng = random.Random(self.seed)
        budgets = self._relation_budgets(self.database, budget)
        synopses: Dict[str, Tuple[List[Row], List[float]]] = {}
        for name in self.database.relation_names:
            relation = self.database.relation(name)
            size = len(relation)
            keep = min(size, budgets.get(name, 0))
            if size == 0 or keep == 0:
                synopses[name] = ([], [])
                continue
            rows = list(relation.store.take(rng.sample(range(size), keep)).iter_rows())
            weight = size / keep
            synopses[name] = (rows, [weight] * keep)
        return synopses
