"""``alpha_exact`` is the smallest α whose budget ``⌊α·|D|⌋`` affords the exact plan.

``T/|D|`` is not it: the product ``(T/|D|)·|D|`` can round to just below
``T``, and the budget it floors to is then one tuple short of the exact plan,
so the answer at the reported α is not exact.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from repro import Database, Relation
from repro.core import bounded
from repro.experiments import build_beas
from repro.relational.schema import Attribute, RelationSchema

from conftest import SMOKE_CORPORA, smoke_corpus


def _database(size):
    schema = RelationSchema("r", [Attribute("a")])
    return Database.from_relations([Relation(schema, [(i,) for i in range(size)])])


@pytest.mark.parametrize(("tariff", "size"), [(15, 22), (13, 23), (31, 39), (1, 7), (21, 21), (40, 22)])
def test_the_smallest_alpha_whose_budget_covers_the_tariff(tariff, size, monkeypatch):
    monkeypatch.setattr(bounded, "exact_plan", lambda *_args: SimpleNamespace(tariff=tariff))
    database = _database(size)
    alpha = bounded.alpha_exact(None, database, None)
    if tariff >= size:
        assert alpha == 1.0  # no α ≤ 1 affords more than |D| tuples; capped
        return
    assert database.budget_for(alpha) >= tariff
    assert int(math.nextafter(alpha, 0.0) * size) < tariff
    assert alpha <= tariff / size * (1 + 1e-15)


def test_the_ratio_alone_floors_one_tuple_short():
    """Why the search is needed: 15 of 22 tuples is 0.6818…, which buys 14."""
    assert _database(22).budget_for(15 / 22) == 14


@pytest.mark.parametrize("name", sorted(SMOKE_CORPORA))
def test_answers_at_alpha_exact_are_exact(name):
    workload, queries, _alphas = smoke_corpus(name)
    beas = build_beas(workload)
    total = workload.database.total_tuples
    checked = 0
    for query in queries:
        tariff = bounded.exact_plan(query.ast, workload.database.schema, beas.access_schema).tariff
        if tariff > total:
            continue
        alpha = beas.alpha_exact(query.ast)
        result = beas.answer(query.ast, alpha)
        assert result.exact, (query.sql, alpha, tariff, result.budget)
        checked += 1
    assert checked >= 1
