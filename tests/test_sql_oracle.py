"""Exact answers against an oracle outside the engine: stdlib ``sqlite3``.

Every query ``QueryGenerator(workload, seed).workload_mix(40)`` draws for
seeds 7 and 11 on all four workloads, at the benchmark's smoke sizes, runs
through :meth:`Beas.answer_exact` and, unchanged, through SQLite
(:mod:`sql_oracle`).  The distinct rows must agree under the oracle's float
rule.  The bounded answer at α = 1 over the workload's declared access
schema (:func:`~repro.experiments.build_beas`) is held to the same rows
whenever it reports itself exact.  So are a few hand-written shapes the
generator never draws: social's ``person ⋈ friend ⋈ person`` self-join, and
set operations whose branches are such self-joins reusing both aliases.  A
query the engine refuses — an
``except`` pairing a numeric column with a string one — is the one
documented semantic difference, and is pinned as such.
"""

from __future__ import annotations

import pytest

from repro.errors import QueryError
from repro.experiments import build_beas
from repro.workloads import QueryGenerator, airca, social, tfacc, tpch

import sql_oracle
from conftest import union_compatible

# The smoke sizes of the end-to-end benchmark's four datasets.
WORKLOADS = {
    "tpch": lambda: tpch.generate(scale=1, seed=7),
    "airca": lambda: airca.generate(flights=800, airports=30, seed=7),
    "tfacc": lambda: tfacc.generate(accidents=500, stops=200, seed=7),
    "social": lambda: social.generate(persons=150, pois=600, cities=10, max_friends=5, seed=7),
}
SEEDS = (7, 11)
QUERIES = 40

_CORPORA = {}


def corpus(name, seed):
    """``(beas, sqlite connection, generated queries)``, built once per workload and seed."""
    if name not in _CORPORA:
        workload = WORKLOADS[name]()
        _CORPORA[name] = (workload, build_beas(workload), sql_oracle.load(workload.database), {})
    workload, beas, connection, queries = _CORPORA[name]
    if seed not in queries:
        queries[seed] = QueryGenerator(workload, seed=seed).workload_mix(QUERIES)
    return beas, connection, queries[seed]


@pytest.mark.parametrize("index", range(QUERIES), ids=lambda index: f"q{index:02d}")
@pytest.mark.parametrize("seed", SEEDS, ids=lambda seed: f"seed{seed}")
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exact_answer_agrees_with_sqlite(name, seed, index):
    beas, connection, queries = corpus(name, seed)
    query = queries[index]
    expected = sql_oracle.answer(connection, query.sql)
    if not union_compatible(query.ast, beas.database.schema):
        # The documented difference: the engine refuses what SQLite answers.
        with pytest.raises(QueryError):
            beas.answer_exact(query.sql)
        return
    assert sql_oracle.distinct_rows(beas.answer_exact(query.sql)) == expected, query.sql
    result = beas.answer(query.sql, 1.0)
    if result.exact:
        assert sql_oracle.distinct_rows(result.rows) == expected, query.sql


SELF_JOIN = (
    "select p.pid, q.city from person as p, friend as f, person as q "
    "where p.pid = f.pid and f.fid = q.pid and p.pid = {}"
)
FRIEND_CITIES = (
    "select q.city from person as p, friend as f, person as q where p.pid = f.pid and f.fid = q.pid and p.pid = {}"
)
SHAPES = {
    "self-join": SELF_JOIN.format(3),
    "union-of-self-joins": SELF_JOIN.format(3) + " union " + SELF_JOIN.format(4),
    "except-of-self-joins": FRIEND_CITIES.format(3) + " except " + FRIEND_CITIES.format(4),
}


@pytest.mark.parametrize("alpha", (0.1, 1.0))
@pytest.mark.parametrize("sql", list(SHAPES.values()), ids=list(SHAPES))
def test_hand_written_shapes_agree_with_sqlite(sql, alpha):
    beas, connection, _ = corpus("social", SEEDS[0])
    expected = sql_oracle.answer(connection, sql)
    assert sql_oracle.distinct_rows(beas.answer_exact(sql)) == expected
    result = beas.answer(sql, alpha)
    assert result.exact or alpha < 1.0, sql  # at α = 1 every shape is answered exactly
    if result.exact:
        assert sql_oracle.distinct_rows(result.rows) == expected, (sql, alpha)
