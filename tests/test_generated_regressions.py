"""Defects found by running generated queries, pinned on the queries that found them.

* An ``except`` that pairs a string column with a numeric one used to fail
  or answer depending on α (it raised only once two such rows met).  It is
  now refused with :exc:`QueryError` at every α and by exact evaluation.
* On some aggregate answers η exceeds the measured RC accuracy: the bound
  is not sound there.  Those cases — all twelve positions of ROADMAP table
  A plus two smaller corpora — are strict xfails, so the fix that makes η
  sound turns them into failures to be un-marked.
"""

from __future__ import annotations

import pytest

from repro.accuracy.rc import rc_accuracy
from repro.errors import QueryError
from repro.experiments import build_beas
from repro.workloads import QueryGenerator, airca, tfacc, tpch

DATA_SEED = 20170301


def _queries(workload, seed, count, names):
    generated = QueryGenerator(workload, seed=seed).workload_mix(count)
    found = {query.name: query for query in generated if query.name in names}
    assert set(found) == set(names)
    return found


@pytest.fixture(scope="module")
def tpch_case():
    workload = tpch.generate(scale=1, seed=DATA_SEED)
    return build_beas(workload), _queries(workload, 7, 52, {"tpch_q027_ra", "tpch_q064_ra"})


@pytest.mark.parametrize("name", ["tpch_q027_ra", "tpch_q064_ra"])
def test_a_string_numeric_except_is_refused_at_every_alpha(tpch_case, name):
    beas, queries = tpch_case
    sql = queries[name].sql
    for alpha in (0.01, 0.05, 0.5, 1.0):
        with pytest.raises(QueryError, match="numeric and non-numeric"):
            beas.answer(sql, alpha)
    with pytest.raises(QueryError, match="numeric and non-numeric"):
        beas.answer_exact(sql)


# ROADMAP table A's corpora: the generators' own default seeds and sizes
# (not DATA_SEED), queried by ``QueryGenerator(seed=11).workload_mix(80)``.
TABLE_A_TFACC = {
    "tfacc_q017_agg_spc",
    "tfacc_q018_agg_spc",
    "tfacc_q019_agg_spc",
    "tfacc_q020_agg_spc",
    "tfacc_q021_agg_spc",
    "tfacc_q032_agg_spc",
}
TABLE_A_AIRCA = {"airca_q014_agg_spc", "airca_q051_agg_spc"}


@pytest.fixture(scope="module")
def aggregate_cases():
    airca_workload = airca.generate(flights=800, airports=30, seed=DATA_SEED)
    tfacc_workload = tfacc.generate(accidents=500, stops=200, seed=DATA_SEED)
    airca_table_a = airca.generate(flights=3000)
    tfacc_table_a = tfacc.generate(accidents=2000)
    return {
        "airca": (build_beas(airca_workload), _queries(airca_workload, 7, 30, {"airca_q001_agg_spc"})),
        "tfacc": (
            build_beas(tfacc_workload),
            _queries(tfacc_workload, 11, 80, {"tfacc_q027_agg_spc", "tfacc_q036_agg_spc"}),
        ),
        "airca3000": (build_beas(airca_table_a), _queries(airca_table_a, 11, 80, TABLE_A_AIRCA)),
        "tfacc2000": (build_beas(tfacc_table_a), _queries(tfacc_table_a, 11, 80, TABLE_A_TFACC)),
    }


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="eta exceeds measured RC on aggregate answers (ROADMAP item 1)"
)
@pytest.mark.parametrize(
    "workload, name, alpha",
    [
        ("airca", "airca_q001_agg_spc", 0.05),
        ("airca", "airca_q001_agg_spc", 0.1),
        ("tfacc", "tfacc_q027_agg_spc", 0.05),
        ("tfacc", "tfacc_q036_agg_spc", 0.05),
        # count / sum / avg: relaxed selections admit representatives no
        # resolution bounds (q017 is the sum, q014 the avg, the rest count).
        ("tfacc2000", "tfacc_q017_agg_spc", 0.05),
        ("tfacc2000", "tfacc_q018_agg_spc", 0.05),
        ("tfacc2000", "tfacc_q020_agg_spc", 0.05),
        ("tfacc2000", "tfacc_q021_agg_spc", 0.05),
        ("tfacc2000", "tfacc_q032_agg_spc", 0.05),
        ("airca3000", "airca_q014_agg_spc", 0.05),
        ("airca3000", "airca_q014_agg_spc", 0.1),
        ("airca3000", "airca_q051_agg_spc", 0.05),
        ("airca3000", "airca_q051_agg_spc", 0.1),
        # min: the bound's resolution is in the attribute's scaled units,
        # the aggregate value in raw ones.
        ("tfacc2000", "tfacc_q019_agg_spc", 0.05),
    ],
)
def test_aggregate_eta_is_a_sound_lower_bound(aggregate_cases, workload, name, alpha):
    beas, queries = aggregate_cases[workload]
    query = queries[name]
    result = beas.answer(query.sql, alpha)
    exact = beas.answer_exact(query.sql)
    assert result.eta <= rc_accuracy(query.ast, beas.database, result.rows, exact).accuracy + 1e-9
