"""Tests for the Sampl / Histo / BlinkDB / Exact baselines."""

import hashlib

import pytest

from repro.algebra.evaluator import evaluate_exact
from repro.algebra.sql import parse_query
from repro.baselines.blinkdb import StratifiedSampling
from repro.baselines.exact import ExactEvaluation
from repro.baselines.histogram import MultiDimHistogram
from repro.baselines.sampling import UniformSampling
from repro.relational.database import Database
from repro.workloads import social

SPC_SQL = "select e.salary from emp as e where e.salary <= 60"
AGG_SQL = "select e.dept, count(e.eid) from emp as e group by e.dept"
MINMAX_SQL = "select e.dept, min(e.salary) from emp as e group by e.dept"
JOIN_SQL = (
    "select e.salary, d.budget from emp as e, dept as d where e.dept = d.did and d.budget >= 1100"
)


class TestUniformSampling:
    def test_synopsis_size_within_budget(self, tiny_db):
        baseline = UniformSampling(tiny_db, seed=1).build(0.2)
        assert baseline.synopsis_size() <= tiny_db.budget_for(0.2) + len(tiny_db.relation_names)

    def test_answers_are_subset_for_selections(self, tiny_db):
        baseline = UniformSampling(tiny_db, seed=1).build(0.5)
        approx = baseline.answer(parse_query(SPC_SQL))
        exact = evaluate_exact(parse_query(SPC_SQL), tiny_db)
        assert approx.to_set() <= exact.to_set()

    def test_counts_scaled_by_sampling_rate(self, tiny_db):
        baseline = UniformSampling(tiny_db, seed=2).build(0.5)
        approx = baseline.answer(parse_query(AGG_SQL))
        total = sum(v for _, v in approx.rows)
        # Horvitz–Thompson estimate of the total (60) should be within 2x.
        assert 30 <= total <= 120

    def test_full_alpha_reproduces_exact(self, tiny_db):
        baseline = UniformSampling(tiny_db, seed=3).build(1.0)
        approx = baseline.answer(parse_query(SPC_SQL))
        exact = evaluate_exact(parse_query(SPC_SQL), tiny_db)
        assert approx.to_set() == exact.to_set()

    def test_answer_before_build_raises(self, tiny_db):
        with pytest.raises(Exception):
            UniformSampling(tiny_db).answer(parse_query(SPC_SQL))


class TestHistogram:
    def test_synopsis_size_within_budget(self, tiny_db):
        baseline = MultiDimHistogram(tiny_db).build(0.2)
        assert baseline.synopsis_size() <= tiny_db.budget_for(0.2) + len(tiny_db.relation_names)

    def test_aggregate_totals_approximated(self, tiny_db):
        baseline = MultiDimHistogram(tiny_db).build(0.3)
        approx = baseline.answer(parse_query(AGG_SQL))
        total = sum(v for _, v in approx.rows)
        assert total == pytest.approx(60, rel=0.5)

    def test_join_query_supported(self, tiny_db):
        baseline = MultiDimHistogram(tiny_db).build(0.5)
        approx = baseline.answer(parse_query(JOIN_SQL))
        assert approx.schema.attribute_names == ("e.salary", "d.budget")

    def test_larger_alpha_means_finer_buckets(self, tiny_db):
        coarse = MultiDimHistogram(tiny_db).build(0.1).synopsis_size()
        fine = MultiDimHistogram(tiny_db).build(0.8).synopsis_size()
        assert fine >= coarse


class TestBlinkDB:
    def qcs(self):
        return {"emp": ["dept", "grade"], "dept": ["name"]}

    def test_supports_only_sum_count_avg_aggregates(self, tiny_db):
        baseline = StratifiedSampling(tiny_db, qcs_columns=self.qcs()).build(0.3)
        assert baseline.supports(parse_query(AGG_SQL))
        assert not baseline.supports(parse_query(MINMAX_SQL))
        assert not baseline.supports(parse_query(SPC_SQL))

    def test_stratified_sample_covers_all_groups(self, tiny_db):
        baseline = StratifiedSampling(tiny_db, qcs_columns=self.qcs()).build(0.3)
        approx = baseline.answer(parse_query(AGG_SQL))
        exact = evaluate_exact(parse_query(AGG_SQL), tiny_db)
        assert {k for k, _ in approx.rows} == {k for k, _ in exact.rows}

    def test_counts_scaled_per_stratum(self, tiny_db):
        baseline = StratifiedSampling(tiny_db, qcs_columns=self.qcs()).build(0.3)
        approx = baseline.answer(parse_query(AGG_SQL))
        total = sum(v for _, v in approx.rows)
        assert total == pytest.approx(60, rel=0.5)

    def test_without_qcs_falls_back_to_uniform(self, tiny_db):
        baseline = StratifiedSampling(tiny_db).build(0.3)
        assert baseline.synopsis_size() > 0


class TestExactBaseline:
    def test_exact_matches_evaluator(self, tiny_db):
        baseline = ExactEvaluation(tiny_db).build(1.0)
        assert baseline.answer(parse_query(SPC_SQL)) == evaluate_exact(
            parse_query(SPC_SQL), tiny_db
        )

    def test_metered_answer_counts_scans(self, tiny_db):
        baseline = ExactEvaluation(tiny_db).build(1.0)
        _, accessed = baseline.answer_metered(parse_query(SPC_SQL))
        assert accessed == 60


# sha256 of the Sampl and uniform-fallback BlinkDB synopses below, taken when
# both still drew ``rng.sample(relation.rows, keep)``: drawing row numbers
# from ``range(len(relation))`` makes the same draws.
SAMPLED_SYNOPSES_DIGEST = "2b52451a1ac8dbf9416695397d20376fa1783ae7d71e779d1bc4031dfb296f8b"


def _social_on(backend: str) -> Database:
    database = social.generate(persons=150, pois=600, cities=10, max_friends=5, seed=7).database
    for name in database.relation_names:
        database.set_relation(name, database.relation(name).with_backend(backend))
    return database


@pytest.mark.parametrize("backend_name", ["column", "mmap", "sharded"])
def test_sampled_synopses_are_pinned(backend_name, store_dir):
    database = _social_on(backend_name)
    digest = hashlib.sha256()
    for baseline in (UniformSampling(database, seed=5), StratifiedSampling(database, seed=5)):
        digest.update(repr(sorted(baseline.build(0.1)._provider.synopses.items())).encode())
    assert digest.hexdigest() == SAMPLED_SYNOPSES_DIGEST


@pytest.mark.parametrize("baseline_class", [UniformSampling, StratifiedSampling, ExactEvaluation])
def test_a_baseline_build_caches_no_rows_on_the_base_relations(baseline_class):
    database = _social_on("column")
    baseline_class(database).build(0.1)
    for name in database.relation_names:
        relation = database.relation(name)
        assert relation.store._row_cache is None, name
        assert relation._rows_view is None, name


def test_exact_synopses_are_every_row_once():
    database = _social_on("column")
    synopses = ExactEvaluation(database).build(1.0)._provider.synopses
    for name in database.relation_names:
        rows, weights = synopses[name]
        assert rows == list(database.relation(name)) and weights == [1.0] * len(rows)

