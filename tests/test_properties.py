"""Property-based tests of the BEAS end-to-end guarantees (hypothesis)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Beas, QueryServer, Relation
from repro.accuracy.rc import rc_accuracy
from repro.algebra.sql import parse_query
from repro.workloads import social


QUERY_TEMPLATES = [
    # (sql template, needs_price)
    "select h.price from poi as h, friend as f, person as p "
    "where f.pid = {pid} and f.fid = p.pid and p.city = h.city "
    "and h.type = '{ptype}' and h.price <= {price}",
    "select h.city, count(h.address) from poi as h, friend as f, person as p "
    "where f.pid = {pid} and f.fid = p.pid and p.city = h.city and h.type = '{ptype}' "
    "group by h.city",
    "select p.city from friend as f, person as p where f.pid = {pid} and f.fid = p.pid",
]


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    template=st.sampled_from(QUERY_TEMPLATES),
    pid=st.integers(0, 50),
    ptype=st.sampled_from(["hotel", "bar", "cafe"]),
    price=st.integers(30, 300),
    alpha=st.floats(0.002, 0.3),
)
def test_alpha_boundedness_and_eta_soundness(social_beas, social_db, template, pid, ptype, price, alpha):
    """For random queries and budgets: (1) at most α·|D| tuples are accessed,
    (2) the reported η never exceeds the measured RC accuracy."""
    sql = template.format(pid=pid, ptype=ptype, price=price)
    result = social_beas.answer(sql, alpha)
    assert result.tuples_accessed <= result.budget

    exact = social_beas.answer_exact(sql)
    accuracy = rc_accuracy(parse_query(sql), social_db, result.rows, exact)
    assert accuracy.accuracy >= result.eta - 1e-9


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    pid=st.integers(0, 40),
    price=st.integers(50, 200),
    alpha_small=st.floats(0.002, 0.05),
    alpha_growth=st.floats(1.5, 10.0),
)
def test_eta_monotone_in_alpha(social_beas, pid, price, alpha_small, alpha_growth):
    """Theorem 1: a larger resource ratio never yields a smaller bound η."""
    sql = (
        "select h.price from poi as h, friend as f, person as p "
        f"where f.pid = {pid} and f.fid = p.pid and p.city = h.city "
        f"and h.type = 'hotel' and h.price <= {price}"
    )
    alpha_large = min(0.9, alpha_small * alpha_growth)
    eta_small = social_beas.answer(sql, alpha_small).eta
    eta_large = social_beas.answer(sql, alpha_large).eta
    assert eta_large >= eta_small - 1e-9


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    city=st.sampled_from(["city_001", "city_002", "city_003"]),
    alpha=st.floats(0.005, 0.5),
)
def test_set_difference_never_returns_negated_tuples(social_beas, city, alpha):
    """Theorem 6(5) under random budgets."""
    positive = f"select h.price from poi as h where h.type = 'hotel' and h.city = '{city}'"
    negative = f"select b.price from poi as b where b.type = 'bar' and b.city = '{city}'"
    sql = positive + " except " + negative
    negated = social_beas.answer_exact(negative).to_set()
    result = social_beas.answer(sql, alpha)
    assert not (result.rows.to_set() & negated)


@pytest.mark.xfail(
    strict=True,
    reason="access-schema indexes are never rebuilt after a mutation (ROADMAP open item 2): "
    "an exact plan answers from the indexes of the database as it was when the engine was built",
)
def test_an_exact_answer_follows_a_mutation():
    """Halve ``poi`` and ask for all of it at α = 1: an exact plan must return the 250 rows left.

    Today it returns the 500 the index was built over, with ``exact=True`` and
    ``η = 1.0``; the serving layer rotates its key (the epoch moved) and then
    recomputes the same stale answer.
    """
    workload = social.generate(persons=200, pois=500)
    database = workload.database
    beas = Beas(database, constraints=workload.constraints, families=workload.families)
    server = QueryServer(beas)
    sql = "select p.address, p.type, p.city, p.price from poi as p where p.price >= 0"
    before = server.serve(sql, 1.0)
    assert len(before.rows) == 500 and before.result.exact and before.eta == 1.0

    poi = database.relation("poi")
    database.set_relation("poi", Relation(poi.schema, poi.rows[:250]))
    truth = beas.answer_exact(sql)
    assert len(truth) == 250

    after = server.serve(sql, 1.0)
    assert not after.result_cache_hit and after.publication_epoch > before.publication_epoch
    assert after.result.exact and after.eta == 1.0
    assert sorted(after.rows.rows) == sorted(truth.rows)  # 500 stale rows today
