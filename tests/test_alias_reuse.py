"""A set operation whose branches reuse an alias (ROADMAP item 19, table H).

The plan merges ``constants`` and ``needed_attributes`` per alias across the
SPC sub-queries, and the executor gives every atom named ``p`` the frame of
the last spanning step, so each branch reads the last branch's fetch.  Four
of table H's queries come back wrong while reporting ``exact``; they are
pinned here as strict xfails, so a change that turns them green — or moves
them by accident — has to say so.  The two right ones must stay right.
"""

from __future__ import annotations

import pytest

from repro.experiments import build_beas
from repro.workloads import social


@pytest.fixture(scope="module")
def engine():
    return build_beas(social.generate(persons=200, pois=500))


def _exact_rows_are_q_of_d(engine, sql, alpha):
    result = engine.answer(sql, alpha)
    if result.exact:
        assert set(result.rows.rows) == set(engine.answer_exact(sql).rows), (sql, alpha)


ITEM_19 = pytest.mark.xfail(strict=True, reason="ROADMAP item 19: branches reusing an alias read one fetch")

WRONG = {
    "union-range-first": "select p.pid from person as p where p.pid <= 20 "
    "union select p.pid from person as p where p.pid = 3",
    "union-wide-range-first": "select p.pid from person as p where p.pid >= 20 "
    "union select p.pid from person as p where p.pid = 3",
    "union-of-joins": "select f.fid, p.city from friend as f, person as p where f.pid = p.pid and p.pid = 3 "
    "union select f.fid, p.city from friend as f, person as p where f.pid = p.pid and p.pid = 4",
    "except": "select p.pid from person as p where p.pid <= 20 except select p.pid from person as p where p.pid = 3",
}

RIGHT = {
    "union-constant-first": "select p.pid from person as p where p.pid = 3 "
    "union select p.pid from person as p where p.pid >= 20",
    "except-renamed": "select p.pid from person as p where p.pid <= 20 "
    "except select q.pid from person as q where q.pid = 3",
}


@ITEM_19
@pytest.mark.parametrize("sql", list(WRONG.values()), ids=list(WRONG))
def test_reused_alias_answers_are_wrong_at_alpha_1(engine, sql):
    _exact_rows_are_q_of_d(engine, sql, 1.0)


@pytest.mark.parametrize("alpha", (0.1, 1.0))
@pytest.mark.parametrize("sql", list(RIGHT.values()), ids=list(RIGHT))
def test_exact_answers_are_q_of_d(engine, sql, alpha):
    _exact_rows_are_q_of_d(engine, sql, alpha)
