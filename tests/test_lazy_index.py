"""Template families build their index the first time anything reads it.

Set-up (``Beas(...)``) declares every family and builds none; a plan that
binds a family builds it, once, however many threads race to read it; and a
family built late answers exactly as one built up front.
"""

import threading
import time

import pytest

from repro import Beas, Relation
from repro.access.builder import AccessSchemaBuilder, FamilySpec
from repro.access.index import TemplateIndex
from repro.errors import SchemaError
from repro.workloads import airca, social, tfacc, tpch

from template_oracle import check_conformance

# The benchmark's smoke sizes.
SMOKE = {
    "tpch": lambda: tpch.generate(scale=1, seed=7),
    "airca": lambda: airca.generate(flights=800, airports=30, seed=7),
    "tfacc": lambda: tfacc.generate(accidents=500, stops=200, seed=7),
    "social": lambda: social.generate(persons=150, pois=600, cities=10, max_friends=5, seed=7),
}

POI_SQL = "select p.address, p.type, p.city, p.price from poi as p where p.price >= 0"


@pytest.fixture
def builds(monkeypatch):
    """Every ``TemplateIndex`` constructed while the test runs."""
    built = []
    original = TemplateIndex.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(TemplateIndex, "__init__", counting_init)
    return built


def _beas(workload):
    return Beas(workload.database, constraints=workload.constraints, families=workload.families)


def _family_state(schema):
    return [
        (family.relation, family.x, family.y, family.max_level, family.index.entry_count,
         [family.resolution(level) for level in family.index.levels()])
        for family in schema.families
    ]


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_set_up_builds_no_template_index(name, builds):
    beas = _beas(SMOKE[name]())
    assert builds == []
    assert beas.access_schema.families and not any(f.built for f in beas.access_schema.families)
    assert beas.access_schema.constraints  # constraint indexes stay eager


def test_a_plan_builds_exactly_the_families_it_binds(builds):
    beas = _beas(SMOKE["social"]())
    families = beas.access_schema.families
    q1, q2 = social.example_queries()
    plan = beas.plan(q1, 0.2)
    bound = {id(step.accessor.family) for step in plan.fetch_plan.steps if step.accessor.family is not None}
    assert bound and {id(f) for f in families if f.built} == bound
    assert len(builds) == len(bound) < len(families)
    beas.plan(q2, 0.2)  # constraints only: binds no family
    beas.answer(q1, 0.2)
    beas.answer(q1, 0.5)
    assert len(builds) == sum(f.built for f in families)  # nothing built twice


def test_racing_first_reads_build_a_family_once(builds, monkeypatch):
    family = AccessSchemaBuilder(SMOKE["social"]().database).build_canonical().families[0]
    original = TemplateIndex.__init__

    def slow_init(self, *args, **kwargs):
        time.sleep(0.05)  # hold the build open while the other readers arrive
        original(self, *args, **kwargs)

    monkeypatch.setattr(TemplateIndex, "__init__", slow_init)
    barrier = threading.Barrier(8)
    seen = []

    def read():
        barrier.wait()
        seen.append(family.index)

    threads = [threading.Thread(target=read) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(builds) == 1
    assert len(seen) == 8 and all(index is seen[0] for index in seen)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_lazy_builds_equal_an_eager_build_all(name):
    workload = SMOKE[name]()
    eager = _beas(workload)
    eager.access_schema.build_all()
    assert all(f.built for f in eager.access_schema.families)
    lazy = _beas(workload)
    lazy.answer(_any_query(workload), 0.1)  # builds some families; the counts below build the rest
    assert lazy.access_schema.index_entry_counts() == eager.access_schema.index_entry_counts()
    assert check_conformance(lazy.access_schema, workload.database) is True
    assert check_conformance(eager.access_schema, workload.database) is True
    assert _family_state(lazy.access_schema) == _family_state(eager.access_schema)
    assert lazy.access_schema.cardinality == eager.access_schema.cardinality


def _any_query(workload):
    relation = workload.database.relation(workload.database.relation_names[0])
    attribute = relation.schema.attribute_names[0]
    return f"select r.{attribute} from {relation.schema.name} as r"


def test_an_unbuilt_family_answers_from_its_declared_relation():
    """A ``set_relation`` before the first bind is not seen, as if the index had been built at set-up."""
    workloads = [social.generate(persons=200, pois=500) for _ in range(2)]
    lazy, eager = (_beas(workload) for workload in workloads)
    eager.access_schema.build_all()
    for beas in (lazy, eager):
        poi = beas.database.relation("poi")
        beas.database.set_relation("poi", Relation(poi.schema, poi.rows[:250]))
    lazy_poi, eager_poi = (next(f for f in beas.access_schema.families_for("poi") if not f.x) for beas in (lazy, eager))
    assert not lazy_poi.built
    answers = [beas.answer(POI_SQL, 1.0) for beas in (lazy, eager)]
    assert sorted(answers[0].rows.rows) == sorted(answers[1].rows.rows)
    assert len(answers[0].rows) == 500 and answers[0].exact
    assert lazy_poi.index.entry_count == eager_poi.index.entry_count


def test_an_unknown_attribute_raises_at_declaration(tiny_db, builds):
    builder = AccessSchemaBuilder(tiny_db)
    with pytest.raises(SchemaError):
        builder.build(families=[FamilySpec("emp", ("eid",), ("no_such_attribute",))], include_canonical=False)
    assert builds == []


def test_debug_output_builds_nothing(builds):
    schema = _beas(SMOKE["social"]()).access_schema
    family = schema.families[0]
    assert "unbuilt" in repr(family)
    assert f"{len(schema.families)} unbuilt" in repr(schema)
    assert builds == [] and not family.built
    family.index
    assert "unbuilt" not in repr(family) and f"0..{family.max_level}" in repr(family)
    assert f"{len(schema.families) - 1} unbuilt" in repr(schema)
    schema.build_all()
    assert repr(schema).endswith(f"||A||={schema.cardinality})")
    assert len(builds) == len(schema.families)
