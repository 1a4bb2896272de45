"""Tests of the benchmark harness itself (``pytest benchmarks/e2e``; not part of tier-1).

They run the real command at ``--smoke`` sizes, so they need a few tens of seconds.
"""

from __future__ import annotations

import glob
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import replay  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPEATABLE = ("rc_mean", "eta_mean", "eta_sound_frac", "accessed_frac_mean")


def run(*arguments, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *arguments], cwd=str(cwd), text=True, capture_output=True, timeout=300
    )


def smoke_records(tmp_path_factory, trace: int, seed: int = 7):
    out = tmp_path_factory.mktemp("records") / "smoke.json"
    completed = run("--smoke", "--seed", str(seed), "--trace", str(trace), "--out", str(out))
    assert completed.returncode == 0, completed.stderr
    return completed, {record["workload"]: record for record in json.loads(out.read_text())}


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return smoke_records(tmp_path_factory, trace=0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return smoke_records(tmp_path_factory, trace=1)


# -- BENCHMARK.json ---------------------------------------------------------

def test_spec_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and metric["better"] in ("lower", "higher") and UNIT.match(metric["unit"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])
    setup = next(metric for metric in SPEC["end_to_end"] if metric["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(metric["bound"] for metric in SPEC["end_to_end"])
    assert [workload["name"] for workload in SPEC["workloads"]] == list(WORKLOADS)
    assert all(WORKLOADS[workload["name"]].why == workload["why"] for workload in SPEC["workloads"])


# -- output -----------------------------------------------------------------

@pytest.mark.parametrize("mode", ["untraced", "traced"])
def test_output_matches_the_spec(mode, request):
    completed, records = request.getfixturevalue(mode)
    declared = SPEC["per_layer" if mode == "traced" else "end_to_end"]
    results = [json.loads(line) for line in completed.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(SPEC["workloads"]) == len(records)
    assert completed.stdout.rstrip().splitlines()[-1].startswith("{")
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [metric["name"] for metric in declared]
        for metric in declared:
            entry = result["metrics"][metric["name"]]
            assert set(entry) == {"value", "unit"} and entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))
    for name, record in records.items():
        assert record["cpu_count"] >= 1 and record["positions"] == record["attempted"] == len(record["classes"])
        assert record["violations"] == [] and record["problems"] == []
        for metric in declared:  # every metric is printed by name with its unit
            line = rf"^{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$"
            assert re.search(line, completed.stdout, re.M)


def test_layers_show_up_where_they_should(traced):
    _, records = traced
    for name, record in records.items():
        metrics = record["metrics"]
        assert metrics["trace.unattributed_frac"] <= replay.MAX_UNATTRIBUTED
        assert metrics["core.plan_ms"] > 0 and metrics["access.build_ms"] > 0
        parallel_counts = {
            key: value for key, value in metrics.items()
            if key.startswith("parallel.")
            and key not in ("parallel.tracker_warnings", "parallel.worker_index_hit_ratio")
        }
        if name == "tfacc_sharded":
            assert metrics["parallel.dispatch_calls"] > 0 and metrics["parallel.fallbacks"] == 0
            assert metrics["op.exact_p50_ms"] > 0 and metrics["algebra.evaluate_ms"] > 0
        else:
            assert not any(parallel_counts.values()), parallel_counts
        if name == "social_serving":
            assert metrics["serving.result_hit_ratio"] > 0 and metrics["serving.hit_p50_ms"] > 0
            assert metrics["mmapstore.save_ms"] > 0 and metrics["mmapstore.bytes_per_tuple"] > 0
        else:
            assert metrics["serving.serve_ms"] == 0 and metrics["op.answer_p50_ms"] > 0


# -- repeatability ------------------------------------------------------------

def test_same_seed_repeats_exactly(untraced, tmp_path_factory):
    _, first = untraced
    _, second = smoke_records(tmp_path_factory, trace=0)
    for name in first:
        for metric in REPEATABLE:
            assert first[name]["metrics"][metric] == second[name]["metrics"][metric], (name, metric)
        assert first[name]["failed"] == second[name]["failed"] == 0
        assert first[name]["classes"] == second[name]["classes"]


def test_another_seed_is_another_schedule_of_the_same_work():
    for bench in WORKLOADS.values():
        sizes = bench.sizes(smoke=True)
        queries = list(range(sizes["queries"]))
        one, two = bench.schedule(queries, sizes, 1), bench.schedule(queries, sizes, 2)
        assert one != two and sorted(one, key=repr) == sorted(two, key=repr)
        assert one == bench.schedule(queries, sizes, 1)
    serving = WORKLOADS["social_serving"]
    sizes = serving.sizes(smoke=True)
    size = sizes["write_every"]
    one, two = (serving.schedule(list(range(sizes["queries"])), sizes, seed) for seed in (1, 2))
    for start in range(0, len(one), size):  # same requests between the same two writes
        assert sorted(one[start:start + size], key=repr) == sorted(two[start:start + size], key=repr)


# -- floors -------------------------------------------------------------------

def test_full_size_floors():
    assert replay.MIN_PASSES >= 7 and replay.MIN_POSITIONS >= 100
    for bench in WORKLOADS.values():
        sizes = bench.sizes(smoke=False)
        positions = bench.schedule(list(range(sizes["queries"])), sizes, 7)
        assert len(positions) >= replay.MIN_POSITIONS, bench.name


def test_measure_never_stops_below_the_pass_floor(monkeypatch):
    made = []
    monkeypatch.setattr(replay, "run_pass", lambda *_: made.append(1) or replay.PassRecord(0.0, 0.0, [], [], [], []))
    measured = replay.Replay(WORKLOADS["tpch_lowalpha"], {}, [], [])
    replay.measure(measured, engine=None, seconds=0.0, min_passes=replay.MIN_PASSES)
    assert len(measured.passes) == len(made) == replay.MIN_PASSES


def test_percentile_interpolates():
    assert replay.percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert replay.percentile(list(range(101)), 0.9) == 90.0
    assert replay.percentile([5.0], 0.9) == 5.0


# -- failure accounting ---------------------------------------------------------

def test_a_raising_position_is_typed_counted_and_excluded(tmp_path):
    from repro.workloads.querygen import GeneratedQuery

    bench = WORKLOADS["tpch_lowalpha"]
    sizes = bench.sizes(smoke=True)
    queries, _ = bench.corpus(sizes)
    queries = queries[:2] + [GeneratedQuery("broken_q", "select nothing from nowhere", "SPC", 0, 0)]
    schedule = bench.canonical(queries, sizes)
    measured = replay.Replay(bench, sizes, queries, schedule)
    engine = bench.setup(sizes, str(tmp_path))
    measured.passes.append(replay.run_pass(measured, engine))
    broken = {index for index, position in enumerate(schedule) if position.query == 2}
    assert measured.failed == broken and len(measured.violations) == len(broken)
    assert {violation["query"] for violation in measured.violations} == {"broken_q"}
    assert all(re.match(r"^\w+Error: ", violation["error"]) for violation in measured.violations)
    assert set(replay.position_latencies(measured)) == set(range(len(schedule))) - broken


def test_dropped_queries_are_exactly_the_type_incompatible_ones():
    from workloads import union_compatible

    bench = WORKLOADS["tpch_lowalpha"]
    sizes = bench.sizes(smoke=False)
    queries, dropped = bench.corpus(sizes)
    schema = bench.generate(sizes).database.schema
    assert dropped and all(name.endswith("_ra") for name in dropped)
    assert all(union_compatible(query, schema) for query in queries)
    assert not set(dropped) & {query.name for query in queries}


# -- hygiene --------------------------------------------------------------------

def test_nothing_is_left_behind(untraced, traced):
    assert not glob.glob("/dev/shm/psm_*")
    assert not (ROOT / ".bench_e2e_work").exists()
    assert traced[1]["tfacc_sharded"]["metrics"]["parallel.dispatch_calls"] > 0  # shm was really in use


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = run("--workload", "tpch_lowalpha", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=tmp_path, script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert completed.returncode != 0 and completed.stdout == ""


# -- compare.py -------------------------------------------------------------------

def write_side(directory: Path, throughput, spread=0.0):
    directory.mkdir()
    for index, value in enumerate(throughput):
        metrics = {metric["name"]: 1.0 for metric in SPEC["end_to_end"]}
        metrics["throughput_qps"] = value
        metrics["latency_p50_ms"] = 1.0 + spread * (index % 2)
        record = {"workload": "tpch_lowalpha", "trace": 0, "smoke": False, "metrics": metrics}
        (directory / f"{index}.json").write_text(json.dumps([record]))
    return sorted(str(path) for path in directory.glob("*.json"))


def test_compare_verdicts(tmp_path, capsys):
    base = write_side(tmp_path / "a", [100.0, 101.0, 99.0, 100.5, 100.0])
    same = write_side(tmp_path / "b", [100.2, 100.9, 99.5, 100.1, 100.3])
    slow = write_side(tmp_path / "c", [80.0, 81.0, 79.0, 80.5, 80.0])
    noisy = write_side(tmp_path / "d", [100.0, 101.0, 99.0, 100.5, 100.0], spread=0.5)
    assert compare.main(base + same) == 0
    assert "differs" not in capsys.readouterr().out
    assert compare.main(base + slow) == 1
    assert re.search(r"throughput_qps .* differs", capsys.readouterr().out)
    assert compare.main(base + noisy) == 0
    assert re.search(r"latency_p50_ms .* unresolved", capsys.readouterr().out)
    assert compare.main(base) == 2
