"""Tests for the static invariant analyzer (repro.tools.static).

Three layers: the framework itself (registry, suppression parsing, JSON
reporter schema, CLI exit codes), one good+bad fixture pair per rule under
``tests/fixtures/static/``, and the self-run contract — ``src/repro`` must
be clean under every registered rule, and deliberately re-introducing a
known violation (an unpicklable lambda binder) must fail the gate.
"""

import json
from pathlib import Path

import pytest

from repro.tools.static import (
    Checker,
    Finding,
    JSON_SCHEMA_VERSION,
    analyze_paths,
    checker_class,
    json_report,
    list_checkers,
    register_checker,
    unregister_checker,
)
from repro.tools.static.cli import main as cli_main
from repro.tools.static.core import parse_suppressions

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "static"
SRC_TREE = REPO_ROOT / "src" / "repro"

ALL_RULES = ("SHIP001", "REG001", "KNOB001", "STATE001", "DET001", "EXC001")


# ---------------------------------------------------------------------------
# Fixture corpus: every rule fires on its bad fixture, stays quiet on good
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rule", ALL_RULES)
def test_bad_fixture_fires(rule):
    fixture = FIXTURES / f"{rule.lower()}_bad.py"
    report = analyze_paths([fixture], rules=[rule])
    assert not report.errors
    assert report.findings, f"{rule} did not fire on {fixture.name}"
    assert {finding.rule for finding in report.findings} == {rule}


@pytest.mark.parametrize("rule", ALL_RULES)
def test_good_fixture_stays_quiet(rule):
    fixture = FIXTURES / f"{rule.lower()}_good.py"
    report = analyze_paths([fixture], rules=[rule])
    assert not report.errors
    assert report.findings == [], [finding.format() for finding in report.findings]


def test_registered_rules_match_corpus():
    assert set(ALL_RULES) <= set(list_checkers())


# Pin down *which* violations each bad fixture contains, not just "some".
def test_ship001_specific_sites():
    report = analyze_paths([FIXTURES / "ship001_bad.py"], rules=["SHIP001"])
    messages = " | ".join(finding.message for finding in report.findings)
    assert "lambda" in messages
    assert "local_binder" in messages
    assert "NakedBinder" in messages or "@dataclass" in messages
    assert "InnerBinder" in messages


def test_det001_specific_sites():
    report = analyze_paths([FIXTURES / "det001_bad.py"], rules=["DET001"])
    messages = " | ".join(finding.message for finding in report.findings)
    assert "random" in messages
    assert "id()" in messages
    assert "set" in messages


def test_knob001_specific_sites():
    report = analyze_paths([FIXTURES / "knob001_bad.py"], rules=["KNOB001"])
    messages = [finding.message for finding in report.findings]
    # Every REPRO_* read (call, getenv, subscript), the computed name, both setters.
    assert len(messages) == 6
    for variable in ("REPRO_CHECKSUM", "REPRO_SECRET_KNOB", "REPRO_STRICT"):
        assert sum(variable in message for message in messages) == 1
    assert sum("computed variable name" in message for message in messages) == 1
    for setter in ("set_admission_policy", "set_store_dir"):
        assert sum(setter in message for message in messages) == 1
    # The two modules that own process-wide state are where those things live.
    owners = [SRC_TREE / "config.py", SRC_TREE / "faults" / "__init__.py"]
    assert analyze_paths(owners, rules=["KNOB001"]).findings == []


def test_exc001_specific_sites():
    report = analyze_paths([FIXTURES / "exc001_bad.py"], rules=["EXC001"])
    messages = " | ".join(finding.message for finding in report.findings)
    # One finding per silent swallow, each naming its enclosing function.
    assert len(report.findings) == 5
    for name in (
        "_submit_per_shard",
        "dispatch_batch",
        "publish_segment",
        "_release_segments",
        "probe_process_executor",
    ):
        assert f"{name}()" in messages
    # Findings anchor at the except line, where the suppression would go.
    lines = {finding.line for finding in report.findings}
    source = (FIXTURES / "exc001_bad.py").read_text().splitlines()
    assert all(source[line - 1].lstrip().startswith("except") for line in lines)


# ---------------------------------------------------------------------------
# Framework: registry
# ---------------------------------------------------------------------------


def test_register_checker_round_trip():
    class ProbeChecker(Checker):
        rule = "PROBE900"
        title = "registry probe"

    try:
        register_checker(ProbeChecker)
        assert "PROBE900" in list_checkers()
        assert checker_class("PROBE900") is ProbeChecker
        # Re-registering the same class is idempotent...
        register_checker(ProbeChecker)

        # ...but a different class under the same id is an error.
        class UsurperChecker(Checker):
            rule = "PROBE900"

        with pytest.raises(ValueError, match="already registered"):
            register_checker(UsurperChecker)
    finally:
        unregister_checker("PROBE900")
    assert "PROBE900" not in list_checkers()


def test_register_checker_validates_rule_id():
    class NamelessChecker(Checker):
        rule = ""

    with pytest.raises(ValueError, match="non-empty"):
        register_checker(NamelessChecker)

    class LowercaseChecker(Checker):
        rule = "probe901"

    with pytest.raises(ValueError, match="UPPERCASE"):
        register_checker(LowercaseChecker)


def test_unknown_rule_rejected():
    with pytest.raises(ValueError, match="unknown rule"):
        checker_class("NOPE999")
    with pytest.raises(ValueError, match="unknown rule"):
        analyze_paths([FIXTURES / "det001_good.py"], rules=["NOPE999"])


def test_custom_checker_runs_through_analyze(tmp_path):
    class EveryModuleChecker(Checker):
        rule = "PROBE902"
        title = "flags every module"

        def check_module(self, ctx):
            yield self.finding(ctx.path, ctx.tree.body[0], "saw a module")

    target = tmp_path / "anything.py"
    target.write_text("x = 1\n")
    try:
        register_checker(EveryModuleChecker)
        report = analyze_paths([target], rules=["PROBE902"])
        assert [finding.rule for finding in report.findings] == ["PROBE902"]
    finally:
        unregister_checker("PROBE902")


# ---------------------------------------------------------------------------
# Framework: suppressions
# ---------------------------------------------------------------------------


def test_suppression_same_line(tmp_path):
    target = tmp_path / "module.py"
    target.write_text(
        "_cache = {}\n"
        "def remember(key, value):\n"
        "    _cache[key] = value  # repro: ignore[STATE001] single-threaded tool\n"
    )
    report = analyze_paths([target], rules=["STATE001"])
    assert report.findings == []
    assert [finding.rule for finding in report.suppressed] == ["STATE001"]


def test_suppression_comment_block_above(tmp_path):
    target = tmp_path / "module.py"
    target.write_text(
        "_cache = {}\n"
        "def remember(key, value):\n"
        "    # repro: ignore[STATE001] this helper is only ever called under\n"
        "    # the session lock held by the caller.\n"
        "    _cache[key] = value\n"
    )
    report = analyze_paths([target], rules=["STATE001"])
    assert report.findings == []
    assert len(report.suppressed) == 1


def test_suppression_file_level(tmp_path):
    target = tmp_path / "module.py"
    target.write_text(
        "# repro: ignore-file[STATE001] import-time scratch module\n"
        "_cache = {}\n"
        "def remember(key, value):\n"
        "    _cache[key] = value\n"
        "def forget(key):\n"
        "    _cache.pop(key, None)\n"
    )
    report = analyze_paths([target], rules=["STATE001"])
    assert report.findings == []
    assert len(report.suppressed) == 2


def test_suppression_only_silences_named_rule(tmp_path):
    target = tmp_path / "module.py"
    target.write_text(
        "_cache = {}\n"
        "def remember(key, value):\n"
        "    _cache[key] = value  # repro: ignore[DET001] wrong rule on purpose\n"
    )
    report = analyze_paths([target], rules=["STATE001"])
    assert [finding.rule for finding in report.findings] == ["STATE001"]
    assert report.suppressed == []


def test_parse_suppressions_multiple_rules():
    suppressions = parse_suppressions(
        "x = 1  # repro: ignore[STATE001, DET001] both\n"
    )
    assert suppressions.covers("STATE001", 1)
    assert suppressions.covers("DET001", 1)
    assert not suppressions.covers("REG001", 1)
    assert not suppressions.covers("STATE001", 2)


# ---------------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------------


def test_json_report_schema():
    report = analyze_paths([FIXTURES / "state001_bad.py"], rules=["STATE001"])
    payload = json.loads(json_report(report))
    assert payload["version"] == JSON_SCHEMA_VERSION
    assert payload["tool"] == "repro-static"
    assert payload["rules"] == [
        {"rule": "STATE001", "title": checker_class("STATE001").title}
    ]
    assert payload["files_analyzed"] == 1
    assert payload["counts"] == {
        "findings": len(report.findings),
        "suppressed": 0,
        "errors": 0,
    }
    assert payload["counts"]["findings"] > 0
    for finding in payload["findings"]:
        assert set(finding) == {"rule", "path", "line", "col", "message"}
        assert finding["rule"] == "STATE001"
        assert finding["line"] >= 1 and finding["col"] >= 1
    assert payload["suppressed"] == []
    assert payload["errors"] == []


def test_findings_sorted_deterministically():
    report = analyze_paths([FIXTURES], rules=list(ALL_RULES))
    keys = [finding.sort_key for finding in report.findings]
    assert keys == sorted(keys)


def test_syntax_error_reported_not_raised(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def broken(:\n")
    report = analyze_paths([target])
    assert not report.ok
    assert report.findings == []
    assert len(report.errors) == 1
    assert str(target) in report.errors[0][0]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_clean_tree_exits_zero(capsys):
    code = cli_main([str(FIXTURES / "det001_good.py"), "--rules", "DET001"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 finding(s)" in out


def test_cli_findings_exit_one_json(capsys):
    code = cli_main([str(FIXTURES / "det001_bad.py"), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["counts"]["findings"] > 0


def test_cli_parse_error_exits_two(tmp_path, capsys):
    target = tmp_path / "broken.py"
    target.write_text("def broken(:\n")
    code = cli_main([str(target)])
    assert code == 2
    assert "ERROR" in capsys.readouterr().out


def test_cli_missing_path_exits_two(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        cli_main([str(tmp_path / "does_not_exist.py")])
    assert excinfo.value.code == 2


def test_cli_unknown_rule_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        cli_main([str(FIXTURES), "--rules", "NOPE999"])
    assert excinfo.value.code == 2


def test_cli_list_rules(capsys):
    code = cli_main(["--list-rules"])
    out = capsys.readouterr().out
    assert code == 0
    for rule in ALL_RULES:
        assert rule in out


def test_cli_output_file(tmp_path, capsys):
    destination = tmp_path / "report.json"
    code = cli_main(
        [str(FIXTURES / "state001_bad.py"), "--output", str(destination)]
    )
    capsys.readouterr()  # human report on stdout, JSON in the file
    assert code == 1
    payload = json.loads(destination.read_text())
    assert payload["version"] == JSON_SCHEMA_VERSION
    assert payload["counts"]["findings"] > 0


# ---------------------------------------------------------------------------
# The gate itself: src/repro is clean, and known violations break it
# ---------------------------------------------------------------------------


def test_self_run_src_repro_is_clean():
    report = analyze_paths([SRC_TREE])
    assert report.errors == []
    assert report.findings == [], "\n".join(
        finding.format() for finding in report.findings
    )
    # The suppressions documented in parallel.py stay visible, not silent.
    assert any(
        finding.rule == "STATE001" and "parallel.py" in finding.path
        for finding in report.suppressed
    )


def test_gate_fails_on_lambda_binder(tmp_path):
    target = tmp_path / "regression.py"
    target.write_text(
        "def compile_program(store):\n"
        "    return store.select_gather(lambda part: bytearray(len(part)))\n"
    )
    assert cli_main([str(target)]) == 1
    report = analyze_paths([target])
    assert {finding.rule for finding in report.findings} == {"SHIP001"}


def test_finding_format_is_clickable():
    finding = Finding("DET001", "src/x.py", 12, 3, "msg")
    assert finding.format() == "src/x.py:12:3: DET001 msg"
