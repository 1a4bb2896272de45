"""Command-line front end: ``python -m repro.tools.static`` / ``repro-lint``.

Exit codes: ``0`` clean, ``1`` findings, ``2`` parse/usage errors — so the
CI gate is a bare invocation and a shell can distinguish "violations" from
"the analyzer itself could not run".
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .core import analyze_paths, checker_class, list_checkers
from .reporters import human_report, json_report

DEFAULT_TARGET = Path("src") / "repro"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant analyzer for the repro codebase: picklability "
            "of shipped work, dispatch-path exception handling, backend registration, "
            "knob hygiene, shared mutable state, and determinism."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files or directories to analyze (default: {DEFAULT_TARGET})",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="stdout format (default: human)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all registered)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="also write the JSON report to this file (any --format)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in list_checkers():
            print(f"{rule}  {checker_class(rule).title}")
        return 0
    rules: Optional[List[str]] = None
    if args.rules is not None:
        rules = [rule.strip() for rule in args.rules.split(",") if rule.strip()]
        try:
            for rule in rules:
                checker_class(rule)
        except ValueError as exc:
            parser.error(str(exc))  # exits 2
    paths = args.paths or [DEFAULT_TARGET]
    missing = [str(path) for path in paths if not Path(path).exists()]
    if missing:
        parser.error(f"no such path(s): {', '.join(missing)}")
    report = analyze_paths(paths, rules=rules)
    if args.output:
        Path(args.output).write_text(json_report(report), encoding="utf-8")
    rendered = json_report(report) if args.format == "json" else human_report(report)
    sys.stdout.write(rendered)
    if report.errors:
        return 2
    return 1 if report.findings else 0
