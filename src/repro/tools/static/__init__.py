"""Static invariant analyzers for the repro codebase.

``python -m repro.tools.static src/repro`` (or the ``repro-lint`` console
script) runs an AST-based checker suite over the tree and fails on any
violation of the invariants PRs 2–5 introduced but no runtime test can see
until they break under load: picklability of work shipped to process
workers (SHIP001), backend registration for the conformance matrix
(REG001), settings and ``REPRO_*`` reads kept in ``repro.config``
(KNOB001), lock discipline around module state (STATE001), and determinism
of result-producing code (DET001).

See ``README.md`` next to this file for the rule catalogue and suppression
syntax, and :mod:`repro.tools.static.core` for the framework (checker
registry, suppressions, reporting).

Importing this package registers the built-in rules.
"""

from . import checkers  # noqa: F401  (import-time rule registration)
from .core import (
    AnalysisReport,
    Checker,
    Finding,
    ModuleContext,
    analyze_paths,
    checker_class,
    iter_python_files,
    list_checkers,
    register_checker,
    unregister_checker,
)
from .reporters import JSON_SCHEMA_VERSION, human_report, json_report

__all__ = [
    "AnalysisReport",
    "Checker",
    "Finding",
    "JSON_SCHEMA_VERSION",
    "ModuleContext",
    "analyze_paths",
    "checker_class",
    "human_report",
    "iter_python_files",
    "json_report",
    "list_checkers",
    "register_checker",
    "unregister_checker",
]
