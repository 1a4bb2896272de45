"""KNOB001 — knob setters must validate; env overrides must be documented.

Every process-wide knob (``set_shard_workers``, ``set_mask_chunk_size``,
``set_process_min_rows``, ...) validates its argument and raises
:exc:`ValueError` on junk — a knob that silently accepts ``0`` workers or a
negative chunk size turns into an inscrutable hang three layers down.  And
every environment override read at import time is part of the public
surface: it must appear in the documented allowlist below (mirrored in the
Static invariants README), so deployments can audit what the environment
can change before a single query runs.

Concretely:

* a module-level ``set_*`` function that rebinds module state (contains a
  ``global`` statement) must raise ``ValueError``/``TypeError`` itself or
  call a same-module function that does;
* every ``REPRO_*`` environment variable read via ``os.environ`` /
  ``os.getenv`` — directly or through a module-local helper that takes the
  variable name as a parameter — must be in :data:`DOCUMENTED_ENV_OVERRIDES`.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..core import Checker, Finding, ModuleContext, dotted_name, register_checker

# The audited public surface of environment overrides.  Adding an env knob
# means adding it here *and* to src/repro/tools/static/README.md — the rule
# exists precisely to make that pairing impossible to forget.
DOCUMENTED_ENV_OVERRIDES = frozenset(
    {
        "REPRO_SHARD_WORKERS",
        "REPRO_SHARD_EXECUTOR",
        "REPRO_SERVING_CACHE",
        "REPRO_SERVING_POLICY",
        "REPRO_STORE_DIR",
        "REPRO_DEFAULT_BACKEND",
        "REPRO_FAULT_PLAN",
        "REPRO_DISPATCH_RETRIES",
        "REPRO_CHECKSUM",
    }
)

_ENV_PREFIX = "REPRO_"
_VALIDATION_ERRORS = frozenset({"ValueError", "TypeError"})
_ENV_READS = frozenset({"os.environ.get", "os.getenv", "environ.get"})


def _raises_validation_error(function: ast.AST) -> bool:
    for node in ast.walk(function):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        target = exc.func if isinstance(exc, ast.Call) else exc
        if isinstance(target, ast.Name) and target.id in _VALIDATION_ERRORS:
            return True
    return False


def _called_names(function: ast.AST) -> Set[str]:
    return {
        node.func.id
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def _env_name_argument(node: ast.Call) -> Optional[ast.expr]:
    """The name argument of an ``os.environ`` read call, if any."""
    if dotted_name(node.func) in _ENV_READS and node.args:
        return node.args[0]
    return None


def _subscript_env_argument(node: ast.Subscript) -> Optional[ast.expr]:
    if dotted_name(node.value) in {"os.environ", "environ"}:
        return node.slice
    return None


@register_checker
class KnobHygieneChecker(Checker):
    rule = "KNOB001"
    title = "set_* knobs must validate; env overrides must be documented"

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        findings: List[Finding] = []
        functions: Dict[str, ast.FunctionDef] = {
            statement.name: statement
            for statement in ctx.tree.body
            if isinstance(statement, ast.FunctionDef)
        }
        raisers = {
            name for name, func in functions.items() if _raises_validation_error(func)
        }
        for name, function in functions.items():
            if not name.startswith("set_"):
                continue
            if not any(isinstance(node, ast.Global) for node in ast.walk(function)):
                continue
            if name in raisers or _called_names(function) & raisers:
                continue
            findings.append(
                self.finding(
                    ctx.path,
                    function,
                    f"knob setter {name!r} rebinds module state without raising "
                    "ValueError/TypeError on invalid input (directly or via a "
                    "same-module validator)",
                )
            )
        for name_node, env_name in self._env_reads(ctx):
            if env_name.startswith(_ENV_PREFIX) and env_name not in DOCUMENTED_ENV_OVERRIDES:
                findings.append(
                    self.finding(
                        ctx.path,
                        name_node,
                        f"environment override {env_name!r} is not in the documented "
                        "allowlist (DOCUMENTED_ENV_OVERRIDES in the KNOB001 checker "
                        "and the Static invariants README)",
                    )
                )
        return iter(findings)

    def _env_reads(self, ctx: ModuleContext) -> List[Tuple[ast.AST, str]]:
        """All ``(node, env var name)`` reads, constants resolved through helpers."""
        reads: List[Tuple[ast.AST, str]] = []
        helper_params: Dict[str, str] = {}
        for node in ast.walk(ctx.tree):
            argument: Optional[ast.expr] = None
            if isinstance(node, ast.Call):
                argument = _env_name_argument(node)
            elif isinstance(node, ast.Subscript):
                argument = _subscript_env_argument(node)
            if argument is None:
                continue
            if isinstance(argument, ast.Constant) and isinstance(argument.value, str):
                reads.append((node, argument.value))
            elif isinstance(argument, ast.Name):
                # The read is parameterized: find the enclosing helper and
                # resolve its call sites below.
                function = ctx.enclosing_function(node)
                if (
                    isinstance(function, ast.FunctionDef)
                    and argument.id in {arg.arg for arg in function.args.args}
                ):
                    helper_params[function.name] = argument.id
        if helper_params:
            for node in ast.walk(ctx.tree):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                    continue
                if node.func.id not in helper_params or not node.args:
                    continue
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    reads.append((node, first.value))
        return reads
