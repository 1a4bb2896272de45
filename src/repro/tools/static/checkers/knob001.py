"""KNOB001 — process-wide settings live in one place.

Every process-wide setting is a field of the one :class:`repro.config.Config`
(validated by its one ``configure()``, seeded by its one ``REPRO_*``
environment table); the fault plan is the fault layer's own instrument.  So
outside the two modules that own them — ``repro/config.py`` and
``repro/faults/__init__.py`` —

* no ``os.environ`` / ``os.getenv`` read names a ``REPRO_*`` variable (or a
  name the analyzer cannot see, which is as unauditable), and
* no function named ``set_*`` rebinds a module global (contains a ``global``
  statement): a second copy of a setting would not validate like the first,
  would not reach worker processes, and would not be restored by
  ``configure(previous)``.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import Iterator, List, Optional

from ..core import Checker, Finding, ModuleContext, dotted_name, register_checker

_OWNERS = (("repro", "config.py"), ("faults", "__init__.py"))
_ENV_PREFIX = "REPRO_"
_ENV_READS = frozenset({"os.environ.get", "os.getenv", "environ.get"})


def _variable_name(node: ast.AST) -> Optional[ast.expr]:
    """The variable-name expression of an environment read, if ``node`` is one."""
    if isinstance(node, ast.Call) and dotted_name(node.func) in _ENV_READS and node.args:
        return node.args[0]
    if isinstance(node, ast.Subscript) and dotted_name(node.value) in {"os.environ", "environ"}:
        return node.slice
    return None


@register_checker
class KnobHygieneChecker(Checker):
    rule = "KNOB001"
    title = "settings and REPRO_* environment reads live in repro/config.py"

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        if PurePath(ctx.path).parts[-2:] in _OWNERS:
            return iter(())
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            name = _variable_name(node)
            if name is None:
                continue
            constant = name.value if isinstance(name, ast.Constant) else None
            if not isinstance(constant, str):
                findings.append(
                    self.finding(
                        ctx.path,
                        node,
                        "environment read of a computed variable name; REPRO_* variables "
                        "are read only by the table in repro/config.py",
                    )
                )
            elif constant.startswith(_ENV_PREFIX):
                findings.append(
                    self.finding(
                        ctx.path,
                        node,
                        f"environment variable {constant!r} is read outside repro/config.py; "
                        "add a row to its ENV table instead",
                    )
                )
        for statement in ctx.tree.body:
            if not isinstance(statement, ast.FunctionDef) or not statement.name.startswith("set_"):
                continue
            if any(isinstance(node, ast.Global) for node in ast.walk(statement)):
                findings.append(
                    self.finding(
                        ctx.path,
                        statement,
                        f"setter {statement.name!r} rebinds a module global; a process-wide "
                        "setting is a field of repro.config.Config, changed by configure()",
                    )
                )
        return iter(findings)
