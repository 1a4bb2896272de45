"""SHIP001 — everything shipped to worker processes must be picklable.

The process executor ships one operation, the fused select+gather
(``ShardedStore.select_gather`` → ``parallel.process_select_gather``): its
masker — a compiled :class:`~repro.algebra.predicates.MaskProgram`'s
``run_part``, with the binders the program holds — is pickled and shipped
to workers.  A lambda, a function defined inside another function, or a
local class in a binder position pickles never — and the failure is
silent, because the executor falls back to computing in the caller,
quietly erasing the parallelism the caller asked for.

The rule therefore guards two conventions:

* arguments of shipping constructors/calls (``MaskProgram(...)``,
  ``select_gather(...)``, ``process_select_gather(...)``, or any call with
  a ``binder``/``binders``/``masker`` keyword) must not contain lambdas or
  references to functions/classes defined in the enclosing function;
* every class named ``*Binder`` must be declared at module level and
  decorated with ``@dataclass`` — the shape the existing binder fleet
  (``ConstChunkBinder``, ``_RelaxedConstBinder``, ...) established, which
  pickles by construction.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from ..core import Checker, Finding, ModuleContext, call_name, register_checker

SHIP_CALLS = frozenset({"MaskProgram", "select_gather", "process_select_gather"})
SHIP_KEYWORDS = frozenset({"binder", "binders", "masker", "maskers"})
_DATACLASS_NAMES = frozenset({"dataclass"})


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute) and target.attr in _DATACLASS_NAMES:
            return True
        if isinstance(target, ast.Name) and target.id in _DATACLASS_NAMES:
            return True
    return False


def _local_definitions(function: ast.AST) -> Set[str]:
    """Names of functions/classes defined inside ``function`` (closures)."""
    names: Set[str] = set()
    for node in ast.walk(function):
        if node is function:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


@register_checker
class ShippingPicklabilityChecker(Checker):
    rule = "SHIP001"
    title = "work shipped to process workers must be picklable"

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and node.name.endswith("Binder"):
                findings.extend(self._check_binder_class(ctx, node))
            elif isinstance(node, ast.Call):
                findings.extend(self._check_shipping_call(ctx, node))
        return iter(findings)

    def _check_binder_class(
        self, ctx: ModuleContext, node: ast.ClassDef
    ) -> Iterator[Finding]:
        if not ctx.is_module_level(node):
            yield self.finding(
                ctx.path,
                node,
                f"binder class {node.name!r} is not module-level; nested classes "
                "cannot be pickled for the process-parallel executor",
            )
            return
        if not _is_dataclass_decorated(node):
            yield self.finding(
                ctx.path,
                node,
                f"binder class {node.name!r} must be a @dataclass (the picklable "
                "shape MaskProgram shipping relies on)",
            )

    def _check_shipping_call(
        self, ctx: ModuleContext, node: ast.Call
    ) -> Iterator[Finding]:
        shipping = call_name(node) in SHIP_CALLS or any(
            keyword.arg in SHIP_KEYWORDS for keyword in node.keywords if keyword.arg
        )
        if not shipping:
            return
        enclosing = ctx.enclosing_function(node)
        local_names = _local_definitions(enclosing) if enclosing is not None else set()
        arguments = list(node.args) + [keyword.value for keyword in node.keywords]
        for argument in arguments:
            for sub in ast.walk(argument):
                if isinstance(sub, ast.Lambda):
                    yield self.finding(
                        ctx.path,
                        sub,
                        "lambda in a shipping position; lambdas never pickle — use "
                        "a module-level @dataclass binder instead",
                    )
                elif isinstance(sub, ast.Name) and sub.id in local_names:
                    yield self.finding(
                        ctx.path,
                        sub,
                        f"{sub.id!r} is defined inside the enclosing function; "
                        "closures/local classes never pickle — hoist it to module "
                        "level",
                    )
