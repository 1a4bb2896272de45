"""STATE001 — module-level mutable state must be written behind a lock.

The engine runs the same code from a server's request threads, the
process-pool parent, and worker initializers; a module-level
dict/list/counter written from an arbitrary function is a data race
waiting for the first concurrent
query.  PRs 3–5 adopted a convention this rule makes structural: module
state is written only

* at module scope (import time is single-threaded),
* inside a designated mutator — a function whose name starts with
  ``set_``/``reset_``/``register``/``unregister``/``clear_`` (the knob and
  registry surface), or
* lexically inside a ``with <lock>:`` block whose context expression names
  a lock (any name containing ``lock``).

Writes that are safe for a structural reason the AST cannot see (a helper
only ever called under a lock, worker-process-private caches) carry an
inline ``# repro: ignore[STATE001] <why>`` — the justification is the
point.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from ..core import Checker, Finding, ModuleContext, dotted_name, register_checker

_MUTATOR_PREFIXES = ("set_", "reset_", "register", "unregister", "clear_")
_CONTAINER_CALLS = frozenset(
    {"dict", "list", "set", "OrderedDict", "defaultdict", "deque", "bytearray", "Counter"}
)
_LOCK_CALLS = frozenset({"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"})
_MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)


def _value_kind(value: Optional[ast.expr]) -> str:
    """Classify a module-level binding: ``container``, ``lock``, or ``other``."""
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return "container"
    if isinstance(value, ast.Call):
        name = dotted_name(value.func).rsplit(".", 1)[-1]
        if name in _CONTAINER_CALLS:
            return "container"
        if name in _LOCK_CALLS:
            return "lock"
    return "other"


def _under_lock(ctx: ModuleContext, node: ast.AST) -> bool:
    """Whether ``node`` sits lexically inside a ``with <...lock...>:`` block."""
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
        if not isinstance(ancestor, (ast.With, ast.AsyncWith)):
            continue
        for item in ancestor.items:
            expression = item.context_expr
            if isinstance(expression, ast.Call):
                expression = expression.func
            if "lock" in dotted_name(expression).lower():
                return True
    return False


@register_checker
class SharedStateChecker(Checker):
    rule = "STATE001"
    title = "module-level mutable state written outside a lock or setter"

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        containers: Set[str] = set()
        locks: Set[str] = set()
        tracked: Set[str] = set()
        for statement in ctx.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(statement, ast.Assign):
                targets, value = statement.targets, statement.value
            elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
                targets, value = [statement.target], statement.value
            kind = _value_kind(value)
            for target in targets:
                if not isinstance(target, ast.Name) or target.id.startswith("__"):
                    continue
                if kind == "lock":
                    locks.add(target.id)
                elif kind == "container":
                    containers.add(target.id)
                    tracked.add(target.id)
                else:
                    tracked.add(target.id)
        tracked -= locks
        containers -= locks
        if not tracked:
            return iter(())
        findings: List[Finding] = []
        for function in ast.walk(ctx.tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if function.name.startswith(_MUTATOR_PREFIXES):
                continue
            declared_global = {
                name
                for node in ast.walk(function)
                if isinstance(node, ast.Global)
                for name in node.names
            }
            for write, name in self._writes(function, tracked, containers, declared_global):
                if _under_lock(ctx, write):
                    continue
                findings.append(
                    self.finding(
                        ctx.path,
                        write,
                        f"module-level mutable state {name!r} written outside a "
                        "lock or a designated setter; this races across the "
                        "request-thread/process executor seam",
                    )
                )
        return iter(findings)

    def _writes(
        self,
        function: ast.AST,
        tracked: Set[str],
        containers: Set[str],
        declared_global: Set[str],
    ) -> Iterator:
        rebindable = tracked & declared_global
        for node in ast.walk(function):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in self._target_names(target, rebindable, containers):
                        yield node, name
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in containers
                    ):
                        yield node, target.value.id
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATING_METHODS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in containers
                ):
                    yield node, func.value.id

    def _target_names(
        self, target: ast.expr, rebindable: Set[str], containers: Set[str]
    ) -> Iterator[str]:
        if isinstance(target, ast.Name) and target.id in rebindable:
            yield target.id
        elif (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Name)
            and target.value.id in containers
        ):
            yield target.value.id
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                for name in self._target_names(element, rebindable, containers):
                    yield name
