"""Rule: compiled snapshots are immutable after construction.

The compiled engine's bit-identical-parity promise (PR 1) and the RCU
snapshot rotation of :class:`~repro.serve.index.ServingIndex` (PR 3)
both depend on one fact: once :meth:`CompiledDG.from_graph` returns, no
code path mutates the snapshot's arrays or attributes.  ``__init__``
freezes the arrays with ``setflags(write=False)``, which catches *array*
writes at runtime — but attribute rebinding and ``setflags(write=True)``
would silently reopen the door.  This rule closes it statically.

Detection: within a module, any name bound from ``graph.compile()``,
``snapshot.detach()``, ``CompiledDG(...)``, ``CompiledDG.from_graph(...)``,
``CompiledDG.from_arrays(...)`` or a ``.compiled`` attribute is treated
as a snapshot handle; attribute assignment, in-place array stores, and
``setflags(write=True)`` through such a handle are findings.
``CompiledDG``'s own methods (in ``core/compiled.py``) are exempt —
construction and ``detach`` must write the attributes they define.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleContext, Rule

#: Calls whose result is a compiled snapshot.
_BINDING_METHODS = {"compile", "detach", "from_arrays", "from_graph"}
_BINDING_NAMES = {"CompiledDG"}
_BINDING_ATTRS = {"compiled"}


def _is_snapshot_source(node: ast.expr) -> bool:
    """Does this expression evaluate to a compiled snapshot?"""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _BINDING_METHODS:
            return True
        if isinstance(func, ast.Name) and func.id in _BINDING_NAMES:
            return True
    if isinstance(node, ast.Attribute) and node.attr in _BINDING_ATTRS:
        return True
    return False


def _root_name(node: ast.expr) -> str | None:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


class SnapshotImmutabilityRule(Rule):
    """No mutation of :class:`CompiledDG` handles outside construction."""

    id = "snapshot-immutability"
    summary = (
        "compiled snapshots must never be mutated after from_graph() returns"
    )
    hint = (
        "build a new snapshot with graph.compile() instead of mutating; "
        "snapshot arrays and attributes are frozen by contract"
    )
    paths = ()  # a snapshot leak is a bug wherever it happens

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield a finding for every mutation through a snapshot handle."""
        tracked = self._tracked_names(ctx.tree)
        if not tracked:
            return
        exempt = self._exempt_spans(ctx)
        for node in ast.walk(ctx.tree):
            line = getattr(node, "lineno", None)
            if line is not None and any(lo <= line <= hi for lo, hi in exempt):
                continue
            yield from self._check_node(ctx, node, tracked)

    def _tracked_names(self, tree: ast.Module) -> set[str]:
        tracked: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and _is_snapshot_source(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        tracked.add(target.id)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if _is_snapshot_source(node.value) and isinstance(
                    node.target, ast.Name
                ):
                    tracked.add(node.target.id)
        return tracked

    def _exempt_spans(self, ctx: ModuleContext) -> list[tuple[int, int]]:
        """Line spans of ``CompiledDG``'s own class body (construction)."""
        if not ctx.relpath.endswith("core/compiled.py"):
            return []
        return [
            (node.lineno, node.end_lineno or node.lineno)
            for node in ctx.tree.body
            if isinstance(node, ast.ClassDef) and node.name == "CompiledDG"
        ]

    def _check_node(
        self, ctx: ModuleContext, node: ast.AST, tracked: set[str]
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    root = _root_name(target)
                    if root in tracked:
                        kind = (
                            "attribute"
                            if isinstance(target, ast.Attribute)
                            else "array element"
                        )
                        yield self.finding(
                            ctx,
                            node,
                            f"{kind} assignment mutates compiled snapshot"
                            f" {root!r}",
                        )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "setflags"
                and _root_name(func.value) in tracked
                and self._enables_write(node)
            ):
                yield self.finding(
                    ctx,
                    node,
                    "setflags(write=True) re-opens a frozen snapshot array"
                    f" of {_root_name(func.value)!r}",
                )

    @staticmethod
    def _enables_write(call: ast.Call) -> bool:
        for kw in call.keywords:
            if kw.arg == "write":
                return not (
                    isinstance(kw.value, ast.Constant) and kw.value.value is False
                )
        return bool(call.args)
