"""Rule: published delta overlays are frozen, and compactions are clamped.

The O(changes) publish path (PR 10) hands readers a
:class:`~repro.core.overlay.DeltaOverlay` *by reference*: every snapshot
between two compactions shares the same overlay object, and the
bit-identical-to-recompile guarantee rests on that object never changing
once a snapshot carries it.  The overlay's arrays are born read-only
(``setflags(write=False)`` at construction); this rule pins the holes
that would reopen them, exactly as ``mmap-discipline`` does for
store-mapped views:

- **No mutation through published overlays.**  Values bound from
  ``OverlayBuilder.freeze()`` or a direct ``DeltaOverlay(...)``
  construction must never be written through —
  no in-place stores, no attribute rebinding, no
  ``setflags(write=True)``.  Writers that need to change the delta build
  a *new* overlay and publish a *new* snapshot.

- **Compactions clamp their stall.**  The background compactor's loop
  methods (``_run`` / ``compact_once``) may only invoke the fold through
  a call that passes an explicit lock-acquisition clamp — a positional
  timeout or a ``timeout=``/``lock_timeout=`` keyword.  An unclamped
  ``compact()`` from the daemon thread queues unboundedly behind a write
  burst and turns the "background" fold into a writer stall.

Scope: ``core/``, ``serve/``, and ``store/`` — everywhere overlay
objects are built, published, or folded.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleContext, Rule

#: Calls whose return value is (or contains) a frozen delta overlay.
_OVERLAY_SOURCES = {
    "freeze",
    "DeltaOverlay",
}

#: Compactor loop methods whose fold calls must pass a clamp.
_LOOP_METHODS = {"_run", "compact_once"}

#: Terminal names of the fold callable as seen from the loop.
_FOLD_NAMES = {"compact", "_compact", "_timed_compact"}


def _call_name(node: ast.expr) -> str | None:
    """Terminal name of a call target (``builder.freeze`` -> ``freeze``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _root_name(node: ast.expr) -> str | None:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_overlay_source(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and _call_name(node.func) in _OVERLAY_SOURCES
    )


def _passes_clamp(call: ast.Call) -> bool:
    """True when the fold call carries an explicit stall clamp."""
    if call.args:
        return True
    return any(
        kw.arg in ("timeout", "lock_timeout") for kw in call.keywords
    )


class OverlayDisciplineRule(Rule):
    """Published overlays are immutable; compactor folds are clamped."""

    id = "overlay-discipline"
    summary = (
        "published delta overlays must never be mutated, and compactor "
        "loop folds must pass an explicit lock-timeout clamp"
    )
    hint = (
        "build a new overlay (OverlayBuilder.freeze()) instead of "
        "editing a published one, and call the fold as "
        "compact(lock_timeout) from compactor loops"
    )
    paths = ("core/", "serve/", "store/")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield a finding per overlay mutation or unclamped fold."""
        tracked = self._tracked_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if tracked:
                yield from self._check_mutation(ctx, node, tracked)
            if (
                isinstance(node, ast.FunctionDef)
                and node.name in _LOOP_METHODS
            ):
                yield from self._check_loop_clamp(ctx, node)

    def _tracked_names(self, tree: ast.Module) -> set[str]:
        tracked: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and _is_overlay_source(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        tracked.add(target.id)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if _is_overlay_source(node.value) and isinstance(
                    node.target, ast.Name
                ):
                    tracked.add(node.target.id)
        return tracked

    def _check_mutation(
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
                        yield self.finding(
                            ctx,
                            node,
                            "assignment mutates published delta overlay "
                            f"{root!r}; freeze a new overlay instead",
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
                    "setflags(write=True) unfreezes a published delta "
                    f"overlay array of {_root_name(func.value)!r}",
                )

    def _check_loop_clamp(
        self, ctx: ModuleContext, loop: ast.FunctionDef
    ) -> Iterator[Finding]:
        for node in ast.walk(loop):
            if (
                isinstance(node, ast.Call)
                and _call_name(node.func) in _FOLD_NAMES
                and not _passes_clamp(node)
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"compactor loop {loop.name!r} invokes the fold "
                    "without a lock-timeout clamp; it may stall "
                    "unboundedly behind the writer lock",
                )

    @staticmethod
    def _enables_write(call: ast.Call) -> bool:
        for kw in call.keywords:
            if kw.arg == "write":
                return not (
                    isinstance(kw.value, ast.Constant)
                    and kw.value.value is False
                )
        return bool(call.args)
