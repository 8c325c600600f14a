"""Concurrency checker: rule T402.

The simulator is single-threaded by construction — the event loop owns
all state and no module starts a thread (a tier-1 test holds that) — so
the hazard left is re-entrancy:

* **T402** — ``EventBus._handlers`` may be structurally mutated only by
  the reentrancy-safe API (``__init__``, ``subscribe``, and the deferred
  compactor) — ``unsubscribe`` during ``publish`` must go through the
  dirty-topic deferral or iteration invalidates mid-publish.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Tuple

from repro.analysis.core import AnalysisContext, Finding, SourceFile

#: Method names that structurally mutate their receiver.
MUTATOR_METHODS = frozenset(
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
        "rotate",
        "setdefault",
        "sort",
        "update",
    }
)

#: Methods allowed to touch ``EventBus._handlers`` directly.  Everything
#: else must go through them (``unsubscribe`` marks dirty; the sweep
#: compacts between publishes).
EVENTBUS_SAFE_METHODS = frozenset({"__init__", "subscribe", "_compact_topic"})

#: Variable names treated as "probably an EventBus" outside events.py.
_BUS_NAME_RE = re.compile(r"(^|_)(bus|events?)($|_)")


def _self_attr_root(node: ast.expr) -> Optional[str]:
    """For a ``self.a[...].b``-style chain, the first attribute after
    ``self`` — i.e. which instance attribute this expression touches."""
    attr: Optional[str] = None
    while True:
        if isinstance(node, ast.Attribute):
            attr = node.attr
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        else:
            break
    if isinstance(node, ast.Name) and node.id == "self":
        return attr
    return None


def _iter_mutations(body: List[ast.stmt]) -> Iterator[Tuple[ast.AST, str]]:
    """(node, instance-attribute) pairs for every mutation of ``self``
    state in ``body`` — assignments, deletions, subscript stores, and
    mutator method calls."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    elements = (
                        target.elts
                        if isinstance(target, (ast.Tuple, ast.List))
                        else [target]
                    )
                    for element in elements:
                        attr = _self_attr_root(element)
                        if attr is not None:
                            yield node, attr
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    attr = _self_attr_root(target)
                    if attr is not None:
                        yield node, attr
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in MUTATOR_METHODS:
                    attr = _self_attr_root(node.func.value)
                    if attr is not None:
                        yield node, attr


def check_concurrency(context: AnalysisContext) -> List[Finding]:
    findings: List[Finding] = []
    for source in context.files:
        for node in source.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "EventBus":
                findings.extend(_check_eventbus(context, source, node))
        findings.extend(_check_external_bus_mutation(context, source))
    return findings


def _check_eventbus(
    context: AnalysisContext, source: SourceFile, cls: ast.ClassDef
) -> List[Finding]:
    findings: List[Finding] = []
    for method in cls.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        if method.name in EVENTBUS_SAFE_METHODS:
            continue
        for mutation, attr in _iter_mutations(method.body):
            if attr != "_handlers":
                continue
            finding = context.finding(
                source,
                mutation,
                "T402",
                f"EventBus.{method.name} mutates `_handlers` outside the "
                "reentrancy-safe API",
                hint=(
                    "route removal through the dirty-topic deferral "
                    "(unsubscribe/_compact_topic) so publish iteration "
                    "stays valid"
                ),
            )
            if finding is not None:
                findings.append(finding)
    return findings


def _check_external_bus_mutation(
    context: AnalysisContext, source: SourceFile
) -> List[Finding]:
    """Flag ``bus._handlers.<mutator>(...)`` reach-ins outside the bus
    module itself — subscriber lists are private to the bus."""
    findings: List[Finding] = []
    if source.relative.endswith("common/events.py"):
        return findings
    for node in ast.walk(source.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr not in MUTATOR_METHODS:
            continue
        receiver = node.func.value
        if not (
            isinstance(receiver, ast.Attribute) and receiver.attr == "_handlers"
        ):
            continue
        owner = receiver.value
        owner_name = owner.attr if isinstance(owner, ast.Attribute) else (
            owner.id if isinstance(owner, ast.Name) else ""
        )
        if not _BUS_NAME_RE.search(owner_name.lower()):
            continue
        finding = context.finding(
            source,
            node,
            "T402",
            f"direct mutation of `{owner_name}._handlers` bypasses the "
            "EventBus reentrancy-safe API",
            hint="use bus.subscribe/bus.unsubscribe instead of reaching in",
        )
        if finding is not None:
            findings.append(finding)
    return findings
