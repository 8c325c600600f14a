"""Pipeline-contract checker: rules C301–C304.

``PipelineConfig`` is the single ablation surface — every experiment in
``bench`` is a config swap — so a knob that nothing consumes is a silent
no-op ablation, and an undocumented knob is invisible to the person
designing the experiment.  Similarly, a middleware that neither calls
``call_next`` nor declares itself terminal quietly swallows every
request behind it in the chain.

* **C301** — a ``PipelineConfig`` field is consumed by no code outside
  the dataclass definition itself.
* **C302** — a ``PipelineConfig`` field does not appear (in backticks)
  in ``docs/architecture.md``'s config table.
* **C304** — a consumed ``PipelineConfig`` field is passed by keyword by
  no call in ``src/repro`` (outside the dataclass), ``benchmarks/`` or
  ``examples/``: with one value in use outside ``tests/`` the knob is a
  constant.  *Any* keyword argument of that name counts (``replace(cfg,
  tenant=…)``, a topology builder's ``shards=…``) — the same deliberate
  looseness as C301's attribute reads.
* **C303** — a ``Middleware.handle`` override never references its
  ``call_next`` parameter and is not annotated
  ``# repro: terminal-middleware``.  *Referencing* (not just calling)
  counts: batching middlewares legitimately store ``call_next`` for a
  later flush.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set

from repro.analysis.core import AnalysisContext, Finding, SourceFile

CONFIG_MODULE = "src/repro/middleware/config.py"
CONFIG_CLASS = "PipelineConfig"
#: Directories under the analysis root, besides the source tree, whose
#: calls count as setting a knob (C304).  ``tests/`` is left out on purpose.
CALLER_DIRS = ("benchmarks", "examples")


def _find_class(source: SourceFile, name: str) -> Optional[ast.ClassDef]:
    for node in source.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _dataclass_fields(cls: ast.ClassDef) -> Dict[str, int]:
    """Annotated field name → line, skipping ClassVar pseudo-fields."""
    fields: Dict[str, int] = {}
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            annotation = ast.dump(node.annotation)
            if "ClassVar" in annotation:
                continue
            fields[node.target.id] = node.lineno
    return fields


def _nodes_outside(
    tree: ast.Module, skip: Optional[ast.ClassDef]
) -> Iterator[ast.AST]:
    """Every node of a module except those inside one class body (the
    dataclass defining the fields)."""
    skip_range = (
        range(skip.lineno, (skip.end_lineno or skip.lineno) + 1)
        if skip is not None
        else range(0)
    )
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) not in skip_range:
            yield node


def _attribute_reads(tree: ast.Module, skip: Optional[ast.ClassDef]) -> Set[str]:
    """All ``<expr>.attr`` attribute names read in a module."""
    return {
        node.attr
        for node in _nodes_outside(tree, skip)
        if isinstance(node, ast.Attribute)
    }


def _keywords_passed(
    tree: ast.Module, skip: Optional[ast.ClassDef] = None
) -> Set[str]:
    """All keyword-argument names any call in a module passes."""
    return {
        keyword.arg
        for node in _nodes_outside(tree, skip)
        if isinstance(node, ast.Call)
        for keyword in node.keywords
        if keyword.arg is not None
    }


def _caller_trees(root: Path) -> List[ast.Module]:
    """Parsed modules of the non-source caller directories that exist."""
    return [
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for directory in CALLER_DIRS
        for path in sorted((root / directory).rglob("*.py"))
    ]


def check_contracts(context: AnalysisContext) -> List[Finding]:
    findings: List[Finding] = []
    findings.extend(_check_config_knobs(context))
    findings.extend(_check_middleware_forwarding(context))
    return findings


def _check_config_knobs(context: AnalysisContext) -> List[Finding]:
    findings: List[Finding] = []
    config_source = next(
        (s for s in context.files if s.relative == CONFIG_MODULE), None
    )
    if config_source is None:
        return findings
    config_class = _find_class(config_source, CONFIG_CLASS)
    if config_class is None:
        return findings
    fields = _dataclass_fields(config_class)

    consumed: Set[str] = set()
    passed: Set[str] = set()
    for source in context.files:
        skip = config_class if source is config_source else None
        consumed |= _attribute_reads(source.tree, skip)
        passed |= _keywords_passed(source.tree, skip)
    for tree in _caller_trees(context.root):
        passed |= _keywords_passed(tree)

    for name, line in sorted(fields.items()):
        marker = ast.copy_location(ast.Pass(), config_class)
        marker.lineno = line
        if name not in consumed:
            finding = context.finding(
                config_source,
                marker,
                "C301",
                f"PipelineConfig.{name} is consumed by no middleware or stage",
                hint=(
                    "wire the knob into build_client_pipeline / a stage, "
                    "or delete it — dead config is a silent no-op ablation"
                ),
            )
            if finding is not None:
                findings.append(finding)
        elif name not in passed:
            finding = context.finding(
                config_source,
                marker,
                "C304",
                f"PipelineConfig.{name} is consumed but never set — make it "
                "a constant",
                hint=(
                    "no call outside tests/ passes it by keyword; move the "
                    "value to the consuming component's constructor default "
                    "and delete the field"
                ),
            )
            if finding is not None:
                findings.append(finding)
        if context.architecture_doc and f"`{name}`" not in context.architecture_doc:
            finding = context.finding(
                config_source,
                marker,
                "C302",
                f"PipelineConfig.{name} is missing from the config table in "
                "docs/architecture.md",
                hint="add a row describing the knob and which middleware reads it",
            )
            if finding is not None:
                findings.append(finding)
    return findings


def _middleware_base_names(cls: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


def _check_middleware_forwarding(context: AnalysisContext) -> List[Finding]:
    findings: List[Finding] = []
    for source in context.files:
        if not source.relative.startswith("src/repro/middleware/"):
            continue
        for node in source.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if "Middleware" not in _middleware_base_names(node):
                continue
            handle = next(
                (
                    item
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name == "handle"
                ),
                None,
            )
            if handle is None:
                continue  # inherits the base implementation
            args = handle.args.posonlyargs + handle.args.args
            if len(args) < 3:
                continue  # not the (self, ctx, call_next) signature
            forward_param = args[2].arg
            referenced = any(
                isinstance(inner, ast.Name) and inner.id == forward_param
                for stmt in handle.body
                for inner in ast.walk(stmt)
            )
            terminal = source.has_pragma(
                node.lineno, "terminal-middleware"
            ) or source.has_pragma(handle.lineno, "terminal-middleware")
            if referenced or terminal:
                continue
            finding = context.finding(
                source,
                handle,
                "C303",
                f"{node.name}.handle never references `{forward_param}` — the "
                "chain behind it is unreachable",
                hint=(
                    "forward via `return call_next(ctx)` (or store it for a "
                    "deferred flush); a deliberate sink gets "
                    "`# repro: terminal-middleware` on the class"
                ),
            )
            if finding is not None:
                findings.append(finding)
    return findings
