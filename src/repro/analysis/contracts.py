"""Contract checker: rules C301–C304.

A config class is an experiment's knob surface — ``PipelineConfig`` for
the client pipeline, ``DeploymentSpec`` / ``FleetSpec`` for the
topologies, ``RunConfig`` / ``BatchConfig`` for a run — so a knob that
nothing consumes is a silent no-op ablation, a knob that nothing sets is
a constant with a config field's cost, and an undocumented pipeline knob
is invisible to the person designing the experiment.  Similarly, a
middleware that neither calls ``call_next`` nor declares itself terminal
quietly swallows every request behind it in the chain.

* **C301** — a field of a registered config class (:data:`CONFIG_CLASSES`)
  is read as an attribute by no code in ``src/repro`` outside the class
  body.
* **C302** — a ``PipelineConfig`` field does not appear (in backticks)
  in ``docs/architecture.md``'s config table.
* **C304** — a consumed field of a registered config class is set by
  nothing outside tests: no call passes it by keyword and no dict
  literal writes it as a string key (how ``SWEEPS`` rows pass
  ``RunConfig`` and topology fields) anywhere in ``src/repro`` *except
  the class's own defining module* — a builder forwarding its own
  parameter is not a setter — or anywhere under ``benchmarks/`` or
  ``examples/`` outside a ``tests`` directory.  With one value in use
  the knob is a constant.  *Any* keyword or key of that name counts
  (``replace(cfg, tenant=…)``, a topology builder's ``shards=…``) — the
  same deliberate looseness as C301's attribute reads.
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

#: Registered config classes: defining module → class name.
CONFIG_CLASSES: Dict[str, str] = {
    "src/repro/middleware/config.py": "PipelineConfig",
    "src/repro/core/topology.py": "DeploymentSpec",
    "src/repro/workloads/fleet.py": "FleetSpec",
    "src/repro/bench/runner.py": "RunConfig",
    "src/repro/consensus/batching.py": "BatchConfig",
}
#: The one registered class whose fields must also appear in
#: ``docs/architecture.md``'s config table (C302).
DOCUMENTED_CLASS = "PipelineConfig"
#: Directories under the analysis root, besides the source tree, whose
#: calls count as setting a knob (C304); their ``tests`` directories do not.
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


def _names_set(tree: ast.Module) -> Set[str]:
    """Keyword-argument names passed, and string keys of dict literals
    written, anywhere in a module."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            names.update(k.arg for k in node.keywords if k.arg is not None)
        elif isinstance(node, ast.Dict):
            names.update(
                key.value
                for key in node.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
    return names


def _caller_trees(root: Path) -> List[ast.Module]:
    """Parsed modules of the non-source caller directories, tests left out."""
    return [
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for directory in CALLER_DIRS
        for path in sorted((root / directory).rglob("*.py"))
        if "tests" not in path.relative_to(root).parts
    ]


def check_contracts(context: AnalysisContext) -> List[Finding]:
    findings: List[Finding] = []
    findings.extend(_check_config_knobs(context))
    findings.extend(_check_middleware_forwarding(context))
    return findings


def _check_config_knobs(context: AnalysisContext) -> List[Finding]:
    candidates: List[Optional[Finding]] = []
    reads = {s.relative: _attribute_reads(s.tree, None) for s in context.files}
    sets = {s.relative: _names_set(s.tree) for s in context.files}
    set_outside_src: Set[str] = set()
    for tree in _caller_trees(context.root):
        set_outside_src |= _names_set(tree)

    for source in context.files:
        class_name = CONFIG_CLASSES.get(source.relative)
        config_class = _find_class(source, class_name) if class_name else None
        if config_class is None:
            continue
        consumed = _attribute_reads(source.tree, config_class)
        passed = set(set_outside_src)
        for relative in reads:
            if relative != source.relative:
                consumed |= reads[relative]
                passed |= sets[relative]
        for name, line in sorted(_dataclass_fields(config_class).items()):
            marker = ast.copy_location(ast.Pass(), config_class)
            marker.lineno = line
            knob = f"{class_name}.{name}"
            if name not in consumed:
                candidates.append(
                    context.finding(
                        source,
                        marker,
                        "C301",
                        f"{knob} is consumed by nothing",
                        hint=(
                            "wire the knob into the component it configures, "
                            "or delete it — dead config is a silent no-op ablation"
                        ),
                    )
                )
            elif name not in passed:
                candidates.append(
                    context.finding(
                        source,
                        marker,
                        "C304",
                        f"{knob} is consumed but never set — make it a constant",
                        hint=(
                            "nothing outside tests/ and its defining module "
                            "passes it by keyword or dict key; move the value "
                            "to the consuming component and delete the field"
                        ),
                    )
                )
            if (
                class_name == DOCUMENTED_CLASS
                and context.architecture_doc
                and f"`{name}`" not in context.architecture_doc
            ):
                candidates.append(
                    context.finding(
                        source,
                        marker,
                        "C302",
                        f"{knob} is missing from the config table in "
                        "docs/architecture.md",
                        hint="add a row describing the knob and which middleware reads it",
                    )
                )
    return [finding for finding in candidates if finding is not None]


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
