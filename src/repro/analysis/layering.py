"""Layering / import-graph checker: rules A201–A203.

The repo's packages form a declared DAG (:data:`ALLOWED_EDGES`), mined
from the intended architecture rather than the incidental import graph:
``common`` sits at the bottom and imports nothing above it, the
``middleware``/``query``/``faults`` subsystems never reach into
``bench``, and the baselines sit on top of ``api`` (each implements the
store protocol itself) with only ``bench`` above them.  Only
**top-level** (module-scope, non-TYPE_CHECKING) imports count: a
function-level deferred import is the sanctioned cycle-breaker
(``api/service.py`` → ``core.client`` is the canonical example)
precisely because it cannot deadlock module initialisation.

* **A201** — package ``X`` imports package ``Y`` but ``X → Y`` is not a
  declared edge.
* **A202** — a cycle exists among *modules* via top-level imports
  (package-level back-edges are legal inside a merged band such as
  ``middleware``/``fabric``, but module-level cycles are always a bug
  waiting for an import-order change).
* **A203** — a restricted package is imported from outside its seam:
  ``bench`` is a leaf (nobody imports it), ``baselines`` is imported
  only by ``bench``.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.analysis.core import AnalysisContext, Finding, SourceFile

#: Declared package DAG: package → packages it may import at top level.
#: ``<root>`` is ``repro/__init__.py``.  ``middleware`` and ``fabric``
#: form one band (they co-evolved as the pipeline seam and its host);
#: module-level cycle detection (A202) keeps the band honest.
ALLOWED_EDGES: Dict[str, FrozenSet[str]] = {
    "<root>": frozenset({"api", "chaincode", "core"}),
    "analysis": frozenset(),  # pure stdlib: imports nothing from repro
    "common": frozenset(),
    "crypto": frozenset({"common"}),
    "ledger": frozenset({"common", "crypto"}),
    "membership": frozenset({"common", "crypto"}),
    "query": frozenset({"common", "ledger"}),
    "simulation": frozenset({"common"}),
    "network": frozenset({"common", "simulation"}),
    "devices": frozenset({"common", "network", "simulation"}),
    "energy": frozenset({"common", "devices"}),
    "storage": frozenset({"common", "devices", "network"}),
    "consensus": frozenset({"common", "ledger", "network", "simulation"}),
    "provenance": frozenset({"chaincode", "common"}),
    "chaincode": frozenset({"common", "crypto", "ledger", "membership", "query"}),
    "middleware": frozenset(
        {"common", "consensus", "fabric", "ledger", "query", "simulation"}
    ),
    "fabric": frozenset(
        {
            "chaincode",
            "common",
            "consensus",
            "crypto",
            "devices",
            "ledger",
            "membership",
            "middleware",
            "network",
            "simulation",
        }
    ),
    "faults": frozenset({"common", "fabric", "simulation"}),
    "api": frozenset({"chaincode", "common", "middleware"}),
    "baselines": frozenset(
        {
            "api",
            "chaincode",
            "common",
            "consensus",
            "devices",
            "simulation",
        }
    ),
    "core": frozenset(
        {
            "api",
            "chaincode",
            "common",
            "consensus",
            "devices",
            "energy",
            "fabric",
            "ledger",
            "membership",
            "middleware",
            "network",
            "provenance",
            "simulation",
            "storage",
        }
    ),
    "workloads": frozenset(
        {
            "api",
            "chaincode",
            "common",
            "consensus",
            "core",
            "devices",
            "fabric",
            "membership",
            "network",
            "simulation",
        }
    ),
    "bench": frozenset(
        {
            "api",
            "baselines",
            "chaincode",
            "common",
            "consensus",
            "core",
            "devices",
            "energy",
            "fabric",
            "faults",
            "ledger",
            "membership",
            "middleware",
            "query",
            "simulation",
            "storage",
            "workloads",
        }
    ),
}

#: Restricted packages: package → the only packages allowed to import it
#: at top level.  ``bench`` is the wall-clock harness — simulation code
#: importing it would smuggle host time behind the D101 allowlist.
RESTRICTED_IMPORTERS: Dict[str, FrozenSet[str]] = {
    "bench": frozenset(),
    "baselines": frozenset({"bench"}),
}


def _top_level_repro_imports(
    source: SourceFile,
) -> List[Tuple[ast.stmt, str]]:
    """(import node, dotted ``repro.x...`` target) for module-scope imports.

    ``if TYPE_CHECKING:`` blocks are skipped — typing-only imports carry
    no runtime coupling.  Relative imports are resolved against the
    module's own package.
    """
    out: List[Tuple[ast.stmt, str]] = []
    module_parts = source.module.split(".")

    def handle(node: ast.stmt) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    out.append((node, alias.name))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                # from .x import y / from ..pkg import z
                anchor = module_parts[: len(module_parts) - node.level]
                if source.relative.endswith("__init__.py"):
                    anchor = module_parts[: len(module_parts) - node.level + 1]
                base = ".".join(anchor + ([node.module] if node.module else []))
            if base == "repro" or base.startswith("repro."):
                out.append((node, base))

    for node in source.tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            handle(node)
        elif isinstance(node, ast.If) and _is_type_checking(node.test):
            continue  # typing-only: not a runtime edge
        elif isinstance(node, (ast.If, ast.Try)):
            # Guarded top-level imports (feature gates) still execute at
            # import time on some path — count them.
            for child in ast.walk(node):
                if isinstance(child, (ast.Import, ast.ImportFrom)):
                    handle(child)
    return out


def _is_type_checking(test: ast.expr) -> bool:
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return True
    if isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING":
        return True
    return False


def _package_of(dotted: str) -> str:
    parts = dotted.split(".")
    return parts[1] if len(parts) > 1 else "<root>"


def check_layering(context: AnalysisContext) -> List[Finding]:
    findings: List[Finding] = []
    #: module → set of repro modules it imports at top level (for A202).
    module_edges: Dict[str, Set[str]] = {}
    known_modules = {source.module for source in context.files}

    for source in context.files:
        importer_pkg = source.package
        allowed = ALLOWED_EDGES.get(importer_pkg)
        edges: Set[str] = set()
        for node, target in _top_level_repro_imports(source):
            target_pkg = _package_of(target)

            # A203 first: a restricted import is the sharper diagnosis.
            restricted = RESTRICTED_IMPORTERS.get(target_pkg)
            if (
                restricted is not None
                and importer_pkg != target_pkg
                and importer_pkg not in restricted
            ):
                finding = context.finding(
                    source,
                    node,
                    "A203",
                    f"`{target_pkg}` may only be imported from "
                    f"{sorted(restricted) or 'nowhere'}; "
                    f"`{importer_pkg}` is not on that list",
                    hint=(
                        "move the shared piece below the restricted package "
                        "or reach it through the api seam"
                    ),
                )
                if finding is not None:
                    findings.append(finding)
            elif (
                allowed is not None
                and target_pkg != importer_pkg
                and target_pkg not in allowed
            ):
                finding = context.finding(
                    source,
                    node,
                    "A201",
                    f"`{importer_pkg}` → `{target_pkg}` is not a declared "
                    "layering edge",
                    hint=(
                        "defer the import into the function that needs it, or "
                        "(for a real architectural edge) extend ALLOWED_EDGES "
                        "in repro/analysis/layering.py with a rationale"
                    ),
                )
                if finding is not None:
                    findings.append(finding)

            # Collect module edges for cycle detection.  An import of a
            # package resolves to its __init__ module.
            if target in known_modules:
                edges.add(target)
            else:
                # `from repro.x.y import name` — repro.x.y may be a module
                # or a package re-exporting `name`; try both.
                parent = target.rsplit(".", 1)[0]
                if parent in known_modules:
                    edges.add(parent)
        module_edges[source.module] = edges

    findings.extend(_find_cycles(context, module_edges))
    return findings


def _find_cycles(
    context: AnalysisContext, edges: Dict[str, Set[str]]
) -> List[Finding]:
    """A202 — report each distinct module-level import cycle once."""
    findings: List[Finding] = []
    color: Dict[str, int] = {}  # 0 unvisited / 1 in-stack / 2 done
    stack: List[str] = []
    seen_cycles: Set[FrozenSet[str]] = set()
    by_module = {source.module: source for source in context.files}

    def visit(module: str) -> None:
        color[module] = 1
        stack.append(module)
        for dep in sorted(edges.get(module, ())):
            state = color.get(dep, 0)
            if state == 0:
                visit(dep)
            elif state == 1:
                cycle = stack[stack.index(dep) :] + [dep]
                key = frozenset(cycle)
                if key in seen_cycles:
                    continue
                seen_cycles.add(key)
                source = by_module.get(module)
                if source is None:
                    continue
                finding = context.finding(
                    source,
                    source.tree,
                    "A202",
                    "top-level import cycle: " + " -> ".join(cycle),
                    hint=(
                        "break the cycle by deferring one import into the "
                        "function that uses it"
                    ),
                )
                if finding is not None:
                    findings.append(finding)
        stack.pop()
        color[module] = 2

    for module in sorted(edges):
        if color.get(module, 0) == 0:
            visit(module)
    return findings
