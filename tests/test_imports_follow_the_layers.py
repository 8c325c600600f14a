"""Packages under ``src/repro`` import each other along one declared DAG.

``common`` sits at the bottom and imports nothing of ``repro``; the
baselines sit on ``api`` with only ``bench`` above them; ``bench`` is the
wall-clock harness, so a simulation package importing it would smuggle
host time past the determinism guard.  Only module-scope imports count:
a function-level import is the sanctioned cycle-breaker
(``api/service.py`` -> ``core.client``) because it cannot deadlock module
initialisation, and an ``if TYPE_CHECKING:`` import carries no runtime
coupling.  An AST walk flags three faults:

* **A201** package ``X`` imports package ``Y`` and ``X -> Y`` is not in
  ``ALLOWED_EDGES``;
* **A202** a cycle among modules through module-scope imports (package
  back-edges are legal inside the ``middleware``/``fabric`` band; module
  cycles never are);
* **A203** a package in ``RESTRICTED_IMPORTERS`` imported from outside
  its seam (reported instead of A201).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

import pytest

from tests.source_tree import REPO, parse

#: Package -> the packages it may import at module scope.  ``<root>`` is
#: ``repro/__init__.py``.  ``middleware`` and ``fabric`` form one band (the
#: pipeline seam and its host); A202 keeps the band free of module cycles.
ALLOWED_EDGES: Dict[str, FrozenSet[str]] = {
    "<root>": frozenset({"api", "chaincode", "core"}),
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
    "middleware": frozenset({"common", "consensus", "fabric", "ledger", "query", "simulation"}),
    "fabric": frozenset({
        "chaincode", "common", "consensus", "crypto", "devices", "ledger", "membership",
        "middleware", "network", "simulation",
    }),
    "faults": frozenset({"common", "fabric", "simulation"}),
    "api": frozenset({"chaincode", "common", "middleware"}),
    "baselines": frozenset({"api", "chaincode", "common", "consensus", "devices", "simulation"}),
    "core": frozenset({
        "api", "chaincode", "common", "consensus", "devices", "energy", "fabric", "ledger",
        "membership", "middleware", "network", "provenance", "simulation", "storage",
    }),
    "workloads": frozenset({
        "api", "chaincode", "common", "consensus", "core", "devices", "fabric", "membership",
        "network", "simulation",
    }),
    "bench": frozenset({
        "api", "baselines", "chaincode", "common", "consensus", "core", "devices", "energy",
        "fabric", "faults", "ledger", "membership", "middleware", "query", "simulation",
        "storage", "workloads",
    }),
}

#: Package -> the only packages that may import it at module scope.
RESTRICTED_IMPORTERS: Dict[str, FrozenSet[str]] = {
    "bench": frozenset(),
    "baselines": frozenset({"bench"}),
}


def _module(relative: Path) -> str:
    """``repro.a.b`` for ``repro/a/b.py``; a package's ``__init__`` is the package."""
    parts = list(relative.with_suffix("").parts)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _package(module: str) -> str:
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else "<root>"


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _module_scope_imports(tree: ast.Module, module: str, is_package: bool) -> Iterator[Tuple[int, str]]:
    """``(line, repro.x...)`` of each module-scope import of ``repro``.

    Imports under a module-scope ``if``/``try`` still run at import time and
    count; an ``if TYPE_CHECKING:`` block does not.  Relative imports resolve
    against the module's own package.
    """
    parts = module.split(".")
    anchor_depth = len(parts) + is_package
    for statement in tree.body:
        if isinstance(statement, ast.If) and _is_type_checking(statement.test):
            continue
        if not isinstance(statement, (ast.Import, ast.ImportFrom, ast.If, ast.Try)):
            continue
        for node in ast.walk(statement):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = parts[: anchor_depth - node.level] if node.level else []
                targets = [".".join(base + [node.module] if node.module else base)]
            else:
                continue
            for target in targets:
                if target == "repro" or target.startswith("repro."):
                    yield node.lineno, target


def _cycles(edges: Dict[str, Set[str]]) -> List[List[str]]:
    """Each distinct module cycle once, found by depth-first search."""
    state: Dict[str, int] = {}  # 1 on the stack, 2 done
    stack: List[str] = []
    cycles: List[List[str]] = []
    seen: Set[FrozenSet[str]] = set()

    def visit(module: str) -> None:
        state[module] = 1
        stack.append(module)
        for target in sorted(edges.get(module, ())):
            if state.get(target) == 1:
                cycle = stack[stack.index(target):] + [target]
                if frozenset(cycle) not in seen:
                    seen.add(frozenset(cycle))
                    cycles.append(cycle)
            elif target not in state:
                visit(target)
        stack.pop()
        state[module] = 2

    for module in sorted(edges):
        if module not in state:
            visit(module)
    return cycles


def _faults(root: Path) -> List[str]:
    """``module:line rule what`` of every layering fault under ``src/repro``."""
    src = root / "src"
    trees = {path.relative_to(src): parse(path) for path in sorted((src / "repro").rglob("*.py"))}
    modules = {_module(relative): relative for relative in trees}
    edges: Dict[str, Set[str]] = {}
    found = []
    for relative, tree in trees.items():
        module = _module(relative)
        importer = _package(module)
        edges[module] = set()
        for line, target in _module_scope_imports(tree, module, relative.name == "__init__.py"):
            # ``from repro.x.y import name``: repro.x.y is a module, or a
            # package re-exporting ``name``.
            owner = target if target in modules else target.rpartition(".")[0]
            if owner in modules:
                edges[module].add(owner)
            imported = _package(target)
            if imported == importer:
                continue
            seam = RESTRICTED_IMPORTERS.get(imported)
            site = f"{relative.as_posix()}:{line}"
            if seam is not None and importer not in seam:
                found.append(f"{site} A203 {importer} -> {imported}")
            elif imported not in ALLOWED_EDGES.get(importer, ()):
                found.append(f"{site} A201 {importer} -> {imported}")
    for cycle in _cycles(edges):
        found.append(f"{modules[cycle[-2]].as_posix()}:1 A202 {' -> '.join(cycle)}")
    return found


def test_imports_follow_the_declared_layers():
    assert _faults(REPO) == []


def test_every_package_has_exactly_one_row():
    packages = {"<root>"} | {
        path.name for path in (REPO / "src" / "repro").iterdir() if (path / "__init__.py").exists()
    }
    assert sorted(ALLOWED_EDGES) == sorted(packages)


def test_the_declared_layers_are_acyclic_but_for_the_band():
    band = {"middleware", "fabric"}
    edges = {
        package: {target for target in targets if {package, target} != band}
        for package, targets in ALLOWED_EDGES.items()
    }
    assert _cycles(edges) == []


def test_every_restricted_importer_has_the_edge():
    assert [
        (importer, target)
        for target, importers in RESTRICTED_IMPORTERS.items()
        for importer in importers
        if target not in ALLOWED_EDGES[importer]
    ] == []


CASES = [
    # A201: ``common`` reaching up; ``simulation`` may import only ``common``,
    # so the fleet workload it runs is imported inside functions.
    ({"repro/common/reachup.py": "from repro.middleware.pipeline import Pipeline\n"}, ["A201"]),
    ({"repro/simulation/parallel.py": "import os\n\nfrom repro.workloads.fleet import FleetSpec\n"},
     ["A201"]),
    # A202: one module cycle, reported once.
    ({"repro/network/cyc_a.py": "from repro.network.cyc_b import beta\n",
      "repro/network/cyc_b.py": "import repro.network.cyc_a\n"}, ["A202"]),
    # A203: simulation code importing the wall-clock harness.
    ({"repro/ledger/benchhook.py": "import repro.bench.runner\n"}, ["A203"]),
    ({"repro/bench/hook.py": "from repro.baselines import central\n"}, []),
    # The sanctioned forms: a function-level import, a typing-only import,
    # a relative import inside the package.
    ({"repro/ledger/deferred.py":
      "def build():\n    from repro.middleware.pipeline import Pipeline\n    return Pipeline\n"}, []),
    ({"repro/common/typed.py":
      "from typing import TYPE_CHECKING\n\nif TYPE_CHECKING:\n"
      "    from repro.middleware.config import PipelineConfig\n"}, []),
    ({"repro/ledger/__init__.py": "from .block import Block\n",
      "repro/ledger/block.py": "from repro.common.errors import Error\n"}, []),
]


@pytest.mark.parametrize("modules, flagged", CASES)
def test_the_walk_flags_exactly_the_faults(tmp_path, modules, flagged):
    for relative, text in modules.items():
        path = tmp_path / "src" / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    assert [entry.split()[1] for entry in _faults(tmp_path)] == flagged
