"""Every function and class under ``src/repro`` is named outside its own definition.

A callable that only tests name is surface the product does not use:
delete it together with the tests that test only it.  The search covers
the ``.py`` files of ``src/``, ``examples/`` and ``benchmarks/`` (test
directories excluded) and ``docs/*.md``; a name counts wherever it appears
as a whole word outside the definition's own lines.  Dunders and
``ast.NodeVisitor`` ``visit_*`` methods are called by the interpreter and
the visitor, never by name.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import pytest

REPO = Path(__file__).resolve().parents[1]
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Callables kept for a planned ROADMAP item that needs them, whether or
#: not anything names them yet: ``(module, qualified name) -> item``.
PLANNED: Dict[Tuple[str, str], str] = {
    ("repro/crypto/certificates.py", "CertificateAuthority.revoke"): "1",
    ("repro/chaincode/hyperprov.py", "HyperProvChaincode._delete"): "3",
    ("repro/chaincode/shim.py", "ChaincodeStub.del_state"): "3",
    ("repro/ledger/world_state.py", "WorldState.delete"): "3",
    ("repro/ledger/world_state.py", "_SortedKeyIndex.discard"): "3",
    ("repro/ledger/world_state.py", "_SortedKeyIndex.compact"): "3",
    ("repro/query/indexes.py", "FieldValueIndex.remove"): "3",
    ("repro/fabric/network.py", "FabricNetwork.crash_peer"): "5(b)",
    ("repro/fabric/network.py", "FabricNetwork.restart_peer"): "5(b)",
    ("repro/faults/injector.py", "FaultInjector._crash"): "5(b)",
    ("repro/faults/injector.py", "FaultInjector._restart"): "5(b)",
    ("repro/faults/plan.py", "PeerCrashFault.validate"): "5(b)",
    ("repro/chaincode/shim.py", "ChaincodeStub.get_state_by_prefix"): "6",
    ("repro/chaincode/shim.py", "ChaincodeStub.iter_state_by_range"): "6",
}

Def = Tuple[str, str, ast.AST]


def _defs(tree: ast.AST, module: str, prefix: str = "",
          owner: Optional[ast.ClassDef] = None) -> Iterator[Def]:
    """``(module, qualified name, node)`` of every def and class, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualified = prefix + node.name
            yield module, qualified, node
            inner_owner = node if isinstance(node, ast.ClassDef) else owner
            yield from _defs(node, module, qualified + ".", inner_owner)
        else:
            yield from _defs(node, module, prefix, owner)


def _exempt(name: str, owner: Optional[ast.ClassDef]) -> bool:
    if name.startswith("__") and name.endswith("__"):
        return True
    return (
        name.startswith("visit_")
        and owner is not None
        and any(ast.unparse(base).endswith("NodeVisitor") for base in owner.bases)
    )


def _corpus(root: Path) -> List[Path]:
    files = [
        path
        for top in ("src", "examples", "benchmarks")
        for path in (root / top).rglob("*.py")
        if "tests" not in path.relative_to(root).parts
    ]
    return files + sorted((root / "docs").glob("*.md"))


def _unnamed(root: Path) -> List[str]:
    """``module:line qualified-name`` of every def nothing else names."""
    src = root / "src"
    texts = {path: path.read_text(encoding="utf-8") for path in _corpus(root)}
    names = Counter(word for text in texts.values() for word in WORD.findall(text))
    found = []
    for path in sorted((src / "repro").rglob("*.py")):
        module = path.relative_to(src).as_posix()
        lines = texts[path].splitlines()
        tree = ast.parse(texts[path])
        owners = {
            id(child): node
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for child in node.body
        }
        for _, qualified, node in _defs(tree, module):
            name = node.name
            if _exempt(name, owners.get(id(node))) or (module, qualified) in PLANNED:
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = sum(WORD.findall(line).count(name) for line in lines[first - 1:node.end_lineno])
            if names[name] == own:
                found.append(f"{module}:{node.lineno} {qualified}")
    return found


def test_every_callable_in_src_is_named_outside_its_definition():
    assert _unnamed(REPO) == []


def test_every_planned_exemption_names_a_live_def():
    src = REPO / "src"
    live = {
        (module, qualified)
        for path in (src / "repro").rglob("*.py")
        for module, qualified, _ in _defs(
            ast.parse(path.read_text(encoding="utf-8")), path.relative_to(src).as_posix()
        )
    }
    assert sorted(set(PLANNED) - live) == []


_MODULE = """
import ast


def used():
    return helper()


def helper():
    return 1


def recursive(n):
    return recursive(n - 1) if n else 0


class Walker(ast.NodeVisitor):
    def visit_Name(self, node):
        return node

    def __repr__(self):
        return "Walker()"
"""


@pytest.mark.parametrize("elsewhere, flagged", [
    # ``used`` and ``recursive`` name themselves only; ``helper`` is called.
    ({}, ["used", "recursive", "Walker"]),
    ({"examples/run.py": "from repro.mod import used\nused()\n"}, ["recursive", "Walker"]),
    ({"docs/api.md": "`recursive(n)` and `Walker`"}, ["used"]),
    ({"tests/test_mod.py": "used(); recursive(3); Walker()\n"}, ["used", "recursive", "Walker"]),
])
def test_the_search_flags_exactly_the_unnamed_defs(tmp_path, elsewhere, flagged):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "mod.py").write_text(_MODULE, encoding="utf-8")
    for relative, text in elsewhere.items():
        (tmp_path / relative).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / relative).write_text(text, encoding="utf-8")
    assert [entry.split()[-1] for entry in _unnamed(tmp_path)] == flagged
