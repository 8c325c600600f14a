"""The source tree the static guards walk, each file parsed once per run.

The guards (``test_every_*``, ``test_deterministic_by_seed``,
``test_imports_follow_the_layers``, ``test_single_threaded``) read the same
files; sharing one parse and one definition of "the code outside tests"
keeps their scopes from drifting apart.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

REPO = Path(__file__).resolve().parents[1]

#: ``(module, qualified name, def or class, directly enclosing class)``.
Def = Tuple[str, str, ast.AST, Optional[ast.ClassDef]]


@lru_cache(maxsize=None)
def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def corpus(root: Path) -> List[Path]:
    """The ``.py`` files of ``src/``, ``examples/`` and ``benchmarks/``, test directories excluded."""
    return [
        path
        for top in ("src", "examples", "benchmarks")
        for path in sorted((root / top).rglob("*.py"))
        if "tests" not in path.relative_to(root).parts
    ]


def src_modules(root: Path) -> Iterator[Tuple[str, Path]]:
    """``(repro/..., path)`` of every module under ``src/repro``, sorted."""
    src = root / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        yield path.relative_to(src).as_posix(), path


def defaulted(node: ast.AST, bound: bool) -> Iterator[Tuple[str, Optional[int]]]:
    """``(name, position after the bound argument)`` of each defaulted parameter.

    Keyword-only parameters have no position.
    """
    args = node.args  # type: ignore[attr-defined]
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], start=first - bound):
        yield arg.arg, index
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def last_name(node: ast.AST) -> Optional[str]:
    """``c`` for ``c`` or ``a.b.c``, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a chain of names, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def defs(tree: ast.AST, module: str, prefix: str = "",
         owner: Optional[ast.ClassDef] = None) -> Iterator[Def]:
    """Every function and class under ``tree``, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield module, prefix + node.name, node, owner
            inner = node if isinstance(node, ast.ClassDef) else None
            yield from defs(node, module, prefix + node.name + ".", inner)
        else:
            yield from defs(node, module, prefix, owner)
