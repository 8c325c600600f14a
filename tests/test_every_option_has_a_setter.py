"""Every defaulted parameter under ``src/repro`` is set by some caller outside ``tests/``.

A default that no caller overrides is a constant with a parameter's cost:
each one is a configuration only tests exercise.  Make it the constant it
always is, and delete the branches only another value reached.

A parameter counts as set when a call in the ``.py`` files of ``src/``,
``examples/`` or ``benchmarks/`` (test directories excluded) passes it by
keyword, passes enough positional arguments to reach it, or splats
``*args`` / ``**kwargs``.  A call is matched to a def by its callee's last
name: a class name stands for its ``__init__``, and ``super().__init__``
inside a class stands for its bases'.  A function whose bare name is used
other than by a call (a callback, a ``partial``, a dispatch table) is
exempt, and so are dunders other than ``__init__``, which the interpreter
calls.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

import pytest

REPO = Path(__file__).resolve().parents[1]

#: Defaults no caller outside ``tests/`` sets, kept on purpose:
#: ``(module, qualified def, parameter) -> reason``.  A reason is a ROADMAP
#: item, a deployment setting (path, address or credential), or the test
#: that must vary the value to check what no other test checks.
KEPT: Dict[Tuple[str, str, str], str] = {
    ("repro/bench/chaos.py", "run_chaos", "seed"):
        "tests/bench/test_chaos.py re-runs at seed + 1 to show the anchor depends"
        " on the seed; ANCHORS.json keys each chaos entry by seed",
    ("repro/storage/content.py", "ContentAddressedStore.__init__", "prefix"):
        "deployment setting: the store's path",
    ("repro/core/client.py", "HyperProvClient.get_data", "at_time"): "ROADMAP 6",
    ("repro/core/client.py", "HyperProvClient.get_dependencies", "at_time"): "ROADMAP 6",
    ("repro/core/client.py", "HyperProvClient.get_by_range", "at_time"): "ROADMAP 6",
    ("repro/core/client.py", "HyperProvClient.get_by_range", "limit"): "ROADMAP 6",
    ("repro/core/client.py", "HyperProvClient.get_by_range", "bookmark"): "ROADMAP 6",
}

#: ``(positional args passed, keywords passed, splats)`` of one call.
Call = Tuple[int, Set[str], bool]


def _corpus(root: Path) -> List[Path]:
    return [
        path
        for top in ("src", "examples", "benchmarks")
        for path in sorted((root / top).rglob("*.py"))
        if "tests" not in path.relative_to(root).parts
    ]


def _last_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _not_values(tree: ast.AST) -> Set[int]:
    """Ids of the name nodes that call, annotate, subclass or type-test a def."""
    skipped: Set[int] = set()

    def skip(node: Optional[ast.AST]) -> None:
        if node is not None:
            skipped.update(id(inner) for inner in ast.walk(node))

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            skipped.add(id(node.func))
            if _last_name(node.func) in ("isinstance", "issubclass"):
                for argument in node.args[1:]:
                    skip(argument)
        elif isinstance(node, ast.Attribute):
            skipped.add(id(node.value))
        elif isinstance(node, ast.arg):
            skip(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            skip(node.returns)
        elif isinstance(node, ast.AnnAssign):
            skip(node.annotation)
        elif isinstance(node, ast.ClassDef):
            for base in node.bases:
                skip(base)
        elif isinstance(node, ast.ExceptHandler):
            skip(node.type)
        elif isinstance(node, ast.Raise):
            skip(node.exc)
    return skipped


def _calls(root: Path) -> Tuple[Dict[str, List[Call]], Set[str]]:
    """Every call by callee name, and every name used as a value."""
    calls: Dict[str, List[Call]] = defaultdict(list)
    values: Set[str] = set()

    def visit(node: ast.AST, bases: List[str], skipped: Set[int]) -> None:
        """Record the calls and values under ``node``, inside a class of ``bases``."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, [name for name in map(_last_name, child.bases) if name], skipped)
                continue
            if isinstance(child, ast.Call):
                name = _last_name(child.func)
                positional = sum(not isinstance(arg, ast.Starred) for arg in child.args)
                keywords = {kw.arg for kw in child.keywords if kw.arg is not None}
                splat = len(keywords) < len(child.keywords) or positional < len(child.args)
                callees = [name] if name else []
                if (
                    name == "__init__"
                    and isinstance(child.func, ast.Attribute)
                    and isinstance(child.func.value, ast.Call)
                    and _last_name(child.func.value.func) == "super"
                ):
                    callees = bases
                for callee in callees:
                    calls[callee].append((positional, keywords, splat))
            elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                if id(child) not in skipped:
                    values.add(child.id)
            visit(child, bases, skipped)

    for path in _corpus(root):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visit(tree, [], _not_values(tree))
    return calls, values


Def = Tuple[str, str, ast.AST, Optional[ast.ClassDef]]


def _defs(tree: ast.AST, module: str, prefix: str = "",
          owner: Optional[ast.ClassDef] = None) -> Iterator[Def]:
    """``(module, qualified name, def, owning class)`` of every function, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _defs(node, module, prefix + node.name + ".", node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield module, prefix + node.name, node, owner
            yield from _defs(node, module, prefix + node.name + ".", None)
        else:
            yield from _defs(node, module, prefix, owner)


def _defaulted(node: ast.AST, bound: bool) -> Iterator[Tuple[str, Optional[int]]]:
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


def _is_bound(node: ast.AST, owner: Optional[ast.ClassDef]) -> bool:
    decorators = {_last_name(d) for d in node.decorator_list}  # type: ignore[attr-defined]
    return owner is not None and "staticmethod" not in decorators


def _unset(root: Path) -> List[str]:
    """``module:line qualified-name(parameter)`` of every default nothing sets."""
    calls, values = _calls(root)
    src = root / "src"
    found = []
    for path in sorted((src / "repro").rglob("*.py")):
        module = path.relative_to(src).as_posix()
        for _, qualified, node, owner in _defs(ast.parse(path.read_text(encoding="utf-8")), module):
            name = node.name  # type: ignore[attr-defined]
            if name == "__init__" and owner is not None:
                name = owner.name
            elif name.startswith("__") and name.endswith("__") or name in values:
                continue
            for parameter, position in _defaulted(node, _is_bound(node, owner)):
                if (module, qualified, parameter) in KEPT:
                    continue
                if not any(
                    splat or parameter in keywords
                    or (position is not None and positional > position)
                    for positional, keywords, splat in calls.get(name, [])
                ):
                    found.append(f"{module}:{node.lineno} {qualified}({parameter})")
    return found


def test_every_default_in_src_is_set_by_a_caller_outside_tests():
    assert _unset(REPO) == []


def test_every_kept_default_names_a_live_parameter():
    src = REPO / "src"
    live = {
        (module, qualified, parameter)
        for path in (src / "repro").rglob("*.py")
        for module, qualified, node, owner in _defs(
            ast.parse(path.read_text(encoding="utf-8")), path.relative_to(src).as_posix()
        )
        for parameter, _ in _defaulted(node, _is_bound(node, owner))
    }
    assert sorted(set(KEPT) - live) == []


_MODULE = """
class Base:
    def __init__(self, name, metrics=None):
        self.name = name


class Child(Base):
    def __init__(self, name, delay=0.0):
        super().__init__(name, metrics=None)


def build(size=1, *, seed=42, label=None):
    return size


def callback(event, strict=False):
    return event


def splatted(a=1, b=2):
    return a + b


HANDLERS = {"x": callback}
"""

_CALLS = 'build(3, label="x")\nsplatted(**options)\nChild("c", 1.0)\n'


@pytest.mark.parametrize("elsewhere, flagged", [
    # ``super().__init__`` sets ``metrics``; ``callback`` is a dispatch-table value.
    ({}, ["Child.__init__(delay)", "build(size)", "build(seed)", "build(label)",
          "splatted(a)", "splatted(b)"]),
    ({"examples/run.py": _CALLS}, ["build(seed)"]),
    ({"tests/test_mod.py": _CALLS}, ["Child.__init__(delay)", "build(size)", "build(seed)",
                                     "build(label)", "splatted(a)", "splatted(b)"]),
])
def test_the_guard_flags_exactly_the_unset_defaults(tmp_path, elsewhere, flagged):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "mod.py").write_text(_MODULE, encoding="utf-8")
    for relative, text in elsewhere.items():
        (tmp_path / relative).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / relative).write_text(text, encoding="utf-8")
    assert [entry.split()[-1] for entry in _unset(tmp_path)] == flagged
