"""`repro` is single-threaded by construction, so it takes no lock.

The discrete-event engine owns all state and the fleet executor forks
processes that share nothing.  This test holds the premise: no module
under ``src/repro`` imports a threading API.  A module that needs one
brings shared state back and has to argue for its locks.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
THREADING_MODULES = ("threading", "_thread", "concurrent.futures")


def imported_names(tree):
    """Every dotted name a module imports (``from a import b`` gives ``a``
    and ``a.b``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def is_threading(name):
    return any(name == module or name.startswith(module + ".") for module in THREADING_MODULES)


def test_no_module_imports_a_threading_api():
    offenders = sorted(
        f"{path.relative_to(SRC)}: {name}"
        for path in SRC.rglob("*.py")
        for name in imported_names(ast.parse(path.read_text(encoding="utf-8")))
        if is_threading(name)
    )
    assert offenders == []


def test_the_check_sees_every_import_form():
    tree = ast.parse(
        "import os, threading\nfrom _thread import allocate_lock\n"
        "from concurrent import futures\nimport concurrent.futures as cf\n"
        "from threadingx import y\n"
    )
    assert sorted(name for name in imported_names(tree) if is_threading(name)) == [
        "_thread", "_thread.allocate_lock", "concurrent.futures",
        "concurrent.futures", "threading",
    ]
