"""Every middleware under ``src/repro`` hands the request on down the chain.

A ``Middleware.handle(self, ctx, call_next)`` override that never names
``call_next`` silently swallows every request behind it.  Naming it
counts, not only calling it: a batching middleware stores ``call_next``
for a later flush.  A class counts as a middleware when a base's last
name is ``Middleware``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

import pytest

from tests.source_tree import REPO, last_name, parse, src_modules


def _swallowing(root: Path) -> List[str]:
    """``module:line Class.handle`` of every override that never names its ``call_next``."""
    found = []
    for module, path in src_modules(root):
        for node in parse(path).body:
            if not isinstance(node, ast.ClassDef) or "Middleware" not in map(last_name, node.bases):
                continue
            for handle in node.body:
                if not isinstance(handle, ast.FunctionDef) or handle.name != "handle":
                    continue
                arguments = handle.args.posonlyargs + handle.args.args
                if len(arguments) < 3:
                    continue
                forward = arguments[2].arg
                if not any(
                    isinstance(inner, ast.Name) and inner.id == forward
                    for statement in handle.body for inner in ast.walk(statement)
                ):
                    found.append(f"{module}:{handle.lineno} {node.name}.handle")
    return found


def test_every_middleware_names_its_call_next():
    assert _swallowing(REPO) == []


@pytest.mark.parametrize("body, flagged", [
    ("return {'status': 'dropped'}", True),
    ("return call_next(ctx)", False),
    # A batcher keeps the rest of the chain for its flush.
    ("self.flush = call_next\n        return None", False),
])
def test_the_walk_flags_exactly_the_swallowing_handle(tmp_path, body, flagged):
    module = tmp_path / "src" / "repro" / "middleware" / "stages.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "from repro.middleware.base import Middleware\n\n\n"
        "class Stage(Middleware):\n"
        f"    def handle(self, ctx, call_next):\n        {body}\n",
        encoding="utf-8",
    )
    assert _swallowing(tmp_path) == (["repro/middleware/stages.py:5 Stage.handle"] if flagged else [])
