"""A client's pipeline is chosen once, when the client is built.

No def under ``src/repro`` assigns an object's ``.pipeline`` or
``.pipeline_config`` except an ``__init__``.  A method that swaps a live
client's chain changes the path of every session sharing that client: a
second session's retry chain replaces the first one's cache under it.  A
caller that wants another path builds another client
(``HyperProvService.session`` does, once per session).

An assignment counts against the innermost def it sits in, so a closure
defined in ``__init__`` that assigns later is flagged.  ``setattr`` with
either name as a literal counts too.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import pytest

from tests.source_tree import REPO, defs, parse, src_modules

#: The attributes only a constructor may assign.
FIXED_AT_CONSTRUCTION = frozenset({"pipeline", "pipeline_config"})

#: ``(module, qualified def) -> reason`` for a def that may assign one.
KEPT: Dict[Tuple[str, str], str] = {
    ("repro/fabric/network.py", "FabricNetwork.add_channel"):
        "builds a new shard's invoke pipeline once, as the shard is added",
}


def _own_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """Every node in ``node``'s body, nested defs and classes excluded.

    A lambda is not a def of its own, so what it assigns counts against
    the def it sits in.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield child
        yield from _own_nodes(child)


def _targets(node: ast.AST) -> Iterator[ast.AST]:
    """What an assignment statement binds, tuple and list targets unpacked."""
    if isinstance(node, ast.Assign):
        pending = list(node.targets)
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        pending = [node.target]
    else:
        return
    while pending:
        target = pending.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            pending.extend(target.elts)
        else:
            yield target


def _assigned(node: ast.AST) -> Iterator[Tuple[int, str]]:
    """``(line, attribute)`` of every fixed attribute ``node`` assigns."""
    for target in _targets(node):
        if isinstance(target, ast.Attribute) and target.attr in FIXED_AT_CONSTRUCTION:
            yield node.lineno, target.attr
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "setattr"
        and len(node.args) >= 2
        and isinstance(node.args[1], ast.Constant)
        and node.args[1].value in FIXED_AT_CONSTRUCTION
    ):
        yield node.lineno, str(node.args[1].value)


def _functions(root: Path) -> Iterator[Tuple[str, str, ast.AST]]:
    for module, path in src_modules(root):
        for _, qualified, node, _ in defs(parse(path), module):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield module, qualified, node


def _reassignments(root: Path, kept: Dict[Tuple[str, str], str]) -> List[str]:
    """``module:line def .attribute`` of every assignment outside an ``__init__``."""
    return [
        f"{module}:{line} {qualified} .{attribute}"
        for module, qualified, node in _functions(root)
        if node.name != "__init__" and (module, qualified) not in kept
        for inner in _own_nodes(node)
        for line, attribute in _assigned(inner)
    ]


def test_no_def_but_a_constructor_assigns_a_pipeline():
    assert _reassignments(REPO, KEPT) == []


def test_every_kept_row_names_a_live_def():
    live = {(module, qualified) for module, qualified, _ in _functions(REPO)}
    assert sorted(set(KEPT) - live) == []


_CLIENT = (
    "class HyperProvClient:\n"
    "    def __init__(self, network, pipeline_config):\n"
    "        self.pipeline_config = pipeline_config\n"
    "        self.pipeline: TransactionPipeline = build(pipeline_config)\n"
    "\n"
    "{body}"
)


@pytest.mark.parametrize("body, flagged", [
    # The deleted swap, re-added.
    ("    def configure_pipeline(self, config):\n"
     "        replacement = build(config)\n"
     "        self.pipeline.close()\n"
     "        self.pipeline = replacement\n"
     "        self.pipeline_config = config\n",
     ["repro/core/client.py:9 HyperProvClient.configure_pipeline .pipeline",
      "repro/core/client.py:10 HyperProvClient.configure_pipeline .pipeline_config"]),
    # Another object's pipeline, an annotated or unpacked target.
    ("    def adopt(self, client):\n        client.pipeline = self.pipeline\n",
     ["repro/core/client.py:7 HyperProvClient.adopt .pipeline"]),
    ("    def rebuild(self, config):\n"
     "        self.pipeline: TransactionPipeline = build(config)\n",
     ["repro/core/client.py:7 HyperProvClient.rebuild .pipeline"]),
    ("    def swap(self, a, b):\n        self.pipeline, self.other = a, b\n",
     ["repro/core/client.py:7 HyperProvClient.swap .pipeline"]),
    ("    def swap(self, config):\n        setattr(self, 'pipeline_config', config)\n",
     ["repro/core/client.py:7 HyperProvClient.swap .pipeline_config"]),
    ("    def on_commit(self, bus, config):\n"
     "        bus.subscribe('t', lambda *_: setattr(self, 'pipeline', build(config)))\n",
     ["repro/core/client.py:7 HyperProvClient.on_commit .pipeline"]),
    # A closure built in ``__init__`` runs after construction.
    ("class Watcher:\n    def __init__(self, client):\n"
     "        def swap(config):\n            client.pipeline = build(config)\n"
     "        self.swap = swap\n",
     ["repro/core/client.py:9 Watcher.__init__.swap .pipeline"]),
    # Reading, closing or naming another attribute is fine.
    ("    def close(self):\n        self.pipeline.close()\n"
     "        self.pipelines = []\n        config = self.pipeline_config\n",
     []),
])
def test_the_walk_flags_exactly_the_reassignment(tmp_path, body, flagged):
    path = tmp_path / "src" / "repro" / "core" / "client.py"
    path.parent.mkdir(parents=True)
    path.write_text(_CLIENT.format(body=body), encoding="utf-8")
    assert _reassignments(tmp_path, {}) == flagged


def test_a_kept_row_exempts_its_def_only(tmp_path):
    path = tmp_path / "src" / "repro" / "fabric" / "network.py"
    path.parent.mkdir(parents=True)
    path.write_text(
        "class FabricNetwork:\n"
        "    def add_channel(self, shard):\n        shard.pipeline = build(shard)\n"
        "    def reset_channel(self, shard):\n        shard.pipeline = build(shard)\n",
        encoding="utf-8",
    )
    assert _reassignments(tmp_path, KEPT) == [
        "repro/fabric/network.py:5 FabricNetwork.reset_channel .pipeline"
    ]
