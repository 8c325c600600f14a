"""Every middleware under ``src/repro`` hands the request on down the chain.

A ``Middleware.handle(self, ctx, call_next)`` override that never names
``call_next`` silently swallows every request behind it.  Naming it
counts, not only calling it: a batching middleware stores ``call_next``
for a later flush.

And no middleware guesses at what the chain returned.  A read answers
``(response, latency)`` and a write a ``TransactionHandle``
(``repro.middleware.base.Result``), so a middleware reads a result by
``ctx.kind``.  A ``hasattr``, a ``getattr`` with a default or an
``isinstance`` against a result type inside a middleware class handles a
shape nothing returns, and lets a result it does not recognise skip what
the middleware enforces.

A class counts as a middleware when a base's last name is ``Middleware``
or the name of another middleware class (the Fabric stages derive from
``FabricStage``).

And no def under ``src/repro/middleware/`` has a default, unless it is
nested in another def (a closure binding loop values).
``build_client_pipeline`` hands every link its collaborators and its
settings, so a default is a mode only a test reaches: a link with
``metrics=None`` keeps an ``if self.metrics is not None`` that no client
runs.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

import pytest

from tests.source_tree import REPO, defaulted, last_name, parse, src_modules

#: The types a result is, by contract; an ``isinstance`` against one guesses.
RESULT_TYPES = frozenset({"tuple", "TransactionHandle", "ProposalResponse"})
#: The package whose defs take no defaults.
MIDDLEWARE_PACKAGE = "repro/middleware/"


def _middleware_classes(root: Path) -> List[Tuple[str, ast.ClassDef]]:
    """``(module, class)`` of every top-level class under ``src/repro`` deriving from ``Middleware``."""
    classes = [
        (module, node)
        for module, path in src_modules(root)
        for node in parse(path).body
        if isinstance(node, ast.ClassDef)
    ]
    names = {"Middleware"}
    while True:
        derived = [
            (module, node) for module, node in classes
            if names.intersection(map(last_name, node.bases))
        ]
        if names.issuperset(node.name for _, node in derived):
            return derived
        names.update(node.name for _, node in derived)


def _swallowing(root: Path) -> List[str]:
    """``module:line Class.handle`` of every override that never names its ``call_next``."""
    found = []
    for module, node in _middleware_classes(root):
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


def _guess(call: ast.Call) -> Optional[str]:
    """What a call guesses about a value's shape, or ``None``."""
    name = call.func.id if isinstance(call.func, ast.Name) else None
    if name == "hasattr":
        return "hasattr"
    if name == "getattr" and len(call.args) == 3:
        return "getattr with a default"
    if name == "isinstance" and len(call.args) == 2:
        types = call.args[1]
        named = types.elts if isinstance(types, ast.Tuple) else [types]
        if RESULT_TYPES.intersection(map(last_name, named)):
            return "isinstance against a result type"
    return None


def _shape_guesses(root: Path) -> List[str]:
    """``module:line Class guess`` of every shape guess inside a middleware class."""
    found = []
    for module, node in _middleware_classes(root):
        for call in ast.walk(node):
            guess = _guess(call) if isinstance(call, ast.Call) else None
            if guess:
                found.append(f"{module}:{call.lineno} {node.name} {guess}")
    return found


def _outer_defs(node: ast.AST) -> Iterator[Union[ast.FunctionDef, ast.AsyncFunctionDef]]:
    """Every def under ``node`` that is not nested in another def."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
        else:
            yield from _outer_defs(child)


def _defaults(root: Path) -> List[str]:
    """``module:line def parameter`` of every default of a def under ``repro/middleware/``."""
    return [
        f"{module}:{node.lineno} {node.name} {parameter}"
        for module, path in src_modules(root) if module.startswith(MIDDLEWARE_PACKAGE)
        for node in _outer_defs(parse(path))
        for parameter, _ in defaulted(node, False)
    ]


def test_every_middleware_names_its_call_next():
    assert _swallowing(REPO) == []


def test_no_middleware_guesses_at_a_result_shape():
    assert _shape_guesses(REPO) == []


def test_no_middleware_def_has_a_default():
    assert _defaults(REPO) == []


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


@pytest.mark.parametrize("base, body, guess", [
    ("Stage", "return result[0] if isinstance(result, tuple) else result",
     "isinstance against a result type"),
    ("Stage", "return result if isinstance(result, (list, tuple)) else None",
     "isinstance against a result type"),
    ("Stage", "return result if isinstance(result, proposal.TransactionHandle) else None",
     "isinstance against a result type"),
    ("Stage", "return result if hasattr(result, 'on_complete') else None", "hasattr"),
    ("Stage", "return getattr(result, 'scan', None)", "getattr with a default"),
    ("Stage", "return getattr(result, 'scan')", None),
    ("Stage", "return result if isinstance(result, dict) else None", None),
    # Not a middleware: nothing below ``Middleware`` is checked.
    ("object", "return result[0] if isinstance(result, tuple) else result", None),
])
def test_the_walk_flags_exactly_the_shape_guess(tmp_path, base, body, guess):
    module = tmp_path / "src" / "repro" / "middleware" / "cache.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "from repro.middleware.base import Middleware\n\n\n"
        "class Stage(Middleware):\n    pass\n\n\n"
        f"class Cache({base}):\n"
        "    def handle(self, ctx, call_next):\n"
        "        result = call_next(ctx)\n"
        f"        {body}\n",
        encoding="utf-8",
    )
    assert _shape_guesses(tmp_path) == (
        [f"repro/middleware/cache.py:11 Cache {guess}"] if guess else []
    )


@pytest.mark.parametrize("module, body, flagged", [
    # A link that may run without a registry.
    ("repro/middleware/retry.py",
     "class Retry(Middleware):\n"
     "    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:\n"
     "        self.metrics = metrics\n",
     ["repro/middleware/retry.py:2 __init__ metrics"]),
    ("repro/middleware/cache.py",
     "class Cache(Middleware):\n    def __init__(self, capacity, *, events=None):\n"
     "        self.capacity = capacity\n",
     ["repro/middleware/cache.py:2 __init__ events"]),
    ("repro/middleware/config.py",
     "def build(config, terminal, clock=None, *, engine):\n    return config\n",
     ["repro/middleware/config.py:1 build clock"]),
    ("repro/middleware/cache.py",
     "class Cache(Middleware):\n    def __init__(self, capacity, events, *, metrics):\n"
     "        self.capacity = capacity\n",
     []),
    # A closure binding loop values keeps its defaults.
    ("repro/middleware/resilience.py",
     "def bind(handles):\n    for handle in handles:\n"
     "        def mirror(done, handle=handle):\n            return handle\n",
     []),
    # Only the middleware package is held to it.
    ("repro/fabric/network.py", "def add(shard, batch_size=1):\n    return shard\n", []),
])
def test_the_walk_flags_exactly_the_defaults(tmp_path, module, body, flagged):
    path = tmp_path / "src" / module
    path.parent.mkdir(parents=True)
    path.write_text(body, encoding="utf-8")
    assert _defaults(tmp_path) == flagged
