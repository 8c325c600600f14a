"""`repro` is single-threaded by construction, so it takes no lock.

The discrete-event engine owns all state and the fleet executor forks
processes that share nothing.  This test holds the premise: no module
under ``src/repro`` imports a threading API.  A module that needs one
brings shared state back and has to argue for its locks.

The hazard left is re-entrancy: a handler that cancels a subscription
while ``EventBus.publish`` walks the handler list.  So only the bus's
re-entrancy-safe methods (``EVENTBUS_SAFE_METHODS``: ``unsubscribe`` marks
the topic dirty, the compactor sweeps it after the outermost publish)
mutate ``EventBus._handlers``, and no module outside ``common/events.py``
mutates a bus's ``_handlers`` (a receiver named ``bus``, ``event`` or
``events``).
"""

import ast
import re

import pytest

from tests.source_tree import REPO, parse

SRC = REPO / "src" / "repro"
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
        for name in imported_names(parse(path))
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


MUTATORS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend", "insert", "move_to_end",
    "pop", "popitem", "popleft", "remove", "rotate", "setdefault", "sort", "update",
})
EVENTBUS_SAFE_METHODS = frozenset({"__init__", "subscribe", "_compact_topic"})
BUS_NAME = re.compile(r"(^|_)(bus|events?)($|_)")


def self_attribute(node):
    """The attribute of ``self`` that a ``self.a[...].b`` chain starts with."""
    attribute = None
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            attribute = node.attr
        node = node.value
    return attribute if isinstance(node, ast.Name) and node.id == "self" else None


def mutated_self_attributes(method):
    """``(node, attribute)`` of each assignment, deletion or mutator call on ``self`` state."""
    for node in ast.walk(method):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATORS:
                yield node, self_attribute(node.func.value)
            continue
        else:
            continue
        for target in targets:
            for element in target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]:
                yield node, self_attribute(element)


def handler_list_mutations(src):
    """``module:line what`` of each ``_handlers`` mutation outside the safe API."""
    found = []
    for path in sorted(src.rglob("*.py")):
        if "_handlers" not in path.read_text(encoding="utf-8"):
            continue
        module = path.relative_to(src.parent).as_posix()
        tree = parse(path)
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "EventBus":
                found += [
                    f"{module}:{mutation.lineno} EventBus.{method.name}"
                    for method in node.body
                    if isinstance(method, ast.FunctionDef)
                    and method.name not in EVENTBUS_SAFE_METHODS
                    for mutation, attribute in mutated_self_attributes(method)
                    if attribute == "_handlers"
                ]
        if module == "repro/common/events.py":
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "_handlers"
                and BUS_NAME.search(ast.unparse(node.func.value.value).split(".")[-1].lower())
            ):
                found.append(f"{module}:{node.lineno} {ast.unparse(node.func.value)}")
    return found


def test_only_the_safe_api_mutates_a_bus_handler_list():
    assert handler_list_mutations(SRC) == []


_BUS = """
class EventBus:
    def __init__(self):
        self._handlers = {}

    def subscribe(self, topic, fn):
        self._handlers.setdefault(topic, []).append(fn)

    def unsubscribe(self, topic, fn):
        UNSUBSCRIBE

    def publish(self, topic, payload):
        for fn in self._handlers.get(topic, []):
            fn(payload)

    def _compact_topic(self, topic):
        self._handlers[topic] = [f for f in self._handlers[topic] if f]
"""


@pytest.mark.parametrize("module, text, flagged", [
    ("common/events.py", _BUS.replace("UNSUBSCRIBE", "self._handlers[topic].remove(fn)"),
     ["repro/common/events.py:10 EventBus.unsubscribe"]),
    ("common/events.py", _BUS.replace("UNSUBSCRIBE", "self._dirty.add(topic)"), []),
    ("devices/reaches.py", "def detach_all(bus, topic):\n    bus._handlers.pop(topic)\n",
     ["repro/devices/reaches.py:2 bus._handlers"]),
    ("devices/reaches.py", "def detach(registry, topic):\n    registry._handlers.pop(topic)\n",
     []),
])
def test_the_walk_flags_exactly_the_unsafe_mutations(tmp_path, module, text, flagged):
    path = tmp_path / "repro" / module
    path.parent.mkdir(parents=True)
    path.write_text(text, encoding="utf-8")
    assert handler_list_mutations(tmp_path / "repro") == flagged
