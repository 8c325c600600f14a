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

The fields of a registered config class (``CONFIG_CLASSES``) are the
parameters of its ``__init__`` (a ``ClassVar`` or a ``field(init=False)`` is
not one), and for them a ``replace(cfg, field=...)`` keyword or a string key
of a dict literal (how ``SWEEPS`` rows pass fields) also counts as a setter.
A splat does not, nor does a setter in the class's own module: that is the
module forwarding its own value.  Each field must also be read: some code in
``src/repro`` outside its class reads an attribute of that name.  Every
``PipelineConfig`` field is in the config table of ``docs/architecture.md``,
and every ``@dataclass`` under ``src/repro`` named ``*Config``, ``*Spec`` or
``*Policy`` is registered.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

import pytest

from tests.source_tree import REPO, corpus, defaulted, defs, last_name, parse, src_modules

#: Defaults no caller outside ``tests/`` sets, kept on purpose:
#: ``(module, qualified def or config class, parameter) -> reason``.  A reason is a ROADMAP
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
    ("repro/core/topology.py", "DeploymentSpec", "indexes"):
        "ROADMAP 14: indexes move here from PipelineConfig, and the benchmark's"
        " tenant pipeline sets them on the deployment",
}

#: The config classes, whose fields are options too: ``module -> class``.
CONFIG_CLASSES: Dict[str, str] = {
    "repro/middleware/config.py": "PipelineConfig",
    "repro/core/topology.py": "DeploymentSpec",
    "repro/workloads/fleet.py": "FleetSpec",
    "repro/bench/runner.py": "RunConfig",
    "repro/consensus/batching.py": "BatchConfig",
}
#: The config class whose every field is in ``docs/architecture.md``'s table.
DOCUMENTED = "PipelineConfig"

#: ``(positional args passed, keywords passed, splats, calling file)`` of one call.
Call = Tuple[int, Set[str], bool, Path]


def _not_values(tree: ast.AST) -> Set[int]:
    """Ids of the name nodes that call, annotate, subclass or type-test a def."""
    skipped: Set[int] = set()

    def skip(node: Optional[ast.AST]) -> None:
        if node is not None:
            skipped.update(id(inner) for inner in ast.walk(node))

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            skipped.add(id(node.func))
            if last_name(node.func) in ("isinstance", "issubclass"):
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


def _calls(root: Path) -> Tuple[Dict[str, List[Call]], Set[str], Set[Tuple[str, Path]]]:
    """Every call by callee name, every name used as a value, and
    ``(string key, file)`` of every dict literal."""
    calls: Dict[str, List[Call]] = defaultdict(list)
    values: Set[str] = set()
    keys: Set[Tuple[str, Path]] = set()

    def visit(node: ast.AST, bases: List[str], skipped: Set[int], path: Path) -> None:
        """Record the calls and values under ``node``, inside a class of ``bases``."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, [name for name in map(last_name, child.bases) if name], skipped, path)
                continue
            if isinstance(child, ast.Call):
                name = last_name(child.func)
                positional = sum(not isinstance(arg, ast.Starred) for arg in child.args)
                keywords = {kw.arg for kw in child.keywords if kw.arg is not None}
                splat = len(keywords) < len(child.keywords) or positional < len(child.args)
                callees = [name] if name else []
                if (
                    name == "__init__"
                    and isinstance(child.func, ast.Attribute)
                    and isinstance(child.func.value, ast.Call)
                    and last_name(child.func.value.func) == "super"
                ):
                    callees = bases
                for callee in callees:
                    calls[callee].append((positional, keywords, splat, path))
            elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                if id(child) not in skipped:
                    values.add(child.id)
            elif isinstance(child, ast.Dict):
                keys.update(
                    (key.value, path) for key in child.keys
                    if isinstance(key, ast.Constant) and isinstance(key.value, str)
                )
            visit(child, bases, skipped, path)

    for path in corpus(root):
        tree = parse(path)
        visit(tree, [], _not_values(tree), path)
    return calls, values, keys


def _functions(tree: ast.AST, module: str) -> Iterator[Tuple[str, ast.AST, Optional[ast.ClassDef], bool]]:
    """``(qualified name, def, owning class, takes self or cls)`` of every function."""
    for _, qualified, node, owner in defs(tree, module):
        if not isinstance(node, ast.ClassDef):
            decorators = {last_name(d) for d in node.decorator_list}  # type: ignore[attr-defined]
            yield qualified, node, owner, owner is not None and "staticmethod" not in decorators


def _fields(tree: ast.Module, module: str) -> Iterator[Tuple[str, str, int, int]]:
    """``(class, field, line, position)`` of each ``__init__`` field of the config
    class ``module`` defines."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == CONFIG_CLASSES.get(module):
            fields = [
                item for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                and "ClassVar" not in ast.unparse(item.annotation)
                and not (isinstance(item.value, ast.Call)
                         and "init=False" in map(ast.unparse, item.value.keywords))
            ]
            for position, field in enumerate(fields):
                yield node.name, field.target.id, field.lineno, position  # type: ignore[union-attr]


def _is_set(calls: List[Call], parameter: str, position: Optional[int]) -> bool:
    return any(
        splat or parameter in keywords or (position is not None and positional > position)
        for positional, keywords, splat, _ in calls
    )


def _unset(root: Path) -> List[str]:
    """``module:line qualified-name(parameter)`` of every default nothing sets."""
    calls, values, keys = _calls(root)
    found = []
    for module, path in src_modules(root):
        tree = parse(path)
        for qualified, node, owner, bound in _functions(tree, module):
            name = node.name  # type: ignore[attr-defined]
            if name == "__init__" and owner is not None:
                name = owner.name
            elif name.startswith("__") and name.endswith("__") or name in values:
                continue
            for parameter, position in defaulted(node, bound):
                if (module, qualified, parameter) not in KEPT and not _is_set(
                    calls.get(name, []), parameter, position
                ):
                    found.append(f"{module}:{node.lineno} {qualified}({parameter})")
        # A field is set by name or position, not by a splat, and not by the
        # class's own module, which would be forwarding its own value.
        for config, parameter, line, position in _fields(tree, module):
            loose = {key for key, where in keys if where != path}.union(*(
                keywords for _, keywords, _, where in calls.get("replace", []) if where != path
            ))
            elsewhere = [
                (positional, keywords, False, where)
                for positional, keywords, _, where in calls.get(config, []) if where != path
            ]
            if (module, config, parameter) not in KEPT and parameter not in loose and not _is_set(
                elsewhere, parameter, position
            ):
                found.append(f"{module}:{line} {config}({parameter})")
    return found


def _unread_or_undocumented(root: Path) -> List[str]:
    """``module:line Class.field fault`` of each config field read by nothing in
    ``src/repro`` outside its class, or a ``PipelineConfig`` field missing from the docs."""
    table = (root / "docs" / "architecture.md").read_text(encoding="utf-8")
    trees = {module: parse(path) for module, path in src_modules(root)}
    reads = {
        node.attr
        for module, tree in trees.items()
        for statement in tree.body
        if not (isinstance(statement, ast.ClassDef) and statement.name == CONFIG_CLASSES.get(module))
        for node in ast.walk(statement) if isinstance(node, ast.Attribute)
    }
    found = []
    for module, tree in trees.items():
        for config, name, line, _ in _fields(tree, module):
            site = f"{module}:{line} {config}.{name}"
            if name not in reads:
                found.append(f"{site} is read by nothing")
            if config == DOCUMENTED and f"`{name}`" not in table:
                found.append(f"{site} is not in docs/architecture.md")
    return found


def _config_dataclasses(root: Path) -> Set[Tuple[str, str]]:
    """``(module, class)`` of every ``@dataclass`` named ``*Config``, ``*Spec`` or ``*Policy``."""
    return {
        (module, node.name)
        for module, path in src_modules(root)
        for node in parse(path).body
        if isinstance(node, ast.ClassDef)
        and node.name.endswith(("Config", "Spec", "Policy"))
        and any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list)
    }


def test_every_default_in_src_is_set_by_a_caller_outside_tests():
    assert _unset(REPO) == []


def test_every_config_field_is_read_and_every_pipeline_field_documented():
    assert _unread_or_undocumented(REPO) == []


def test_every_config_class_is_registered():
    """A config dataclass missing from ``CONFIG_CLASSES`` has its fields unchecked,
    and a row naming a moved or renamed class checks nothing."""
    assert _config_dataclasses(REPO) == set(CONFIG_CLASSES.items())


def test_every_kept_default_names_a_live_parameter():
    live = {
        (module, qualified, parameter)
        for module, path in src_modules(REPO)
        for qualified, node, _, bound in _functions(parse(path), module)
        for parameter, _ in defaulted(node, bound)
    } | {
        (module, config, parameter)
        for module, path in src_modules(REPO)
        for config, parameter, _, _ in _fields(parse(path), module)
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


_CONFIG_TREE = {
    "src/repro/middleware/config.py":
        "from dataclasses import dataclass\n\n\n@dataclass\nclass PipelineConfig:\n    knob: int = 3\n",
    "src/repro/middleware/stage.py": "def build(config):\n    return config.knob\n",
    "docs/architecture.md": "| `knob` | read by build() |\n",
    "examples/tune.py": "PipelineConfig(knob=4)\n",
}
_KNOB = "repro/middleware/config.py:6 PipelineConfig"
_BATCHING = '''"""A second registered config class."""

from dataclasses import dataclass


@dataclass(frozen=True)
class BatchConfig:
    max_message_count: int = 10
    batch_timeout_s: float = 2.0
    preferred_max_bytes: int = 512


def cut_when(config: BatchConfig, pending: int, waited_s: float) -> bool:
    return pending >= config.max_message_count or waited_s >= config.batch_timeout_s


def quick_batches() -> BatchConfig:
    return BatchConfig(batch_timeout_s=0.5)
'''


@pytest.mark.parametrize("changes, flagged", [
    ({}, []),
    ({"src/repro/middleware/stage.py": None}, [f"{_KNOB}.knob is read by nothing"]),
    ({"docs/architecture.md": ""}, [f"{_KNOB}.knob is not in docs/architecture.md"]),
    ({"examples/tune.py": None}, [f"{_KNOB}(knob)"]),
    ({"examples/tune.py": None, "tests/test_tune.py": "PipelineConfig(knob=4)\n"},
     [f"{_KNOB}(knob)"]),
    ({"examples/tune.py": "PipelineConfig(4)\n"}, []),
    ({"examples/tune.py": "PipelineConfig(**options)\n"}, [f"{_KNOB}(knob)"]),
    ({"examples/tune.py": "replace(config, knob=4)\n"}, []),
    ({"examples/tune.py": None, "benchmarks/sweep.py": 'ROWS = [{"knob": 4}]\n'}, []),
    # A builder that forwards its own default sets the field, and is itself unset.
    ({"examples/tune.py": "quick()\n",
      "src/repro/middleware/quick.py": "def quick(knob=4):\n    return PipelineConfig(knob=knob)\n"},
     ["repro/middleware/quick.py:1 quick(knob)"]),
    ({"src/repro/consensus/batching.py":
      "from dataclasses import dataclass\n\n\n@dataclass\nclass BatchConfig:\n    max_bytes: int = 512\n",
      "benchmarks/sweep.py": 'ROWS = [{"max_bytes": 64}]\n'},
     ["repro/consensus/batching.py:6 BatchConfig.max_bytes is read by nothing"]),
    # The defining module setting its own field is the module forwarding its
    # own value: ``batch_timeout_s`` is unset.
    ({"src/repro/consensus/batching.py": _BATCHING,
      "src/repro/bench/sweeps.py": 'SWEEPS = [{"max_message_count": 20}]\n'},
     ["repro/consensus/batching.py:9 BatchConfig(batch_timeout_s)",
      "repro/consensus/batching.py:10 BatchConfig(preferred_max_bytes)",
      "repro/consensus/batching.py:10 BatchConfig.preferred_max_bytes is read by nothing"]),
    ({"src/repro/middleware/config.py": _CONFIG_TREE["src/repro/middleware/config.py"]
      + 'QUICK = replace(PipelineConfig(knob=4), knob=5)\nROW = {"knob": 6}\n',
      "examples/tune.py": None},
     [f"{_KNOB}(knob)"]),
    # A ``ClassVar`` and an ``init=False`` field are not parameters, so one
    # positional argument still sets ``knob``.
    ({"src/repro/middleware/config.py":
      "from dataclasses import dataclass, field\nfrom typing import ClassVar\n\n\n@dataclass\n"
      "class PipelineConfig:\n    SCHEMA: ClassVar[int] = 1\n"
      "    seen: dict = field(init=False, default_factory=dict)\n    knob: int = 3\n",
      "examples/tune.py": "PipelineConfig(4)\n"}, []),
])
def test_the_guard_holds_every_config_field(tmp_path, changes, flagged):
    for relative, text in {**_CONFIG_TREE, **changes}.items():
        if text is not None:
            (tmp_path / relative).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / relative).write_text(text, encoding="utf-8")
    assert _unset(tmp_path) + _unread_or_undocumented(tmp_path) == flagged


def test_the_registry_sees_every_config_class_of_a_module(tmp_path):
    module = tmp_path / "src" / "repro" / "middleware" / "config.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "from dataclasses import dataclass\n\n\n@dataclass\nclass RetryPolicy:\n    tries: int = 3\n\n\n"
        "@dataclass(frozen=True)\nclass PipelineConfig:\n    knob: int = 3\n\n\n"
        "class LoosePolicy:\n    tries = 3\n",
        encoding="utf-8",
    )
    assert _config_dataclasses(tmp_path) - set(CONFIG_CLASSES.items()) == {
        ("repro/middleware/config.py", "RetryPolicy")
    }
