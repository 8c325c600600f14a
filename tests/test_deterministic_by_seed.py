"""A run is a function of its seed: nothing reads the host clock, entropy,
hash order or environment on the way to a result.

The committed anchors (``ANCHORS.json``), the sequential/parallel fleet
match and the double-pass chaos runs are digests over virtual-time
observations, so they reproduce only if the code never consults the host.
An AST walk flags five leaks and one waste:

* **D101** a wall-clock read: any ``time.*`` call, ``datetime.now``,
  ``utcnow`` or ``today``;
* **D102** process-global or OS randomness: a module-level ``random.*`` or
  ``secrets.*`` call, ``random.Random()`` without a seed, ``os.urandom``,
  ``uuid.uuid1``/``uuid4`` (a seeded ``random.Random(seed)`` is the
  sanctioned generator);
* **D103** hash or address order: a provable set fed to ``for``, a
  comprehension, ``list``/``tuple``/``enumerate`` or ``str.join``;
  ``sorted``/``min``/``max(..., key=id)``; builtin ``hash()`` outside
  ``__hash__`` (salted per process for ``str``/``bytes``);
* **D104** a host-environment read: ``os.environ``, ``os.getenv``,
  ``os.cpu_count`` and friends, ``platform.*``, ``socket.gethostname``;
* **D105** a hidden seed or engine: ``<param> or DeterministicRandom(<literal>)``
  or ``<param> or SimulationEngine()``.  A caller that passes nothing gets
  a stream no run seed reaches, or an engine on its own clock;
* **D106** a generator made outside the stream class: ``random.Random(seed)``
  anywhere but ``repro/simulation/randomness.py``.  A Mersenne Twister is
  2.5 KB, and ``DeterministicRandom`` keeps one only for a stream that
  draws past its batch; a module holding one per device or link would
  bring the 2.5 KB back for each.

D101 and D104 cover ``src/repro`` except ``repro/bench/``, the harness
that measures wall-clock time, and the defs in ``WALL_CLOCK_KEPT``.  D102
and D103 hold everywhere: the ``.py`` files of ``src/``, ``benchmarks/``
and ``examples/`` (test directories excluded), because the benchmark's
seeded inputs must reproduce too.  D105 covers ``src/repro`` except the
defs in ``FALLBACK_KEPT``.  D106 covers ``src/`` and ``examples/`` except
``RANDOM_HOME``; the benchmark draws its inputs from generators of its
own.  A call is resolved through its
module's imports at any depth, so ``from datetime import datetime as dt``
then ``dt.now()`` is a D101.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import pytest

from tests.source_tree import REPO, corpus, defs, dotted, last_name, parse

#: Defs that may read the wall clock: ``(module, qualified def) -> reason``.
WALL_CLOCK_KEPT: Dict[Tuple[str, str], str] = {
    ("repro/simulation/parallel.py", "_wall_clock"):
        "worker utilization and barrier stalls are reported, never fed into"
        " virtual time or an anchor",
}
#: Defs that may fall back to their own seed: ``(module, qualified def) -> reason``.
FALLBACK_KEPT: Dict[Tuple[str, str], str] = {
    ("repro/devices/model.py", "DeviceModel.__init__"):
        "examples/tamper_detection.py builds its miner and server without an rng",
    ("repro/baselines/provchain.py", "PowProvenanceChain.__init__"):
        "examples/tamper_detection.py builds its chain without an rng",
}
#: The harness that measures wall-clock time: D101 and D104 do not apply.
HOST_MEASURING = "repro/bench/"
#: The one module that may construct a ``random.Random`` (D106).
RANDOM_HOME = "repro/simulation/randomness.py"

#: Resolved call targets per rule, besides every ``time.*`` (D101),
#: ``random.*``/``secrets.*`` (D102) and ``platform.*`` (D104) call.
WALL_CLOCK = frozenset({
    "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.datetime.today",
    "datetime.date.today",
})
ENTROPY = frozenset({"os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4"})
HOST_FACTS = frozenset({
    "os.getenv", "os.uname", "os.getpid", "os.getppid", "os.cpu_count", "os.getlogin",
    "socket.gethostname", "socket.getfqdn", "multiprocessing.cpu_count", "getpass.getuser",
})
ORDERED_SINKS = frozenset({"list", "tuple", "enumerate"})
SET_OPERATIONS = frozenset({"union", "intersection", "difference", "symmetric_difference"})


def _imports(tree: ast.AST) -> Dict[str, str]:
    """Local name -> the dotted name it was imported as, imports at any depth."""
    table = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.split(".")[0]
                table[alias.asname or head] = alias.name if alias.asname else head
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


def _rule(target: str, call: ast.Call) -> Optional[str]:
    """The rule a call to the resolved ``target`` breaks, if any."""
    head = target.split(".")[0]
    if head == "time" or target in WALL_CLOCK:
        return "D101"
    if target == "random.Random":
        return "D106" if call.args or call.keywords else "D102"
    if head in ("random", "secrets") or target in ENTROPY:
        return "D102"
    if head == "platform" or target in HOST_FACTS:
        return "D104"
    return None


class _Leaks(ast.NodeVisitor):
    """``(line, rule, qualified def, what)`` of every leak in one module."""

    def __init__(self, tree: ast.Module) -> None:
        self.imports = _imports(tree)
        self.found: List[Tuple[int, str, str, str]] = []
        self.scope: List[str] = []
        #: Names last bound to a provable set (``names = {...}``).
        self.sets: Set[str] = set()
        self.visit(tree)

    def _flag(self, node: ast.AST, rule: str, what: str) -> None:
        self.found.append((node.lineno, rule, ".".join(self.scope), what))

    def _is_set(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.sets
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set(node.left) or self._is_set(node.right)
        if isinstance(node, ast.Call):
            if dotted(node.func) in ("set", "frozenset"):
                return True
            return (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in SET_OPERATIONS
                and self._is_set(node.func.value)
            )
        return False

    def _scoped(self, node: ast.AST) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            if self._is_set(node.value):
                self.sets.add(node.targets[0].id)
            else:
                self.sets.discard(node.targets[0].id)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if self._is_set(node.iter):
            self._flag(node.iter, "D103", "loop over a set")
        self.generic_visit(node)

    def _comprehension(self, node: ast.AST) -> None:
        if any(self._is_set(generator.iter) for generator in node.generators):
            self._flag(node, "D103", "comprehension over a set")
        self.generic_visit(node)

    visit_ListComp = visit_GeneratorExp = _comprehension

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted(node.func)
        if name is not None:
            head, _, rest = name.partition(".")
            target = self.imports.get(head)
            if target is not None:
                target = f"{target}.{rest}" if rest else target
                rule = _rule(target, node)
                if rule is not None:
                    self._flag(node, rule, f"{target}()")
        first_is_set = bool(node.args) and self._is_set(node.args[0])
        if first_is_set and (
            name in ORDERED_SINKS
            or isinstance(node.func, ast.Attribute) and node.func.attr == "join"
        ):
            self._flag(node, "D103", f"{name or 'join'}() over a set")
        if name in ("sorted", "min", "max") and any(
            keyword.arg == "key" and dotted(keyword.value) == "id" for keyword in node.keywords
        ):
            self._flag(node, "D103", f"{name}(key=id)")
        if name == "hash" and "__hash__" not in self.scope:
            self._flag(node, "D103", "hash() outside __hash__")
        self.generic_visit(node)

    def visit_BoolOp(self, node: ast.BoolOp) -> None:
        fallback = node.values[-1]
        if (
            isinstance(node.op, ast.Or)
            and isinstance(node.values[0], ast.Name)
            and isinstance(fallback, ast.Call)
        ):
            name = last_name(fallback.func)
            args = fallback.args + [keyword.value for keyword in fallback.keywords]
            literal_seed = name == "DeterministicRandom" and all(
                isinstance(arg, ast.Constant) for arg in args
            )
            if literal_seed or (name == "SimulationEngine" and not args):
                self._flag(node, "D105", ast.unparse(node))
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if dotted(node) == "os.environ" and self.imports.get("os") == "os":
            self._flag(node, "D104", "os.environ")
        self.generic_visit(node)


def _leaks(root: Path) -> List[str]:
    """``module:line rule what`` of every leak the rules' scopes do not exempt."""
    src = root / "src"
    found = []
    for path in corpus(root):
        # ``repro/...`` under ``src/``, repo-relative elsewhere.
        module = path.relative_to(src if src in path.parents else root).as_posix()
        host_rules_apply = module.startswith("repro/") and not module.startswith(HOST_MEASURING)
        for line, rule, owner, what in _Leaks(parse(path)).found:
            if rule in ("D101", "D104") and not host_rules_apply:
                continue
            if rule == "D101" and (module, owner) in WALL_CLOCK_KEPT:
                continue
            if rule == "D105" and (
                not module.startswith("repro/") or (module, owner) in FALLBACK_KEPT
            ):
                continue
            if rule == "D106" and (module == RANDOM_HOME or module.startswith("benchmarks/")):
                continue
            found.append(f"{module}:{line} {rule} {what}")
    return found


def test_no_run_reads_the_host():
    assert _leaks(REPO) == []


def _dead(kept: Dict[Tuple[str, str], str]) -> List[Tuple[str, str]]:
    """The rows of a keep table that name no def under ``src/``."""
    live = {
        (module, qualified)
        for module, _ in kept
        for _, qualified, _, _ in defs(parse(REPO / "src" / module), module)
    }
    return sorted(set(kept) - live)


def test_every_kept_wall_clock_names_a_live_def():
    assert _dead(WALL_CLOCK_KEPT) == []


def test_every_kept_fallback_names_a_live_def():
    assert _dead(FALLBACK_KEPT) == []


_SIM = "repro/simulation/mod.py"
_PARALLEL = "repro/simulation/parallel.py"

CASES = [
    # D101: wall-clock reads, resolved through the module's imports.
    (_SIM, "import time\nSTART = time.time()\n", ["D101"]),
    (_SIM, "import time\n\ndef tick():\n    return time.monotonic()\n", ["D101"]),
    (_SIM, "from datetime import datetime\nNOW = datetime.now()\n", ["D101"]),
    # D102: process-global or OS randomness.
    (_SIM, "import random\nJITTER = random.random()\n", ["D102"]),
    (_SIM, "import random\nRNG = random.Random()\n", ["D102"]),
    (_SIM, "import uuid\nTOKEN = uuid.uuid4()\n", ["D102"]),
    (_SIM, "import os\nRAW = os.urandom(8)\n", ["D102"]),
    # D103: hash and address order.
    (_SIM, "names = {1, 2}\nfor name in names:\n    print(name)\n", ["D103"]),
    (_SIM, "names = set(range(3))\nordered = [n for n in names]\n", ["D103"]),
    (_SIM, "pending = set()\nordered = list(pending)\n", ["D103"]),
    (_SIM, "pending = set()\njoined = ','.join(pending)\n", ["D103"]),
    (_SIM, "def order(rows):\n    return sorted(rows, key=id)\n", ["D103"]),
    (_SIM, "def salted(value):\n    return hash(value)\n", ["D103"]),
    # D104: host-environment reads.
    (_SIM, "import os\nHOME = os.environ['HOME']\n", ["D104"]),
    (_SIM, "import platform\nSYSTEM = platform.system()\n", ["D104"]),
    (_SIM, "import os\nCORES = os.cpu_count()\n", ["D104"]),
    # D105: a fallback seed or engine the run's own never reaches.
    (_SIM, "def build(rng=None):\n    return rng or DeterministicRandom(7)\n", ["D105"]),
    (_SIM, "def build(rng=None):\n    return rng or DeterministicRandom(seed=7)\n", ["D105"]),
    (_SIM, "class Net:\n    def __init__(self, engine=None):\n"
     "        self.engine = engine or SimulationEngine()\n", ["D105"]),
    # D102/D103 hold in examples/ and benchmarks/; D101/D104 do not.
    ("examples/demo.py", "import random\nJITTER = random.random()\n", ["D102"]),
    ("benchmarks/perf/run.py", "import os, time\nT = time.perf_counter()\nN = os.cpu_count()\n",
     []),
    # The bench harness measures wall-clock time but is still seeded.
    ("repro/bench/timing.py",
     "import random, time\nSTART = time.perf_counter()\nJITTER = random.random()\n", ["D102"]),
    # The kept def reads the clock; any other def in its module is flagged.
    (_PARALLEL, "import time\n\ndef _wall_clock():\n    return time.perf_counter()\n", []),
    (_PARALLEL, "import time\n\ndef _wall_clock():\n    return time.perf_counter()\n\n\n"
     "def _stall():\n    return time.perf_counter()\n", ["D101"]),
    # A kept def falls back to its own seed; any other def in its module is flagged.
    ("repro/devices/model.py", "class DeviceModel:\n    def __init__(self, rng=None):\n"
     "        self._rng = rng or DeterministicRandom(17)\n", []),
    ("repro/devices/model.py", "class DeviceModel:\n    def fork(self, rng=None):\n"
     "        return rng or DeterministicRandom(17)\n", ["D105"]),
    # D105 holds in src/repro only.
    ("examples/demo.py", "def build(rng=None):\n    return rng or DeterministicRandom(7)\n", []),
    # D106: a generator outside the stream class.
    (_SIM, "import random\n\ndef draw(seed):\n    return random.Random(seed).random()\n",
     ["D106"]),
    # The sanctioned forms.
    (_SIM, "names = {3, 1}\nordered = sorted(names)\n", []),
    (_SIM, "class Key:\n    def __hash__(self):\n        return hash(self.inner)\n", []),
    (_SIM, "def build(seed, rng=None):\n    return rng or DeterministicRandom(seed)\n", []),
    # D106 holds in src/ and examples/, not in the one module or benchmarks/.
    ("examples/demo.py", "from random import Random\nRNG = Random(seed=3)\n", ["D106"]),
    (RANDOM_HOME, "import random\n\ndef draw(seed):\n    return random.Random(seed).random()\n",
     []),
    (RANDOM_HOME, "import random\nRNG = random.Random()\n", ["D102"]),
    ("benchmarks/perf/workloads.py", "import random\nRNG = random.Random(3)\n", []),
    # A method called through the class is flagged too: ``seed`` with no
    # value re-seeds the instance it is given from the OS.
    (_SIM, "import random\n\ndef reseed(stream):\n    random.Random.seed(stream)\n", ["D102"]),
]


@pytest.mark.parametrize("module, text, flagged", CASES)
def test_the_walk_flags_exactly_the_leaks(tmp_path, module, text, flagged):
    path = tmp_path / ("src/" + module if module.startswith("repro/") else module)
    path.parent.mkdir(parents=True)
    path.write_text(text, encoding="utf-8")
    assert [entry.split()[1] for entry in _leaks(tmp_path)] == flagged
