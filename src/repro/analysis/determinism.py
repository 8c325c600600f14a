"""Determinism lint: rules D101–D104.

The reproduction's headline guarantees — byte-identical virtual-time
anchors across sequential/parallel runs, indexes-on/off query
equivalence, double-pass chaos determinism — all assume simulation code
never consults the host.  These rules flag the four leak classes:

* **D101** wall-clock reads (``time.time``, ``datetime.now``, …)
* **D102** unseeded / process-global randomness (``random.random``,
  ``os.urandom``, ``uuid.uuid4``, ``secrets``)
* **D103** nondeterministic ordering (iterating a ``set`` into an
  order-sensitive sink, ``sorted(..., key=id)``, builtin ``hash()``)
* **D104** environment/platform reads (``os.environ``, ``platform.*``)

``repro/bench/`` is exempt from D101/D104 — the bench harness *measures*
wall-clock and may read the host — but D102/D103 hold everywhere:
benchmarks must still be seeded and ordered or the committed anchors in
``ANCHORS.json`` stop reproducing.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.analysis.core import (
    AnalysisContext,
    Finding,
    SourceFile,
    dotted_name,
    import_table,
    resolve_call_target,
)

#: Path prefixes (repo-relative) where D101/D104 do not apply: the bench
#: harness exists to measure wall-clock, and the analysis CLI may read
#: the host.  D102/D103 still apply there.
WALLCLOCK_EXEMPT_PREFIXES = (
    "src/repro/bench/",
    "src/repro/analysis/",
)

#: D101 — calls that read the host clock.
WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.strftime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: D102 — process-global / OS-entropy randomness.  ``random.Random`` is
#: handled separately: only the zero-argument form is flagged, a seeded
#: ``random.Random(seed)`` is exactly the sanctioned construction.
UNSEEDED_CALLS = frozenset(
    {
        "random.random",
        "random.randint",
        "random.randrange",
        "random.uniform",
        "random.choice",
        "random.choices",
        "random.shuffle",
        "random.sample",
        "random.gauss",
        "random.expovariate",
        "random.normalvariate",
        "random.betavariate",
        "random.getrandbits",
        "random.seed",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbelow",
        "secrets.choice",
        "secrets.randbits",
    }
)

#: D104 — reads of ambient host state.
ENV_CALLS = frozenset(
    {
        "os.getenv",
        "os.uname",
        "os.getpid",
        "os.getppid",
        "os.cpu_count",
        "os.getlogin",
        "platform.system",
        "platform.node",
        "platform.machine",
        "platform.platform",
        "platform.processor",
        "platform.python_version",
        "platform.release",
        "platform.uname",
        "socket.gethostname",
        "socket.getfqdn",
        "multiprocessing.cpu_count",
        "getpass.getuser",
    }
)

#: D103 — order-sensitive sinks: iterating an unordered container into
#: any of these call targets makes output depend on hash order.
_ORDER_SENSITIVE_SINKS = frozenset({"list", "tuple", "enumerate"})

_HINTS = {
    "D101": (
        "use the simulation clock (engine.now / ctx virtual time); if this "
        "is genuine host measurement, annotate `# repro: allow-wallclock`"
    ),
    "D102": (
        "derive a stream from the plan-seeded DeterministicRandom "
        "(fork it by label) instead of process-global randomness"
    ),
    "D103": (
        "sort before iterating (sorted(...) with a content key) so output "
        "does not depend on hash order"
    ),
    "D104": (
        "thread host facts in through configuration; if this is genuine "
        "host introspection, annotate `# repro: allow-env`"
    ),
}


def _is_exempt(source: SourceFile, rules: Set[str]) -> Set[str]:
    """Subset of ``rules`` that apply to this file (path allowlist)."""
    if any(source.relative.startswith(p) for p in WALLCLOCK_EXEMPT_PREFIXES):
        return rules - {"D101", "D104"}
    return rules


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(
        self, context: AnalysisContext, source: SourceFile, active: Set[str]
    ) -> None:
        self.context = context
        self.source = source
        self.active = active
        self.imports = import_table(source.tree)
        self.findings: List[Finding] = []
        #: Local names bound to provably-unordered values (``s = set(...)``).
        self._set_vars: Set[str] = set()
        self._hash_depth = 0  # inside a __hash__ method

    # ------------------------------------------------------------ helpers
    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        if rule not in self.active:
            return
        finding = self.context.finding(
            self.source, node, rule, message, hint=_HINTS[rule]
        )
        if finding is not None:
            self.findings.append(finding)

    def _is_unordered(self, node: ast.expr) -> bool:
        """Whether ``node`` provably evaluates to an unordered container."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name in {"set", "frozenset"}:
                return True
            # d.keys() etc. are insertion-ordered in dicts — fine.  But
            # set ops produce sets: s.union(...), s.intersection(...).
            if isinstance(node.func, ast.Attribute) and node.func.attr in {
                "union",
                "intersection",
                "difference",
                "symmetric_difference",
            }:
                return self._is_unordered(node.func.value) or isinstance(
                    node.func.value, ast.Name
                ) and node.func.value.id in self._set_vars
        if isinstance(node, ast.Name) and node.id in self._set_vars:
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_unordered(node.left) or self._is_unordered(node.right)
        return False

    # ------------------------------------------------------------- visits
    def visit_Assign(self, node: ast.Assign) -> None:
        # One-level flow tracking: remember local names bound to sets so
        # `for x in s:` two lines later still flags.
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            if self._is_unordered(node.value):
                self._set_vars.add(node.targets[0].id)
            else:
                self._set_vars.discard(node.targets[0].id)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        is_hash = node.name == "__hash__"
        if is_hash:
            self._hash_depth += 1
        self.generic_visit(node)
        if is_hash:
            self._hash_depth -= 1

    def visit_For(self, node: ast.For) -> None:
        if self._is_unordered(node.iter):
            self._emit(
                node.iter,
                "D103",
                "iteration over an unordered set — loop order follows hash order",
            )
        self.generic_visit(node)

    def _check_comprehension(self, node: ast.AST) -> None:
        for gen in getattr(node, "generators", []):
            if self._is_unordered(gen.iter):
                self._emit(
                    gen.iter,
                    "D103",
                    "comprehension over an unordered set — element order "
                    "follows hash order",
                )
        self.generic_visit(node)

    visit_ListComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension

    def visit_Call(self, node: ast.Call) -> None:
        target = resolve_call_target(node, self.imports)
        name = dotted_name(node.func)

        if target in WALLCLOCK_CALLS:
            self._emit(node, "D101", f"wall-clock call `{target}()`")
        elif target in UNSEEDED_CALLS:
            self._emit(node, "D102", f"process-global randomness `{target}()`")
        elif target == "random.Random" and not node.args and not node.keywords:
            self._emit(
                node,
                "D102",
                "`random.Random()` without a seed draws from OS entropy",
            )
        elif target in ENV_CALLS:
            self._emit(node, "D104", f"host environment read `{target}()`")

        # list(a_set) / tuple(a_set) / "".join over a set — ordered sink
        # fed from an unordered source.
        if (
            name in _ORDER_SENSITIVE_SINKS
            and node.args
            and self._is_unordered(node.args[0])
        ):
            self._emit(
                node,
                "D103",
                f"`{name}()` materialises a set in hash order",
            )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and node.args
            and self._is_unordered(node.args[0])
        ):
            self._emit(node, "D103", "`str.join` over a set joins in hash order")

        # sorted(..., key=id) / min/max(..., key=id): id() is an address.
        if name in {"sorted", "min", "max"}:
            for keyword in node.keywords:
                if (
                    keyword.arg == "key"
                    and isinstance(keyword.value, ast.Name)
                    and keyword.value.id == "id"
                ):
                    self._emit(
                        node,
                        "D103",
                        f"`{name}(..., key=id)` orders by memory address",
                    )

        # Builtin hash() outside __hash__: value varies per process under
        # PYTHONHASHSEED for str/bytes.  Inside __hash__ it is the normal
        # delegation idiom and never serialized.
        if (
            name == "hash"
            and isinstance(node.func, ast.Name)
            and self._hash_depth == 0
        ):
            self._emit(
                node,
                "D103",
                "builtin `hash()` is salted per-process for str/bytes "
                "(PYTHONHASHSEED)",
            )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # os.environ access (subscript, .get, membership) — attribute read
        # is the common root of all of them.
        if dotted_name(node) == "os.environ" and "os" in self.imports:
            self._emit(node, "D104", "read of `os.environ`")
        self.generic_visit(node)


def check_determinism(context: AnalysisContext) -> List[Finding]:
    all_rules = {"D101", "D102", "D103", "D104"}
    findings: List[Finding] = []
    for source in context.files:
        active = _is_exempt(source, all_rules)
        visitor = _DeterminismVisitor(context, source, active)
        visitor.visit(source.tree)
        findings.extend(visitor.findings)
    return findings
