"""Shared infrastructure for the static-analysis framework.

The analyzers are pure-stdlib AST passes: a :class:`SourceFile` bundles a
parsed module with its pragma map, a :class:`Finding` is one rule
violation at one site, and :class:`AnalysisContext` holds the file set
one run covers.  Checkers are callables ``(context) -> List[Finding]``
listed in :data:`repro.analysis.cli.CHECKERS`.

Suppression is inline only: ``# repro: allow-<family>`` on the flagged
line or the line directly above silences that one site — the sanctioned
form for *intentional* violations (a wall-clock utilization counter).
One class-scoped pragma works the other way:
``# repro: terminal-middleware`` declares a deliberate sink.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

#: ``# repro: tag-one, tag-two`` — trailing or whole-line comment form.
_PRAGMA_RE = re.compile(r"#\s*repro:\s*([a-z][a-z0-9_,\s-]*)")

#: Rule id → (family tag, one-line description).  The family tag doubles
#: as the inline-pragma suffix: rule D101 is silenced by
#: ``# repro: allow-wallclock``.
RULES: Dict[str, Tuple[str, str]] = {
    "D101": ("wallclock", "wall-clock read in a simulation path"),
    "D102": ("unseeded", "unseeded / process-global randomness"),
    "D103": ("ordering", "nondeterministic ordering source"),
    "D104": ("env", "environment or platform read in a simulation path"),
    "A201": ("layering", "package import outside the declared layering DAG"),
    "A202": ("layering", "module-level import cycle"),
    "A203": ("layering", "restricted package imported outside its seam"),
    "C301": ("contract", "config field consumed by nothing"),
    "C302": ("contract", "PipelineConfig knob missing from the docs config table"),
    "C303": ("contract", "middleware neither forwards nor terminates the chain"),
    "C304": ("contract", "config field consumed but set by no caller"),
    "T402": ("threading", "EventBus handler list mutated outside the safe API"),
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one site."""

    rule: str
    path: str  # repo-relative, POSIX separators
    line: int
    message: str
    hint: str = ""
    #: Enclosing symbol (``Class.method`` / function / ``<module>``).
    symbol: str = "<module>"

    def render(self) -> str:
        text = f"{self.path}:{self.line}: {self.rule} [{self.symbol}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


def parse_pragmas(text: str) -> Dict[int, Set[str]]:
    """Line number → set of ``# repro:`` pragma tags on that line."""
    pragmas: Dict[int, Set[str]] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if "#" not in line:
            continue
        match = _PRAGMA_RE.search(line)
        if match is None:
            continue
        tags = {tag.strip() for tag in match.group(1).split(",")}
        tags.discard("")
        if tags:
            pragmas[number] = tags
    return pragmas


@dataclass
class SourceFile:
    """One parsed Python module plus its pragma and symbol maps."""

    path: Path  # absolute
    relative: str  # repo-relative POSIX path
    text: str
    tree: ast.Module
    pragmas: Dict[int, Set[str]] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path, root: Path) -> "SourceFile":
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        return cls(
            path=path,
            relative=path.relative_to(root).as_posix(),
            text=text,
            tree=tree,
            pragmas=parse_pragmas(text),
        )

    # ------------------------------------------------------------- pragmas
    def has_pragma(self, line: int, tag: str) -> bool:
        """Whether ``tag`` appears on ``line`` or the line directly above."""
        return tag in self.pragmas.get(line, ()) or tag in self.pragmas.get(line - 1, ())

    def allows(self, line: int, rule: str) -> bool:
        """Whether an ``allow-<family>`` pragma covers ``rule`` at ``line``."""
        family = RULES[rule][0]
        return self.has_pragma(line, f"allow-{family}")

    # -------------------------------------------------------------- naming
    @property
    def module(self) -> str:
        """Dotted module name relative to the source root (``repro.x.y``)."""
        parts = list(Path(self.relative).parts)
        if parts and parts[0] == "src":
            parts = parts[1:]
        if parts[-1] == "__init__.py":
            parts = parts[:-1]
        else:
            parts[-1] = parts[-1][: -len(".py")]
        return ".".join(parts)

    @property
    def package(self) -> str:
        """First package segment under ``repro`` (``repro/__init__.py`` →
        ``<root>``)."""
        segments = self.module.split(".")
        return segments[1] if len(segments) > 1 else "<root>"


def enclosing_symbols(tree: ast.Module) -> Dict[int, str]:
    """Line number → dotted enclosing symbol, for naming a finding's site."""
    symbols: Dict[int, str] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}" if prefix else child.name
                for line in range(child.lineno, (child.end_lineno or child.lineno) + 1):
                    symbols[line] = name
                visit(child, name)
            else:
                visit(child, prefix)

    visit(tree, "")
    return symbols


@dataclass
class AnalysisContext:
    """Everything one analysis run sees: the file set and repo layout."""

    root: Path  # repo root (holds src/, docs/, benchmarks/, examples/)
    files: List[SourceFile]
    #: docs/architecture.md text, empty when absent (contract checker).
    architecture_doc: str = ""
    _symbols: Dict[str, Dict[int, str]] = field(default_factory=dict)

    @classmethod
    def load(cls, root: Path) -> "AnalysisContext":
        files = [
            SourceFile.load(path, root)
            for path in sorted((root / "src" / "repro").rglob("*.py"))
            if "__pycache__" not in path.parts
        ]
        doc_path = root / "docs" / "architecture.md"
        doc = doc_path.read_text(encoding="utf-8") if doc_path.exists() else ""
        return cls(root=root, files=files, architecture_doc=doc)

    def symbol_at(self, source: SourceFile, line: int) -> str:
        table = self._symbols.get(source.relative)
        if table is None:
            table = enclosing_symbols(source.tree)
            self._symbols[source.relative] = table
        return table.get(line, "<module>")

    def finding(
        self,
        source: SourceFile,
        node: ast.AST,
        rule: str,
        message: str,
        hint: str = "",
    ) -> Optional[Finding]:
        """Build a :class:`Finding` unless an inline pragma allows it."""
        line = getattr(node, "lineno", 1)
        if source.allows(line, rule):
            return None
        return Finding(
            rule=rule,
            path=source.relative,
            line=line,
            message=message,
            hint=hint,
            symbol=self.symbol_at(source, line),
        )


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_table(tree: ast.Module) -> Dict[str, str]:
    """Local name → fully-qualified dotted path, from a module's imports.

    ``import time`` → ``{"time": "time"}``; ``from datetime import
    datetime as dt`` → ``{"dt": "datetime.datetime"}``.  Imports at any
    nesting depth are included — a wall-clock read is no less wall-clock
    for having imported ``time`` inside the function.
    """
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                table[local] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


def resolve_call_target(call: ast.Call, imports: Dict[str, str]) -> Optional[str]:
    """Fully-qualified name of a call target, via the import table.

    ``time.time()`` → ``time.time``; with ``from datetime import
    datetime``, ``datetime.now()`` → ``datetime.datetime.now``.  Returns
    ``None`` for calls on local objects (``self._rng.random()``).
    """
    name = dotted_name(call.func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    resolved_head = imports.get(head)
    if resolved_head is None:
        return None
    return f"{resolved_head}.{rest}" if rest else resolved_head
