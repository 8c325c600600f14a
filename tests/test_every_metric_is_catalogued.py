"""Every metric is one literal name, and the names are the catalogue.

A name built at run time (``f"ops.{op}"``, ``"router.shard_" + str(n)``)
bakes a label into the name: each value becomes a series of its own that
no table lists and no reader can find.  So a recording site — a
``.counter(...)`` or ``.histogram(...)`` call under ``src/`` — names its
series with a string literal and passes what varies as a keyword label
(M501), and so does a read (``.get_counter`` / ``.get_histogram`` under
``src/`` or ``examples/``).

The "Metrics" table of ``docs/api.md`` is the catalogue (M502): the names
recorded under ``src/`` are exactly its rows, each recorded or read as the
kind its row states and under labels its row lists, and a name read must
be a row.  A row nothing records describes a series no run can show.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

from tests.source_tree import REPO, parse

#: Call attribute → the kind of series it records or reads.
RECORDS = {"counter": "counter", "histogram": "histogram"}
READS = {"get_counter": "counter", "get_histogram": "histogram"}


def _calls(root: Path) -> Iterator[Tuple[str, ast.Call]]:
    """``(file, call)`` of every record under ``src/`` and read under ``src/`` or ``examples/``."""
    for top in ("src", "examples"):
        for path in sorted((root / top).rglob("*.py")):
            for node in ast.walk(parse(path)):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                    continue
                if node.func.attr in READS or (top == "src" and node.func.attr in RECORDS):
                    yield path.relative_to(root).as_posix(), node


def catalogue(root: Path) -> Dict[str, Tuple[str, Set[str]]]:
    """Name → (kind, labels) of each row of the ``docs/api.md`` Metrics table."""
    text = (root / "docs" / "api.md").read_text(encoding="utf-8")
    section = text.split("\n## Metrics\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            name, kind, _, labels = (cell.strip() for cell in line.strip("|").split("|")[:4])
            # A parenthesised list after a label name holds its values, not names.
            names = re.sub(r"\(.*?\)", "", labels)
            rows[name.strip("`")] = (kind, set(re.findall(r"`(\w+)`", names)))
    return rows


def _faults(root: Path) -> List[str]:
    """``file:line .call fault`` of each uncatalogued site, then each unrecorded row."""
    rows = catalogue(root)
    recorded: Set[str] = set()
    found = []
    for where, call in _calls(root):
        site = f"{where}:{call.lineno} .{call.func.attr}"  # type: ignore[attr-defined]
        first = call.args[0] if call.args else None
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            found.append(f"{site} names its series with no string literal")
            continue
        name, method = first.value, call.func.attr  # type: ignore[attr-defined]
        if name not in rows:
            found.append(f"{site} {name!r} is not in docs/api.md")
            continue
        kind, labels = rows[name]
        if (RECORDS.get(method) or READS[method]) != kind:
            found.append(f"{site} {name!r} is a {kind} in docs/api.md")
        keywords = [keyword.arg for keyword in call.keywords]
        if None in keywords or not set(keywords) <= labels:
            found.append(f"{site} {name!r} has a label docs/api.md does not list")
        if method in RECORDS:
            recorded.add(name)
    found += [f"docs/api.md {name!r} is recorded by nothing under src/"
              for name in sorted(set(rows) - recorded)]
    return found


def test_every_metric_name_is_a_literal_in_the_catalogue_and_every_row_is_recorded():
    assert _faults(REPO) == []


_DOCS = """\
# API

## Metrics

| Name | Kind | Unit | Labels | Help |
|---|---|---|---|---|
| `ops` | counter | operations | client · `op` | Operations |
| `op.latency_s` | histogram | s | client · `op` | Latency |
| `idle` | counter | events | fabric | Nothing records it |
| `txs` | counter | transactions | peer · `status` (`valid`, `invalid`) | By outcome |

## Next
"""

_MODULE = """\
def record(registry, op, shard, labels):
    registry.counter("ops", op=op).inc()
    registry.histogram("op.latency_s", op=op).observe(1.0)
    registry.counter(f"ops.{op}").inc()
    registry.histogram("router.shard_" + shard).observe(1.0)
    name = "ops"
    registry.counter(name).inc()
    registry.histogram("ops").observe(1.0)
    registry.counter("ops", shard=shard).inc()
    registry.counter("ops", **labels).inc()
    registry.counter("unlisted").inc()
    registry.counter("txs", status="valid").inc()
    registry.counter("txs", valid="1").inc()
    return registry.get_counter("ops", op=op)
"""


_SRC_FAULTS = [
    "src/repro/mod.py:4 .counter names its series with no string literal",
    "src/repro/mod.py:5 .histogram names its series with no string literal",
    "src/repro/mod.py:7 .counter names its series with no string literal",
    "src/repro/mod.py:8 .histogram 'ops' is a counter in docs/api.md",
    "src/repro/mod.py:9 .counter 'ops' has a label docs/api.md does not list",
    "src/repro/mod.py:10 .counter 'ops' has a label docs/api.md does not list",
    "src/repro/mod.py:11 .counter 'unlisted' is not in docs/api.md",
    "src/repro/mod.py:13 .counter 'txs' has a label docs/api.md does not list",
]
_UNRECORDED = ["docs/api.md 'idle' is recorded by nothing under src/"]


@pytest.mark.parametrize("example, flagged", [
    ("", _SRC_FAULTS + _UNRECORDED),
    # An example's read must find a row; what it records counts for nothing.
    ('registry.get_histogram("op.latency_s", op="get")\nregistry.counter("idle").inc()\n'
     'registry.get_counter("missing")\n',
     _SRC_FAULTS + ["examples/run.py:3 .get_counter 'missing' is not in docs/api.md"]
     + _UNRECORDED),
])
def test_the_guard_flags_exactly_the_uncatalogued_sites(tmp_path, example, flagged):
    for relative, text in (("docs/api.md", _DOCS), ("src/repro/mod.py", _MODULE),
                           ("examples/run.py", example)):
        (tmp_path / relative).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / relative).write_text(text, encoding="utf-8")
    assert _faults(tmp_path) == flagged
