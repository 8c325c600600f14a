"""Committed determinism anchors and the gate that compares against them.

``ANCHORS.json`` (repo root) is the one place a number this repo gates on
is committed.  It holds only what is bit-exact: per ``bench fleet``
profile and per ``bench chaos`` scenario, the inputs that determine the
run and the SHA-256 anchor over its virtual-time observations::

    {"fleet": {"500x2": {"inputs": {"devices": 500, ...}, "anchor": "ff0b…"}},
     "chaos": {"orderer_stall": {"inputs": {"seed": 42}, "anchor": "e397…"}}}

Gates read this file and never write it.  An intentional virtual-time
change is made by editing the anchor string by hand — the mismatch
message prints both the committed and the fresh value — so it shows up in
review as a one-line diff.  Wall-clock numbers live nowhere in this file;
``benchmarks/perf`` measures those.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Mapping, Union


class GateError(RuntimeError):
    """A benchmark gate failed: an anchor, a floor or an invariant."""


def load(path: Union[str, Path]) -> Dict[str, object]:
    """The anchors document at ``path``; unreadable or corrupt is an error.

    A gate that cannot read its anchors must fail, not pass on an empty
    document.
    """
    try:
        document = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise GateError(f"anchors file {path} is unreadable: {exc!r}") from exc
    if not isinstance(document, dict):
        raise GateError(f"anchors file {path} does not hold a JSON object")
    return document


def check(
    document: Mapping[str, object],
    section: str,
    name: str,
    inputs: Mapping[str, object],
    anchor: str,
) -> None:
    """Raise :class:`GateError` unless ``anchor`` is the committed one.

    Inputs are compared first: a run whose inputs have no committed entry
    is ungateable (and says so), only equal inputs with a different anchor
    mean virtual time moved.
    """
    inputs = dict(inputs)
    entries = document.get(section)
    entry = entries.get(name) if isinstance(entries, dict) else None
    if not isinstance(entry, dict):
        raise GateError(f"{section} {name}: no committed anchor for {inputs}")
    if entry.get("inputs") != inputs:
        raise GateError(
            f"{section} {name}: no committed anchor for {inputs} (the "
            f"committed {name} entry is for {entry.get('inputs')})"
        )
    committed = entry.get("anchor")
    if committed != anchor:
        raise GateError(
            f"{section} {name}: virtual time moved — committed anchor "
            f"{committed}, fresh anchor {anchor}"
        )
