"""``python -m repro.analysis [--root DIR]`` — run every checker over a
repo tree, print the findings, exit 1 if there are any.

An inline ``# repro: allow-<family>`` pragma is the only way to silence a
finding (see ``docs/determinism.md``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.concurrency import check_concurrency
from repro.analysis.contracts import check_contracts
from repro.analysis.core import AnalysisContext, Finding
from repro.analysis.determinism import check_determinism
from repro.analysis.layering import check_layering

Checker = Callable[[AnalysisContext], List[Finding]]

#: Checker families, run in order.
CHECKERS: Tuple[Checker, ...] = (
    check_determinism,
    check_layering,
    check_contracts,
    check_concurrency,
)


def run_analysis(root: Path) -> List[Finding]:
    """Run every checker over ``root`` and return sorted findings."""
    context = AnalysisContext.load(root)
    findings = [finding for checker in CHECKERS for finding in checker(context)]
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Determinism & architecture static analysis for repro.",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path.cwd(),
        help="repo root (holds src/repro, docs/); default: cwd",
    )
    args = parser.parse_args(argv)
    findings = run_analysis(args.root.resolve())
    for finding in findings:
        print(finding.render())
    print(f"{len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0
