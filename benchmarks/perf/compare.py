#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``compare.py A.jsonl B.jsonl``.

Each file holds the full reports ``run.py --out FILE`` appended, one JSON
object per line, any number of runs per workload.  For every workload ×
end-to-end metric the tool prints both medians and the ratio B ÷ A (A is
the base), and exits non-zero when

* a pair of medians differs by more than that metric's bound in
  ``BENCHMARK.json`` (in either direction — this is the agreement check
  for two sets of runs of the *same* commit),
* a run in either set had failed operations, or
* the same (workload, seed) produced different virtual-time anchors.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median
from typing import Any, Dict, List

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(path: str) -> Dict[str, List[Dict[str, Any]]]:
    """End-to-end reports of one file, grouped by workload."""
    runs: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                report = json.loads(line)
                if not report["trace"]:
                    runs[report["workload"]].append(report)
    return runs


def compare(base: Dict[str, List[Dict[str, Any]]], other: Dict[str, List[Dict[str, Any]]],
            bounds: Dict[str, float]) -> List[str]:
    """Print the comparison table; return the list of disagreements."""
    problems: List[str] = []
    print(f"{'workload':<12}{'metric':<16}{'A median':>14}{'B median':>14}"
          f"{'B/A':>9}{'bound':>8}")
    for workload in sorted(set(base) | set(other)):
        if workload not in base or workload not in other:
            problems.append(f"{workload}: present in only one of the two sets")
            continue
        for side, reports in (("A", base[workload]), ("B", other[workload])):
            failed = sum(report["failed"] for report in reports)
            if failed:
                problems.append(f"{workload}: {failed} failed operation(s) in set {side}")
        anchors_a = {r["seed"]: r["sim_anchor"] for r in base[workload]}
        for report in other[workload]:
            if anchors_a.get(report["seed"], report["sim_anchor"]) != report["sim_anchor"]:
                problems.append(f"{workload}: seed {report['seed']} anchors differ")
        for metric, bound in bounds.items():
            a = median(r["metrics"][metric]["value"] for r in base[workload])
            b = median(r["metrics"][metric]["value"] for r in other[workload])
            ratio = b / a
            flag = ""
            if abs(ratio - 1.0) > bound:
                flag = "  <-- outside bound"
                problems.append(
                    f"{workload}.{metric}: B/A = {ratio:.4f} (base A = {a:.6g}), "
                    f"bound ±{bound:.0%}"
                )
            print(f"{workload:<12}{metric:<16}{a:>14.6g}{b:>14.6g}"
                  f"{ratio:>9.4f}{bound:>8.0%}{flag}")
    return problems


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    contract = json.loads(BENCHMARK_JSON.read_text())
    bounds = {entry["name"]: entry["bound"] for entry in contract["end_to_end"]}
    problems = compare(load_runs(argv[0]), load_runs(argv[1]), bounds)
    for problem in problems:
        print(f"DISAGREE {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
