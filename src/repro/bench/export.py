"""Export the paper's figures to CSV for plotting.

The paper presents Figs. 1-3 as plots; this module writes the rows the
figure tables of :data:`~repro.bench.experiments.EXPERIMENTS` measure, one
CSV per table with one column per row key, plus a JSON manifest, so the
figures can be redrawn with any plotting tool:

    python -m repro.bench.export --out results/ --requests 30

Only the standard library is used; files are overwritten on each run.
"""

from __future__ import annotations

import argparse
import csv
import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.bench.experiments import EXPERIMENTS, SEED, measure
from repro.bench.sweeps import Row

#: The tables exported, each to ``<key with / as _>.csv``.
FIGURES = ("fig1", "fig2", "fig3", "ops", "ops/stages")


def write_csv(path: Path, rows: List[Row]) -> Path:
    """Write ``rows`` as a CSV file with a header derived from the first row."""
    if not rows:
        raise ValueError(f"refusing to write empty result file {path}")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return path


def export_all(out_dir: Path, requests: int = 30) -> Dict[str, str]:
    """Measure every figure table at ``requests``; table key → written CSV path."""
    out_dir = Path(out_dir)
    written = {
        key: str(write_csv(out_dir / f"{key.replace('/', '_')}.csv", rows))
        for key, rows in measure(EXPERIMENTS, FIGURES, requests, SEED).items()
    }
    manifest = {"seed": SEED, "requests": requests, "files": written}
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return {**written, "manifest": str(manifest_path)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory (default: results/)")
    parser.add_argument("--requests", type=int, default=30,
                        help="requests per measurement point of every figure (default: 30)")
    args = parser.parse_args(argv)
    for key, path in sorted(export_all(Path(args.out), requests=args.requests).items()):
        print(f"{key}: {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
