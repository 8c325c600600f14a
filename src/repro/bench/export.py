"""Export experiment results to CSV/JSON for plotting.

The paper presents Figs. 1-3 as plots; this module turns the harness's
result objects into flat files (one CSV per figure plus a combined JSON
manifest) so the figures can be redrawn with any plotting tool:

    python -m repro.bench.export --out results/ --requests 30

Only the standard library is used; files are overwritten on each run.
"""

from __future__ import annotations

import argparse
import csv
import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.bench.fig3_energy import EnergyFigure, run_fig3
from repro.bench.ops_table import OperatorLatencies, run_ops_table
from repro.bench.sweeps import SWEEPS, SweepResult, run_sweep
from repro.middleware.metrics import STAGES


def figure_series_rows(series: SweepResult, setup: str) -> List[Dict[str, object]]:
    """Flatten a Fig. 1 / Fig. 2 series into plottable rows."""
    return [{**result.summary(), "setup": setup} for result in series.results]


def energy_rows(figure: EnergyFigure) -> List[Dict[str, object]]:
    """Flatten the Fig. 3 intervals into plottable rows."""
    return [
        {
            "interval": report.label,
            "start_s": report.start,
            "end_s": report.end,
            "mean_watts": report.mean_watts,
            "max_watts": report.max_watts,
            "min_watts": report.min_watts,
            "energy_joules": report.energy_joules,
        }
        for report in figure.intervals
    ]


def ops_rows(results: List[OperatorLatencies]) -> List[Dict[str, object]]:
    """Flatten the operator latency table into rows."""
    rows = []
    for result in results:
        for operator, latency in sorted(result.latencies_s.items()):
            rows.append({"setup": result.setup, "operator": operator, "latency_s": latency})
    return rows


def stage_rows(results: List[OperatorLatencies]) -> List[Dict[str, object]]:
    """Per-stage write-path latency (endorse/order/commit) per setup.

    Recorded by the pipeline's metrics middleware, so the ops benchmark can
    attribute where transaction time goes rather than only reporting the
    end-to-end number.
    """
    rows = []
    for result in results:
        for stage in STAGES:
            if stage in result.stages_s:
                rows.append(
                    {
                        "setup": result.setup,
                        "stage": stage,
                        "mean_latency_s": result.stages_s[stage],
                    }
                )
    return rows


def write_csv(path: Path, rows: List[Dict[str, object]]) -> Path:
    """Write ``rows`` as a CSV file with a header derived from the first row."""
    if not rows:
        raise ValueError(f"refusing to write empty result file {path}")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return path


def export_all(
    out_dir: Path,
    requests: int = 30,
    rpi_requests: int = 20,
    energy_interval_s: float = 600.0,
    seed: int = 42,
) -> Dict[str, str]:
    """Run Figs. 1-3 and the ops table, writing one CSV each plus a manifest.

    Returns a mapping of experiment id → written file path.
    """
    out_dir = Path(out_dir)
    written: Dict[str, str] = {}

    fig1 = run_sweep(SWEEPS["fig1"], requests=requests, seed=seed)
    written["fig1"] = str(
        write_csv(out_dir / "fig1_desktop.csv", figure_series_rows(fig1, "desktop"))
    )

    fig2 = run_sweep(SWEEPS["fig2"], requests=rpi_requests, seed=seed)
    written["fig2"] = str(write_csv(out_dir / "fig2_rpi.csv", figure_series_rows(fig2, "rpi")))

    fig3 = run_fig3(interval_s=energy_interval_s, seed=seed)
    written["fig3"] = str(write_csv(out_dir / "fig3_energy.csv", energy_rows(fig3)))

    ops = run_ops_table(repeats=3, seed=seed)
    written["ops"] = str(write_csv(out_dir / "ops_table.csv", ops_rows(ops)))
    breakdown = stage_rows(ops)
    if breakdown:
        written["ops_stages"] = str(
            write_csv(out_dir / "ops_stage_breakdown.csv", breakdown)
        )

    manifest = {
        "seed": seed,
        "requests_per_size": requests,
        "rpi_requests_per_size": rpi_requests,
        "energy_interval_s": energy_interval_s,
        "files": written,
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    written["manifest"] = str(manifest_path)
    return written


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover - thin CLI
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory (default: results/)")
    parser.add_argument("--requests", type=int, default=30)
    parser.add_argument("--interval", type=float, default=600.0)
    args = parser.parse_args(argv)
    written = export_all(Path(args.out), requests=args.requests,
                         energy_interval_s=args.interval)
    for experiment, path in sorted(written.items()):
        print(f"{experiment}: {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
