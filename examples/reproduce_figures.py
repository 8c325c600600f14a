#!/usr/bin/env python
"""Regenerate every figure of the paper's evaluation section in one run.

Prints the tables behind Fig. 1 (desktop throughput/response vs data
size), Fig. 2 (the same sweep on Raspberry Pi) and Fig. 3 (RPi power per
10-minute interval), plus the operator-latency and baseline-comparison
tables.  This is the scripted equivalent of
``python -m repro.bench all`` with moderate request counts.

Run with::

    python examples/reproduce_figures.py [--quick]
"""

from __future__ import annotations

import argparse

from repro.bench.baseline_compare import run_baseline_comparison
from repro.bench.fig3_energy import run_fig3
from repro.bench.ops_table import run_ops_table, to_table
from repro.bench.sweeps import SWEEPS, run_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller request counts and shorter energy intervals")
    args = parser.parse_args()

    requests = 15 if args.quick else 40
    rpi_requests = 10 if args.quick else 25
    interval = 120.0 if args.quick else 600.0

    table1 = run_sweep(SWEEPS["fig1"], requests=requests).to_table()
    table1.add_note("expected shape: throughput falls, response time rises with size")
    print(table1.render())

    table2 = run_sweep(SWEEPS["fig2"], requests=rpi_requests).to_table()
    table2.add_note("expected shape: same trend as Fig. 1 at lower absolute performance")
    print("\n" + table2.render())

    fig3 = run_fig3(interval_s=interval)
    table3 = fig3.to_table()
    table3.add_note("paper reference points: idle-with-HLF 2.71 W, peak ≈ +10.7 %, max 3.64 W")
    print("\n" + table3.render())

    print("\n" + to_table(run_ops_table(repeats=3)).render())

    print("\n" + run_baseline_comparison(requests=20).to_table().render())


if __name__ == "__main__":
    main()
