#!/usr/bin/env python
"""Regenerate every figure of the paper's evaluation section in one run.

Prints the tables behind Fig. 1 (desktop throughput/response vs data
size), Fig. 2 (the same sweep on Raspberry Pi) and Fig. 3 (RPi power per
10-minute interval), plus the operator-latency and baseline-comparison
tables.  Under each table its ``claim:`` lines put the paper's value (where
the repo has one) beside the simulated value.  This is the scripted
equivalent of ``python -m repro.bench fig1 fig2 fig3 ops baselines``.

Run with::

    python examples/reproduce_figures.py
"""

from __future__ import annotations

from repro.bench.experiments import CLAIMS_LOAD, EXPERIMENTS, PAPER_CLAIMS, measure, render

TABLES = ("fig1", "fig2", "fig3", "ops", "baselines")


def main() -> None:
    measured = measure(EXPERIMENTS, TABLES, CLAIMS_LOAD, 42)
    output = "\n\n".join(render(key, measured, CLAIMS_LOAD) for key in TABLES)
    print(output)
    claims = [line for line in output.splitlines() if line.startswith("claim:")]
    assert len(claims) == sum(claim.experiments[0] in TABLES for claim in PAPER_CLAIMS)
    assert all(", within " in line for line in claims), "a claim is outside its tolerance"


if __name__ == "__main__":
    main()
