"""Benchmark harness.

One module per figure/table of the paper plus ablations:

===============  ==========================================================
Module           Reproduces
===============  ==========================================================
``fig1_throughput``  Fig. 1 — throughput & response time vs data size (desktop)
``fig2_rpi``         Fig. 2 — throughput & response time vs data size (RPi)
``fig3_energy``      Fig. 3 — RPi power over 10-minute intervals by load level
``ops_table``        Per-operator latency table (technical-report style)
``baseline_compare`` HyperProv vs ProvChain-PoW vs centralized DB
``ablation_batch``   Orderer batch-size sweep
``ablation_consensus``  Solo vs Raft ordering
``ablation_cache``   Read-cache middleware on/off (repeated-get latency)
``ablation_concurrency``  In-flight submission depth sweep (futures API)
``ablation_sharding``  Channel shards vs throughput + tenant fair-sharing
``fleet``            Parallel vs sequential fleet executor (speedup + anchor)
``query``            Indexed vs scan selector throughput + continuous delivery
``chaos``            Deterministic fault-injection scenarios with invariants
===============  ==========================================================

Run ``python -m repro.bench <experiment>``.  ``fleet`` and ``chaos`` gate
their determinism anchors against the committed ``ANCHORS.json`` through
``anchors``; wall-clock performance is measured by the repo benchmark,
``python3 benchmarks/perf/run.py``.
"""

from repro.bench.runner import StoreDataRunner, RunConfig, RunResult
from repro.bench.reporting import ResultTable, format_si, format_seconds
from repro.bench.fig1_throughput import run_fig1
from repro.bench.fig2_rpi import run_fig2
from repro.bench.fig3_energy import run_fig3
from repro.bench.ops_table import run_ops_table
from repro.bench.baseline_compare import run_baseline_comparison
from repro.bench.ablation_batch import run_batch_ablation
from repro.bench.ablation_cache import run_cache_ablation
from repro.bench.ablation_concurrency import run_concurrency_ablation
from repro.bench.ablation_consensus import run_consensus_ablation
from repro.bench.ablation_fastfabric import run_fastfabric_ablation
from repro.bench.ablation_sharding import (
    run_fairness_comparison,
    run_sharding_ablation,
)
from repro.bench.chaos import run_chaos
from repro.bench.fleet import run_fleet
from repro.bench.query_bench import run_query_bench
from repro.bench.resource_usage import run_resource_usage

__all__ = [
    "StoreDataRunner",
    "RunConfig",
    "RunResult",
    "ResultTable",
    "format_si",
    "format_seconds",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_ops_table",
    "run_baseline_comparison",
    "run_batch_ablation",
    "run_cache_ablation",
    "run_concurrency_ablation",
    "run_consensus_ablation",
    "run_fastfabric_ablation",
    "run_sharding_ablation",
    "run_fairness_comparison",
    "run_chaos",
    "run_fleet",
    "run_query_bench",
    "run_resource_usage",
]
