"""Benchmark harness: ``python -m repro.bench <experiment>``.

Every table experiment is rows of ``experiments.EXPERIMENTS``, held to the
``experiments.PAPER_CLAIMS`` printed under it as ``claim:`` lines:

========================  ===================================================
``fig1`` / ``fig2``       Fig. 1 / Fig. 2 — throughput & response time vs data size
``fig3``                  Fig. 3 — RPi power per 10-minute interval by load
``ops``                   Per-operator latency + write-path stage breakdown
``baselines``             HyperProv vs PoW chain vs central DB
``resources``             Per-node CPU, disk and traffic on both setups
``ablation-batch``        Orderer batch-size (``MaxMessageCount``) sweep
``ablation-cache``        Read-cache middleware off/on
``ablation-concurrency``  In-flight submission depth sweep
``ablation-consensus``    Solo vs Raft ordering
``ablation-fastfabric``   Sequential vs parallel block validation (RPi)
``ablation-sharding``     Channel shards vs throughput + tenant fair sharing
========================  ===================================================

The seven StoreData sweeps are ``sweeps.SWEEPS`` rows run by ``run_sweep``.
The gates keep their own modules, since each fails the command on what a
row cannot express: ``fleet`` (parallel vs sequential executor) and
``chaos`` (fault scenarios) on determinism anchors committed in
``ANCHORS.json`` (``anchors``), ``query`` (``query_bench``) on the exact
candidate counts of the indexed and the scan plan.  ``export`` writes the
figures' rows as CSV; wall-clock performance is ``python3
benchmarks/perf/run.py``.  The package imports nothing, so binding one
module does not load the rest.
"""
