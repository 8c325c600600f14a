"""Benchmark harness: ``python -m repro.bench <experiment>``.

========================  ===================================================
Experiment                Reproduces
========================  ===================================================
*StoreData sweeps — one* ``SWEEPS`` *row each in* ``sweeps``, *run by* ``run_sweep``
-----------------------------------------------------------------------------
``fig1``                  Fig. 1 — throughput & response time vs data size (desktop)
``fig2``                  Fig. 2 — the same sweep on the Raspberry Pi setup
``ablation-batch``        Orderer batch-size (``MaxMessageCount``) sweep
``ablation-concurrency``  In-flight submission depth sweep (futures API)
``ablation-consensus``    Solo vs Raft ordering
``ablation-fastfabric``   Sequential vs parallel block validation (RPi)
``ablation-sharding``     Channel shards vs throughput (+ the tenant
                          fair-sharing table of ``ablation_sharding``)
*Other experiments — one module each*
-----------------------------------------------------------------------------
``fig3``                  ``fig3_energy`` — RPi power per 10-minute interval by load
``ops``                   ``ops_table`` — per-operator latency + stage breakdown
``baselines``             ``baseline_compare`` — HyperProv vs PoW vs central DB
``resources``             ``resource_usage`` — per-node CPU and traffic
``ablation-cache``        ``ablation_cache`` — read-cache middleware on/off
*Gates*
-----------------------------------------------------------------------------
``fleet``                 Parallel vs sequential fleet executor (speedup + anchor)
``query``                 ``query_bench`` — indexed vs scan selectors, ≥ 10x floor
``chaos``                 ``chaos`` — fault-scenario rows (``SCENARIOS``) and named invariants
========================  ===================================================

``fleet`` and ``chaos`` gate their determinism anchors against the
committed ``ANCHORS.json`` through ``anchors``; ``export`` writes the
figures' CSVs; wall-clock performance is measured by the repo benchmark,
``python3 benchmarks/perf/run.py``.  Import from the modules — the package
itself imports nothing, so binding one module does not load the rest.
"""
