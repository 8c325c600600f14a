"""Probes: the catalogue matches BENCHMARK.json, and every patch is undone."""

import json
import sys

import probes
import run
import workloads
from tracer import Tracer


def _contract():
    return json.loads((run.REPO / "BENCHMARK.json").read_text())


def test_catalogue_is_the_contract():
    contract = _contract()
    assert len(probes.PER_LAYER_UNITS) == 120
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == probes.PER_LAYER_UNITS
    assert {m["name"] for m in contract["per_layer"] if m["better"] == "higher"} == \
        probes.HIGHER_IS_BETTER
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in contract["workloads"]] == list(run.WORKLOAD_NAMES)
    assert contract["run_seconds"] == run.RUN_SECONDS
    assert contract["paths"] == ["benchmarks/perf"]


def _traced_closures():
    """Every tracer wrapper reachable from a ``repro`` module or class."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            owners = [(f"{name}.{attribute}", value)]
            if isinstance(value, type):
                owners += [(f"{name}.{attribute}.{k}", v) for k, v in vars(value).items()]
            found += [
                where for where, candidate in owners
                if getattr(candidate, "__qualname__", "").startswith("Tracer.wrap")
            ]
    return found


def test_every_patched_attribute_is_restored_after_a_traced_pass():
    assert _traced_closures() == []
    tracer = Tracer(probes.PROBE_NAMES)
    with probes.installed(tracer) as patch:
        patched = list(patch.patched)
        assert len(_traced_closures()) > 40
        traced = workloads.run_tenant_mix(seed=5, scale=0.02, tracer=tracer)
    assert traced.failed == 0 and len(tracer) > 1000
    for owner, attribute, original in patched:
        assert vars(owner)[attribute] is original, (owner, attribute)
    assert _traced_closures() == []

    # The same inputs, untraced, land on the same virtual-time anchor.
    assert workloads.run_tenant_mix(seed=5, scale=0.02).sim_anchor == traced.sim_anchor

    metrics = probes.per_probe_metrics(tracer, traced.ops, 1.0)
    metrics.update(probes.derived_from_trace(tracer, traced.ops, traced.recorder.region_s))
    assert set(metrics) < set(probes.PER_LAYER_UNITS)
    assert metrics["middleware.pipeline.calls_per_op"] > 1.0   # execute nests per write
    assert metrics["middleware.tenant-prefix.calls_per_op"] == 1.0
    assert 0.0 < metrics["middleware.read-cache.hit_ratio"] < 1.0
    assert metrics["query.continuous.deliver.calls_per_op"] > 0.0
    assert metrics["storage.put.calls_per_op"] > 0.0
    assert metrics["trace.unattributed_share"] <= 0.10
