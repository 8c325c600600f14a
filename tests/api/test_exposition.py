"""The service's Prometheus export, parsed back, says what the registries hold.

One seeded run shaped like the ``tenant_mix`` benchmark — two tenants on
two shards, each session with a read cache, an index and an in-flight cap
— is rendered by ``HyperProvService.exposition()`` and parsed with the
small text-format parser below.  Every catalogued name the run records is
in the export, every series appears once with its value, and the tenant,
shard and operation labels are there to select by.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

import pytest

from repro.api import HyperProvService
from repro.common.errors import AdmissionRejectedError
from repro.core.topology import build_desktop_deployment
from repro.middleware.config import PipelineConfig
from tests.internals import metric_series
from tests.source_tree import REPO
from tests.test_every_metric_is_catalogued import catalogue

Labels = Tuple[Tuple[str, str], ...]

_SAMPLE = re.compile(r"([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse(text: str) -> Tuple[Dict[str, str], Dict[Tuple[str, Labels], float]]:
    """Family → type, and (sample name, labels) → value, of an exposition."""
    types: Dict[str, str] = {}
    samples: Dict[Tuple[str, Labels], float] = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split(" ")
            types[family] = kind
            continue
        match = _SAMPLE.fullmatch(line)
        assert match is not None, line
        name, body, value = match.groups()
        key = (name, tuple(_LABEL.findall(body or "")))
        assert key not in samples, f"{line} appears twice"
        samples[key] = float(value)
    return types, samples


def exported(name: str) -> str:
    return "hyperprov_" + name.replace(".", "_")


@pytest.fixture(scope="module")
def run():
    deployment = build_desktop_deployment(seed=5, shards=2)
    service = HyperProvService(deployment)
    config = PipelineConfig(shards=2, cache=True, indexes=("creator",))
    sessions = [
        service.session(tenant=f"tenant-{index}", pipeline=config, max_in_flight=3)
        for index in range(2)
    ]
    for index, session in enumerate(sessions):
        for key in range(3):
            session.submit(f"sensor/{key}", f"reading {index}.{key}".encode())
        with pytest.raises(AdmissionRejectedError):
            session.submit("sensor/over-cap", b"rejected")
        service.drain()
        for key in range(3):
            session.get(f"sensor/{key}")
            session.get(f"sensor/{key}")
        session.history("sensor/0")
        session.query({"creator": "hyperprov-client"}, explain=True)
        session.backend.client.get_by_range("sensor/", "sensor/~")
    registries = [
        deployment.client.metrics,
        *(session.backend.client.metrics for session in sessions),
        deployment.fabric.metrics,
        *(peer.metrics for shard in deployment.fabric.shards for peer in shard.ordered_peers),
        *(shard.orderer.metrics for shard in deployment.fabric.shards),
        deployment.network.metrics,
    ]
    return registries, parse(service.exposition())


def _expected(registries) -> List[Tuple[str, Tuple[str, Labels], float]]:
    """(catalogued name, sample key, value) of every sample the registries hold."""
    expected = []
    for registry in registries:
        constant = tuple(registry.labels.items())
        for name, own, series in metric_series(registry):
            family, labels = exported(name), constant + own
            if hasattr(series, "value"):
                expected.append((name, (family, labels), series.value))
                continue
            expected.append((name, (family + "_sum", labels), series.total))
            expected.append((name, (family + "_count", labels), float(series.count)))
            if series.count:
                expected.append(
                    (name, (family, labels + (("quantile", "1"),)), float(series.maximum))
                )
    return expected


def test_every_series_the_registries_hold_is_exported_with_its_value(run):
    registries, (_, samples) = run
    assert {key: value for _, key, value in _expected(registries)} == samples


def test_every_catalogued_name_the_run_records_is_a_typed_family(run):
    registries, (types, _) = run
    rows = catalogue(REPO)
    recorded = {name for name, _, _ in _expected(registries)}
    assert recorded <= set(rows)
    kinds = {"counter": "counter", "histogram": "summary"}
    assert types == {exported(name): kinds[rows[name][0]] for name in recorded}
    # The run reaches the client, fabric, orderer, peer and network rows.
    for name in ("cache.hits", "admission.rejected", "router.routed", "query.plans",
                 "stage.latency_s", "tx_latency_s", "block_size_txs", "txs", "bytes"):
        assert name in recorded, name


def test_tenant_shard_and_operation_labels_select_series(run):
    _, (_, samples) = run

    def value(name: str, **wanted: str) -> List[float]:
        return [v for (sample, labels), v in samples.items()
                if sample == name and set(wanted.items()) <= set(labels)]

    for tenant in ("tenant-0", "tenant-1"):
        assert value("hyperprov_cache_hits", tenant=tenant) == [3.0]
        assert value("hyperprov_cache_misses", tenant=tenant) == [6.0]
        assert value("hyperprov_admission_rejected", tenant=tenant) == [1.0]
        assert value("hyperprov_ops", tenant=tenant, op="get") == [6.0]
        assert value("hyperprov_op_latency_s_count", tenant=tenant, op="store_data") == [3.0]
        assert value("hyperprov_query_plans", tenant=tenant, path="prefix") == [1.0]
        shards = [value("hyperprov_router_routed", tenant=tenant, shard=str(n)) for n in (0, 1)]
        assert all(len(routed) == 1 for routed in shards)
        # Three writes and three cache misses reach the router one shard
        # each; the history, query and range reads fan out.
        assert sum(routed[0] for routed in shards) == 6.0
        assert value("hyperprov_router_fan_outs", tenant=tenant) == [3.0]
