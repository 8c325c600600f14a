"""Secondary indexes must not move simulated time.

Every query access path costs exactly one state operation in the device
cost model, so running the same workload with indexes on and off must
produce byte-identical virtual-time results — same engine clock, same
latencies, same payloads.  This is the no-drift acceptance gate for the
read-side query subsystem.
"""

from repro.api.protocol import StoreRequest
from repro.api.service import HyperProvService
from repro.core.topology import build_desktop_deployment
from repro.middleware.config import PipelineConfig


def run_workload(indexed: bool):
    deployment = build_desktop_deployment(seed=42)
    config = PipelineConfig(indexes=("creator", "metadata.*")) if indexed else None
    store = HyperProvService(deployment).session(pipeline=config).backend
    for i in range(8):
        store.submit(
            StoreRequest(
                key=f"vt/{i}",
                data=f"payload-{i}".encode(),
                metadata={"group": i % 2, "hot": i % 4 == 0},
            )
        )
    deployment.drain()
    client = store.client
    observations = []
    for page in [
        store.query({"metadata.group": 1}),
        store.query({"creator": "hyperprov-client", "metadata.hot": True}),
        store.query({"_prefix": "vt/"}, limit=3),
        store.query({"_prefix": "vt/"}, limit=3, bookmark="vt/2"),
    ]:
        observations.append((page.records, round(page.latency_s, 12), page.bookmark))
    for result in [
        client.get_by_range("vt/", "vt/~"),
        client.get_by_range("vt/", "vt/~", limit=4),
    ]:
        observations.append(
            (
                [(row["key"], row["record"]) for row in result.payload],
                round(result.latency_s, 12),
                result.bookmark,
            )
        )
    observations.append(round(deployment.engine.now, 12))
    return observations


def test_virtual_time_is_byte_identical_with_indexes_on_and_off():
    assert run_workload(indexed=False) == run_workload(indexed=True)
