#!/usr/bin/env python
"""IoT edge pipeline on Raspberry Pi devices with lineage queries.

This is the scenario the paper motivates: sensors and a camera at the edge
produce raw data; edge processing derives summaries from it; every item
and every derivation is anchored in HyperProv running on four Raspberry
Pi 3B+ devices.  Afterwards the example answers the questions a provenance
system exists for:

* where did this report come from (ancestry)?
* what would be affected if a sensor turned out to be mis-calibrated
  (impact analysis)?
* who contributed to this artifact (agents)?

Run with::

    python examples/iot_edge_pipeline.py
"""

from __future__ import annotations

from repro.api import HyperProvService
from repro.core import build_rpi_deployment
from repro.core.watcher import FileWatcher
from repro.workloads.scenarios import IoTPipelineWorkload, PipelineStage


def main() -> None:
    deployment = build_rpi_deployment()
    client = deployment.client
    print("Edge deployment: 4× Raspberry Pi 3B+ peers, client co-located with peer0")

    # --- Ingest three rounds of sensor readings and camera frames. ----------
    pipeline = IoTPipelineWorkload(
        HyperProvService(deployment).session(),
        sensor_count=3, camera_count=1, image_size_bytes=128 * 1024,
    )
    for round_index in range(3):
        posts = pipeline.ingest_round()
        deployment.drain()
        print(f"round {round_index + 1}: stored {len(posts)} raw items "
              f"(latest block {posts[-1].commit_block})")

    # --- Derive: hourly summary over everything, then an anomaly report. ----
    summary = pipeline.derive(PipelineStage(name="hourly-summary", reduction_factor=0.2))
    deployment.drain()
    report = pipeline.derive(
        PipelineStage(name="anomaly-report", reduction_factor=0.05),
        source_posts=[summary],
        output_key="derived/anomaly-report/0001",
    )
    deployment.drain()
    print(f"\nderived {summary.record.key} from {len(summary.record.dependencies)} inputs")
    print(f"derived {report.record.key} from the summary")

    # --- A file watcher also anchors edge log files automatically. ----------
    watcher = FileWatcher(client, namespace="edge-logs")
    watcher.observe("gateway.log", b"boot ok\n")
    deployment.drain()
    watcher.observe("gateway.log", b"boot ok\nsensor-2 calibration drift\n")
    deployment.drain()
    print(f"watcher recorded {watcher.change_count} log versions")

    # --- Lineage queries. ----------------------------------------------------
    lineage = client.get_lineage(report.record.key)
    print(f"\nLineage of {report.record.key}:")
    print(f"  ancestors           : {lineage.ancestor_count}")
    print(f"  derivation depth    : {lineage.depth}")
    print(f"  contributing agents : {lineage.contributing_agents}")

    # Impact analysis: which artifacts derive from the first sensor's readings?
    first_sensor_key = pipeline.raw_posts[0].record.key
    impact = client.get_lineage(first_sensor_key).descendants
    assert impact, "the summary and the report derive from every sensor"
    print(f"\nIf {first_sensor_key} were mis-calibrated, these artifacts are affected:")
    for artifact in impact:
        print(f"  - {artifact}")

    # End-to-end integrity: every stored item still matches its on-chain checksum.
    checks = pipeline.verify_all()
    print(f"\nIntegrity verified for {sum(checks.values())}/{len(checks)} items")

    heights = deployment.fabric.ledger_heights()
    assert len(set(heights.values())) == 1
    print(f"All RPi peers agree on ledger height {next(iter(heights.values()))}")


if __name__ == "__main__":
    main()
