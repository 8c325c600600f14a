"""Resource-consumption report: per-node CPU utilization and traffic.

The paper's abstract promises an evaluation of "performance, throughput,
resource consumption, and energy efficiency".  Fig. 3 covers energy; this
experiment covers the resource side: it drives the StoreData workload on
both setups and reports, for every node (peers, orderer, storage, client
host), the CPU utilization, disk utilization and bytes put on the wire
during the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.bench.reporting import ResultTable, format_bytes
from repro.bench.runner import RunConfig, StoreDataRunner
from repro.core.topology import (
    HyperProvDeployment,
    build_desktop_deployment,
    build_rpi_deployment,
)


@dataclass
class NodeUsage:
    """Utilization of one node over the measurement window."""

    node: str
    role: str
    cpu_utilization: float
    disk_utilization: float
    bytes_sent: int
    #: Total CPU core-seconds consumed during the window (utilization × cores × window).
    cpu_core_seconds: float = 0.0


@dataclass
class ResourceUsageReport:
    """Per-node usage for one setup."""

    setup: str
    throughput_tps: float
    window_s: float
    nodes: List[NodeUsage] = field(default_factory=list)

    def node_usage(self, node: str) -> NodeUsage:
        for usage in self.nodes:
            if usage.node == node:
                return usage
        raise KeyError(node)

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title=f"Resource consumption — {self.setup} setup "
                  f"({self.throughput_tps:.1f} tx/s sustained)",
            columns=["node", "role", "cpu util", "disk util", "bytes sent"],
        )
        for usage in self.nodes:
            table.add_row(
                usage.node,
                usage.role,
                f"{usage.cpu_utilization * 100:.1f}%",
                f"{usage.disk_utilization * 100:.1f}%",
                format_bytes(usage.bytes_sent),
            )
        return table


def _role_of(deployment: HyperProvDeployment, node: str) -> str:
    peer_names = {peer.name for peer in deployment.peers}
    client_host = deployment.fabric.client_context("hyperprov-client").host_node
    if node in peer_names:
        return "peer+client" if node == client_host else "peer"
    if node == deployment.fabric.orderer_node:
        return "orderer"
    if node == deployment.storage_backend.storage_node:
        return "storage"
    return "client"


def _measure(deployment: HyperProvDeployment, payload_bytes: int, requests: int,
             seed: int) -> ResourceUsageReport:
    runner = StoreDataRunner(deployment)
    result = runner.run(
        RunConfig(data_size_bytes=payload_bytes, request_count=requests, seed=seed)
    )
    window = (0.0, max(deployment.engine.now, 1e-9))
    report = ResourceUsageReport(
        setup=deployment.spec.name,
        throughput_tps=result.throughput_tps,
        window_s=window[1],
    )
    for node, device in sorted(deployment.devices.items()):
        report.nodes.append(
            NodeUsage(
                node=node,
                role=_role_of(deployment, node),
                cpu_utilization=device.utilization(window, "cpu"),
                disk_utilization=device.utilization(window, "disk"),
                bytes_sent=deployment.network.bytes_sent_by(node),
                cpu_core_seconds=device.busy_time(window=window, component="cpu"),
            )
        )
    return report


def run_resource_usage(
    payload_bytes: int = 256 * 1024,
    requests: int = 40,
    seed: int = 42,
) -> Dict[str, ResourceUsageReport]:
    """Measure per-node resource usage on both setups."""
    return {
        "desktop": _measure(build_desktop_deployment(seed=seed), payload_bytes, requests, seed),
        "rpi": _measure(build_rpi_deployment(seed=seed), payload_bytes, requests, seed),
    }
