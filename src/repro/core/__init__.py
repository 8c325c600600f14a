"""HyperProv's public client-facing layer.

This is the Python equivalent of the paper's NodeJS client library: it
hides the Fabric machinery behind a handful of operators (``post``,
``get``, ``get_key_history``, ``store_data``, ``get_data``, …), integrates
the off-chain storage backend, and exposes lineage queries over the Open
Provenance Model graph.

:mod:`repro.core.topology` builds the two deployments evaluated in the
paper (the x86-64 desktop setup and the Raspberry Pi edge setup) with one
call each.
"""

from repro.core.client import HyperProvClient, DataResult, QueryResult
from repro.core.topology import (
    HyperProvDeployment,
    DeploymentSpec,
    build_deployment,
    build_desktop_deployment,
    build_rpi_deployment,
)
from repro.core.watcher import FileWatcher, WatchedChange

__all__ = [
    "HyperProvClient",
    "DataResult",
    "QueryResult",
    "HyperProvDeployment",
    "DeploymentSpec",
    "build_deployment",
    "build_desktop_deployment",
    "build_rpi_deployment",
    "FileWatcher",
    "WatchedChange",
]
