"""HyperProv reproduction: decentralized resilient data provenance at the edge.

The package is organized bottom-up:

* substrates — :mod:`repro.simulation`, :mod:`repro.crypto`,
  :mod:`repro.membership`, :mod:`repro.network`, :mod:`repro.ledger`,
  :mod:`repro.consensus`, :mod:`repro.fabric`, :mod:`repro.chaincode`,
  :mod:`repro.storage`, :mod:`repro.devices`, :mod:`repro.energy`,
* the paper's contribution — :mod:`repro.core` (client library and
  deployments), :mod:`repro.api` (the unified ``ProvenanceStore``
  protocol and tenant-sessioned service facade) and
  :mod:`repro.provenance` (lineage walked over committed records),
* evaluation — :mod:`repro.workloads`, :mod:`repro.baselines`,
  :mod:`repro.bench`.

Quickstart::

    from repro import HyperProvService, build_desktop_deployment

    service = HyperProvService(build_desktop_deployment())
    with service.session() as session:
        handle = session.submit("sensors/s1/r1", b"21.5 C")  # a future
        session.drain()
        record = session.get("sensors/s1/r1")
        assert record.checksum == handle.record.checksum
"""

from repro.api import HyperProvService, ProvenanceStore, StoreRequest
from repro.core import (
    HyperProvClient,
    HyperProvDeployment,
    build_deployment,
    build_desktop_deployment,
    build_rpi_deployment,
)
from repro.chaincode.records import ProvenanceRecord

__version__ = "1.1.0"

__all__ = [
    "HyperProvClient",
    "HyperProvDeployment",
    "HyperProvService",
    "ProvenanceStore",
    "StoreRequest",
    "build_deployment",
    "build_desktop_deployment",
    "build_rpi_deployment",
    "ProvenanceRecord",
    "__version__",
]
