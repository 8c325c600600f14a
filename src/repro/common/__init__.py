"""Shared utilities used by every HyperProv subsystem.

The :mod:`repro.common` package intentionally has no dependencies on the
rest of the code base.  It provides:

* structured exception hierarchy (:mod:`repro.common.errors`),
* deterministic identifier generation (:mod:`repro.common.ids`),
* hashing / checksum helpers (:mod:`repro.common.hashing`),
* canonical serialization (:mod:`repro.common.serialization`),
* configuration dataclasses (:mod:`repro.common.config`),
* a tiny synchronous event bus (:mod:`repro.common.events`),
* a metrics registry for counters/gauges/histograms
  (:mod:`repro.common.metrics`).
"""

from repro.common.errors import (
    HyperProvError,
    ConfigurationError,
    ValidationError,
    NotFoundError,
    DuplicateError,
    EndorsementError,
    OrderingError,
    StorageError,
    NetworkError,
    CryptoError,
    ChaincodeError,
    SimulationError,
)
from repro.common.hashing import sha256_hex, checksum_of, HashChain
from repro.common.ids import IdGenerator, short_uid
from repro.common.serialization import canonical_json
from repro.common.events import EventBus, Subscription
from repro.common.metrics import MetricsRegistry, Counter, Gauge, Histogram

__all__ = [
    "HyperProvError",
    "ConfigurationError",
    "ValidationError",
    "NotFoundError",
    "DuplicateError",
    "EndorsementError",
    "OrderingError",
    "StorageError",
    "NetworkError",
    "CryptoError",
    "ChaincodeError",
    "SimulationError",
    "sha256_hex",
    "checksum_of",
    "HashChain",
    "IdGenerator",
    "short_uid",
    "canonical_json",
    "EventBus",
    "Subscription",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
]
