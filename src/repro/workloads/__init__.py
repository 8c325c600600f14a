"""Workload generation for benchmarks and examples.

Provides deterministic payload generators for the IoT-at-the-edge use case
the paper motivates (sensor readings, camera images, processed derivative
files) and open-loop Poisson arrival timelines that drive the benchmark
harness.
"""

from repro.workloads.payloads import (
    PayloadGenerator,
    SensorReadingGenerator,
    ImagePayloadGenerator,
    DataItem,
)
from repro.workloads.arrivals import CohortArrivalPlan, sample_poisson_times
from repro.workloads.scenarios import (
    IoTPipelineWorkload,
    PipelineStage,
    SkewedTenantWorkload,
    TenantLoadResult,
)

__all__ = [
    "PayloadGenerator",
    "SensorReadingGenerator",
    "ImagePayloadGenerator",
    "DataItem",
    "CohortArrivalPlan",
    "sample_poisson_times",
    "IoTPipelineWorkload",
    "PipelineStage",
    "SkewedTenantWorkload",
    "TenantLoadResult",
]
