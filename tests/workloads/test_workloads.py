"""Tests for payload generators, arrival processes and scenarios."""

import json

import pytest

from repro.api import HyperProvService
from repro.common.errors import ConfigurationError
from repro.simulation.randomness import DeterministicRandom
from repro.workloads.arrivals import sample_poisson_times
from repro.workloads.payloads import (
    ImagePayloadGenerator,
    PayloadGenerator,
    SensorReadingGenerator,
)
from repro.workloads.scenarios import IoTPipelineWorkload, PipelineStage, SkewedTenantWorkload


# ------------------------------------------------------------------- payloads
def test_payload_generator_produces_requested_size():
    generator = PayloadGenerator(size_bytes=4096, seed=1)
    item = generator.next_item()
    assert item.size_bytes == 4096
    assert len(item.checksum) == 64


def test_payload_generator_items_are_unique():
    generator = PayloadGenerator(size_bytes=128, seed=1)
    checksums = {item.checksum for item in generator.items(20)}
    assert len(checksums) == 20


def test_payload_generator_is_deterministic():
    a = [i.checksum for i in PayloadGenerator(256, seed=9).items(5)]
    b = [i.checksum for i in PayloadGenerator(256, seed=9).items(5)]
    assert a == b


def test_payload_generator_rejects_negative_size():
    with pytest.raises(ConfigurationError):
        PayloadGenerator(size_bytes=-1)


def test_sensor_generator_emits_json_readings():
    generator = SensorReadingGenerator(sensor_id="s7", seed=2)
    item = generator.next_item()
    reading = json.loads(item.data)
    assert reading["sensor"] == "s7"
    assert -20.0 <= reading["temperature_c"] <= 35.0
    assert item.key.startswith("sensors/s7/")


def test_image_generator_size_varies_around_target():
    generator = ImagePayloadGenerator(size_bytes=100_000, seed=3)
    sizes = [generator.next_item().size_bytes for _ in range(10)]
    assert all(s > 0 for s in sizes)
    assert len(set(sizes)) > 1
    mean = sum(sizes) / len(sizes)
    assert 50_000 < mean < 200_000


# ------------------------------------------------------------------- arrivals
def test_poisson_times_hold_the_rate():
    times = sample_poisson_times(DeterministicRandom(5), rate_per_s=10.0, duration_s=100.0)
    assert len(times) == pytest.approx(10.0 * 100.0, rel=0.2)


# ------------------------------------------------------------------ scenarios
def test_iot_pipeline_ingest_and_derive(desktop_deployment):
    workload = IoTPipelineWorkload(
        HyperProvService(desktop_deployment).session(),
        sensor_count=2, camera_count=1,
        image_size_bytes=8 * 1024,
    )
    posts = workload.ingest_round()
    desktop_deployment.drain()
    assert len(posts) == 3
    assert all(p.handle.is_valid for p in posts)

    derived = workload.derive(PipelineStage(name="hourly-summary"))
    desktop_deployment.drain()
    assert derived.handle.is_valid
    assert sorted(derived.record.dependencies) == sorted(p.record.key for p in posts)

    lineage = desktop_deployment.client.get_lineage(derived.record.key)
    assert lineage.ancestor_count == 3

    checks = workload.verify_all()
    assert all(checks.values())
    assert len(workload.raw_posts) + len(workload.derived_posts) == 4


@pytest.mark.parametrize("knobs", [{"light_requests": 0}, {"skew": 0}])
def test_skewed_tenant_workload_rejects_empty_load(knobs):
    with pytest.raises(ConfigurationError):
        SkewedTenantWorkload(service=None, **knobs)


def test_iot_pipeline_derive_requires_sources(desktop_deployment):
    workload = IoTPipelineWorkload(
        HyperProvService(desktop_deployment).session(), sensor_count=1, camera_count=0
    )
    with pytest.raises(ValueError):
        workload.derive(PipelineStage(name="empty"), source_posts=[])
