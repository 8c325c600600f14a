"""Tests for simulated resources and deterministic randomness."""

import pytest

from repro.common.errors import SimulationError
from repro.simulation.randomness import DeterministicRandom
from repro.simulation.resources import SimResource, interval_overlap


# ------------------------------------------------------------------- resources
def test_reservation_starts_at_requested_time_when_free():
    resource = SimResource("cpu")
    reservation = resource.reserve(5.0, 2.0)
    assert reservation.start == 5.0
    assert reservation.end == 7.0


def test_back_to_back_reservations_queue_fifo():
    resource = SimResource("cpu")
    first = resource.reserve(0.0, 2.0)
    second = resource.reserve(1.0, 2.0)
    assert first.end == 2.0
    assert second.start == 2.0
    assert second.end == 4.0


def test_multi_slot_resource_runs_in_parallel():
    resource = SimResource("cpu", concurrency=2)
    first = resource.reserve(0.0, 2.0)
    second = resource.reserve(0.0, 2.0)
    third = resource.reserve(0.0, 2.0)
    assert first.start == 0.0 and second.start == 0.0
    assert third.start == 2.0


def test_negative_duration_rejected():
    with pytest.raises(SimulationError):
        SimResource("cpu").reserve(0.0, -1.0)


def test_zero_concurrency_rejected():
    with pytest.raises(SimulationError):
        SimResource("cpu", concurrency=0)


def test_interval_overlap():
    assert interval_overlap((0, 2), (1, 3)) == 1
    assert interval_overlap((0, 1), (2, 3)) == 0
    assert interval_overlap((0, 10), (2, 4)) == 2
    assert interval_overlap((2, 4), (0, 10)) == 2
    assert interval_overlap((0.0, 1.0), (1.0, 2.0)) == 0.0  # touching, not overlapping


def test_interval_overlap_equals_the_max_min_form():
    """Bit for bit: a meter's per-sample power is a sum of these."""
    rng = DeterministicRandom(11)
    for _ in range(500):
        a = sorted((rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)))
        b = sorted((rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)))
        expected = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
        assert interval_overlap(tuple(a), tuple(b)) == expected


# ------------------------------------------------------------------ randomness
def test_same_seed_same_sequence():
    a = DeterministicRandom(7)
    b = DeterministicRandom(7)
    assert [a.uniform(0, 1) for _ in range(5)] == [b.uniform(0, 1) for _ in range(5)]


def test_fork_is_deterministic_across_instances():
    a = DeterministicRandom(7).fork("network")
    b = DeterministicRandom(7).fork("network")
    assert a.random() == b.random()


def test_fork_differs_by_label():
    base = DeterministicRandom(7)
    assert base.fork("a").seed != base.fork("b").seed


def test_gaussian_jitter_never_negative():
    rng = DeterministicRandom(1)
    values = [rng.gaussian_jitter(0.001, stddev_fraction=2.0) for _ in range(200)]
    assert all(v >= 0.0 for v in values)


def test_gaussian_jitter_zero_mean_returns_zero():
    assert DeterministicRandom(1).gaussian_jitter(0.0) == 0.0


def test_exponential_mean_roughly_matches():
    rng = DeterministicRandom(3)
    samples = [rng.exponential(2.0) for _ in range(2000)]
    assert sum(samples) / len(samples) == pytest.approx(2.0, rel=0.15)


def test_bytes_returns_requested_length():
    assert len(DeterministicRandom(1).bytes(1000)) == 1000
