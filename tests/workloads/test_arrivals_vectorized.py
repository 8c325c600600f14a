"""Vectorized arrival sampling and the fleet plan's invariants."""

import pytest

from repro.common.errors import ConfigurationError
from repro.simulation.randomness import DeterministicRandom
from repro.workloads.arrivals import (
    CHURN_OFFLINE_FRACTION,
    CohortArrivalPlan,
    sample_poisson_times,
)
from tests.internals import device_schedules


class TestSamplePoissonTimes:
    def test_fig3_timeline_is_pinned(self):
        # Fig. 3's medium-load interval: 0.5 arrivals/s for 600 s at seed 42.
        times = sample_poisson_times(DeterministicRandom(42), 0.5, 600.0)
        assert len(times) == 282
        assert times[:3] == [2.040120574549602, 2.0907782526350798, 2.7340263807850107]
        assert times[-1] == 599.1926920593339

    def test_zero_rate_is_empty(self):
        assert sample_poisson_times(DeterministicRandom(1), 0.0, 10.0) == []

    def test_rejects_bad_parameters(self):
        rng = DeterministicRandom(1)
        with pytest.raises(ConfigurationError):
            sample_poisson_times(rng, -1.0, 10.0)
        with pytest.raises(ConfigurationError):
            sample_poisson_times(rng, 1.0, 0.0)

    def test_times_stay_inside_the_window(self):
        times = sample_poisson_times(DeterministicRandom(3), 2.0, 50.0)
        assert all(0.0 < t < 50.0 for t in times)
        assert times == sorted(times)


class TestCohortArrivalPlan:
    def make_plan(self, **overrides) -> CohortArrivalPlan:
        base = dict(
            devices=40, shards=4, rate_per_device_s=0.1,
            duration_s=50.0, seed=9, churn_fraction=0.25,
        )
        base.update(overrides)
        return CohortArrivalPlan(**base)

    def test_deterministic_across_constructions(self):
        first = self.make_plan()
        second = self.make_plan()
        assert first.merged(range(4)) == second.merged(range(4))

    def test_device_streams_independent_of_shard_count(self):
        # Streams fork by device index, never by shard layout, so resharding
        # a fleet cannot move any device's submission times.
        by_two = {s.device_index: s.times for s in device_schedules(self.make_plan(shards=2))}
        by_four = {s.device_index: s.times for s in device_schedules(self.make_plan(shards=4))}
        assert by_two == by_four

    def test_devices_are_homed_round_robin(self):
        plan = self.make_plan()
        assert [s.device_index for s in device_schedules(plan)] == list(range(plan.devices))
        assert all(s.shard == s.device_index % plan.shards for s in device_schedules(plan))

    def test_churned_devices_have_a_silent_window(self):
        plan = self.make_plan()
        churned = [s for s in device_schedules(plan) if s.offline_window is not None]
        assert churned, "churn_fraction=0.25 must churn some devices"
        for schedule in churned:
            leave, rejoin = schedule.offline_window
            assert 0.0 < leave < rejoin <= plan.duration_s
            assert not any(leave <= t < rejoin for t in schedule.times)

    def test_without_churn_every_device_keeps_its_whole_timeline(self):
        calm = self.make_plan(churn_fraction=0.0)
        churned = self.make_plan(churn_fraction=1.0)
        assert all(s.offline_window is None for s in device_schedules(calm))
        for quiet, cut in zip(device_schedules(calm), device_schedules(churned)):
            # Churn only cuts a window out of the device's own stream.
            assert set(cut.times) <= set(quiet.times)

    def test_churn_window_is_a_fixed_share_of_the_run(self):
        plan = self.make_plan(churn_fraction=1.0)
        windows = [s.offline_window for s in device_schedules(plan)]
        assert all(window is not None for window in windows)
        for leave, rejoin in windows:
            assert rejoin - leave == pytest.approx(
                plan.duration_s * CHURN_OFFLINE_FRACTION
            )
            assert 0.1 * plan.duration_s <= leave
            assert rejoin <= 0.9 * plan.duration_s + 1e-9
        # Jittered per device, so the fleet does not churn in lockstep.
        assert len({leave for leave, _ in windows}) == plan.devices

    def test_merged_is_sorted_and_horizon_bounds_it(self):
        plan = self.make_plan()
        merged = plan.merged(range(plan.shards))
        assert merged == sorted(merged)
        assert merged, "plan should produce arrivals at these rates"
        assert merged[-1][0] <= plan.duration_s

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self.make_plan(devices=0)
        with pytest.raises(ConfigurationError):
            self.make_plan(churn_fraction=1.5)

    def test_one_sites_merge_is_its_slice_of_the_fleets_merge(self):
        plan = self.make_plan()
        fleet = plan.merged(range(plan.shards))
        for site in range(plan.shards):
            alone = plan.merged([site])
            assert alone == [pair for pair in fleet if pair[1] % plan.shards == site]
