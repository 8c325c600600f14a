"""Vectorized arrival sampling: same draws as the generator, plan invariants."""

import pytest

from repro.common.errors import ConfigurationError
from repro.simulation.randomness import DeterministicRandom
from repro.workloads.arrivals import (
    CHURN_OFFLINE_FRACTION,
    CohortArrivalPlan,
    PoissonSchedule,
    sample_poisson_times,
)


class TestSamplePoissonTimes:
    def test_matches_generator_draw_for_draw(self):
        generated = list(PoissonSchedule(5.0, 30.0, seed=11).arrival_times())
        sampled = PoissonSchedule(5.0, 30.0, seed=11).sample()
        assert sampled == generated

    def test_zero_rate_is_empty(self):
        assert sample_poisson_times(DeterministicRandom(1), 0.0, 10.0) == []

    def test_rejects_bad_parameters(self):
        rng = DeterministicRandom(1)
        with pytest.raises(ConfigurationError):
            sample_poisson_times(rng, -1.0, 10.0)
        with pytest.raises(ConfigurationError):
            sample_poisson_times(rng, 1.0, 0.0)

    def test_times_stay_inside_the_window(self):
        times = sample_poisson_times(DeterministicRandom(3), 2.0, 50.0, start_time_s=5.0)
        assert all(5.0 <= t < 55.0 for t in times)
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
        assert first.merged() == second.merged()

    def test_device_streams_independent_of_shard_count(self):
        # Streams fork by device index, never by shard layout, so resharding
        # a fleet cannot move any device's submission times.
        by_two = {s.device_index: s.times for s in self.make_plan(shards=2).schedules}
        by_four = {s.device_index: s.times for s in self.make_plan(shards=4).schedules}
        assert by_two == by_four

    def test_shard_slices_partition_the_fleet(self):
        plan = self.make_plan()
        seen = []
        for shard in range(plan.shards):
            for schedule in plan.for_shard(shard):
                assert schedule.device_index % plan.shards == shard
                seen.append(schedule.device_index)
        assert sorted(seen) == list(range(plan.devices))
        assert sum(plan.total_arrivals(s) for s in range(plan.shards)) == (
            plan.total_arrivals()
        )

    def test_churned_devices_have_a_silent_window(self):
        plan = self.make_plan()
        churned = [s for s in plan.schedules if s.offline_window is not None]
        assert churned, "churn_fraction=0.25 must churn some devices"
        for schedule in churned:
            leave, rejoin = schedule.offline_window
            assert 0.0 < leave < rejoin <= plan.duration_s
            assert not any(leave <= t < rejoin for t in schedule.times)

    def test_churn_window_is_a_fixed_share_of_the_run(self):
        plan = self.make_plan(churn_fraction=1.0)
        windows = [s.offline_window for s in plan.schedules]
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
        merged = plan.merged()
        assert merged == sorted(merged)
        assert merged, "plan should produce arrivals at these rates"
        assert merged[-1][0] <= plan.duration_s

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self.make_plan(devices=0)
        with pytest.raises(ConfigurationError):
            self.make_plan(churn_fraction=1.5)
