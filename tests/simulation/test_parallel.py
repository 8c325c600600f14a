"""Determinism and failure-path tests for the parallel fleet executor.

The load-bearing property (ISSUE satellite): sequential and parallel
executors produce **identical virtual-time commit logs** — same tx ids,
same submit/commit timestamps, same validation codes and block numbers —
for the same spec, with churn and a partition window enabled.
"""

import multiprocessing
import os
import re
import time

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.consensus.batching import BatchConfig
from repro.simulation.parallel import (
    ShardRunStats,
    _assign_sites,
    run_fleet_parallel,
    run_fleet_sequential,
)
from repro.workloads import fleet
from repro.workloads.fleet import FleetSpec
from tests.internals import device_schedules


def property_spec(**overrides) -> FleetSpec:
    """A small fleet with churn and a partition window — fast but adversarial."""
    base = dict(
        devices=60,
        shards=2,
        rate_per_device_s=0.05,
        duration_s=60.0,
        seed=7,
        churn_fraction=0.2,
        partition_windows=((20.0, 35.0),),
    )
    base.update(overrides)
    return FleetSpec(**base)


class TestDeterminism:
    @pytest.mark.parametrize("max_message_count", [1, 10])
    def test_sequential_vs_parallel_commit_logs_identical(self, max_message_count):
        spec = property_spec(
            batch_config=BatchConfig(max_message_count=max_message_count)
        )
        sequential = run_fleet_sequential(spec)
        parallel = run_fleet_parallel(spec, workers=2)
        assert sequential.committed > 0
        assert parallel.mode == "parallel"
        # Full logs, not just digests: a mismatch then shows *which* line.
        assert parallel.lines_by_site == sequential.lines_by_site
        assert parallel.anchor == sequential.anchor
        assert parallel.counts_by_site == sequential.counts_by_site
        assert parallel.submitted == sequential.submitted

    def test_inline_windowed_executor_matches_sequential(self):
        spec = property_spec()
        sequential = run_fleet_sequential(spec)
        inline = run_fleet_parallel(spec, workers=1)
        assert inline.mode == "parallel-inline"
        assert inline.lines_by_site == sequential.lines_by_site
        assert inline.anchor == sequential.anchor

    def test_churn_and_partition_visible_in_run(self):
        spec = property_spec()
        plan = spec.arrival_plan()
        churned = [s for s in device_schedules(plan) if s.offline_window is not None]
        assert churned, "property spec must exercise churn"
        result = run_fleet_sequential(spec)
        assert result.committed > 0


class TestBarrierProtocol:
    """The join is the only barrier left: assignment, validation, its cost."""

    def test_workers_validated(self):
        with pytest.raises(ConfigurationError):
            run_fleet_parallel(property_spec(), workers=0)

    def test_assign_sites_round_robin(self):
        spec = property_spec(devices=60, shards=4)
        assert _assign_sites(spec, 2) == [[0, 2], [1, 3]]
        assert _assign_sites(spec, 4) == [[0], [1], [2], [3]]
        # More workers than shards clamps to one site per worker.
        assert _assign_sites(spec, 9) == [[0], [1], [2], [3]]

    def test_shard_stats_accounting(self):
        """More shards than workers: full logs equal, one stats row per worker."""
        spec = property_spec(shards=3)
        sequential = run_fleet_sequential(spec)
        result = run_fleet_parallel(spec, workers=2)
        assert result.mode == "parallel" and result.workers == 2
        assert result.lines_by_site == sequential.lines_by_site
        assert result.counts_by_site == sequential.counts_by_site
        assert result.submitted == sequential.submitted
        assert [s.sites for s in result.shard_stats] == [[0, 2], [1]]
        for stats in result.shard_stats:
            assert stats.busy_wall_s > 0
            assert stats.barrier_stall_s >= 0
            assert 0.0 < stats.utilization <= 1.0
        slowest = max(result.shard_stats, key=lambda s: s.busy_wall_s)
        assert slowest.barrier_stall_s == 0.0
        assert all(s.events > 0 for s in result.shard_stats)

    def test_utilization_math(self):
        stats = ShardRunStats(worker=0, sites=[0], busy_wall_s=3.0, barrier_stall_s=1.0)
        assert stats.utilization == pytest.approx(0.75)
        assert ShardRunStats(worker=0, sites=[0]).utilization == 0.0


class TestWorkerFailure:
    """A worker that dies or raises fails the run with a typed error, promptly.

    ``run_fleet_parallel`` forks, so the children inherit the patched
    ``build_fleet`` (resolved at call time inside the worker).
    """

    @staticmethod
    def fail_site_one(monkeypatch, failure):
        real = fleet.build_fleet

        def build(spec, sites=None):
            if list(sites) == [1]:
                failure()
            return real(spec, sites)

        monkeypatch.setattr(fleet, "build_fleet", build)

    @staticmethod
    def run_and_time():
        begin = time.monotonic()
        with pytest.raises(SimulationError) as caught:
            run_fleet_parallel(property_spec(), workers=2)
        assert time.monotonic() - begin < 5.0
        assert multiprocessing.active_children() == []
        return str(caught.value)

    def test_killed_worker_is_a_typed_prompt_error(self, monkeypatch):
        self.fail_site_one(monkeypatch, lambda: os._exit(3))
        message = self.run_and_time()
        assert "fleet worker 1 (sites [1]) died without reporting a result" in message

    def test_raising_worker_is_a_typed_prompt_error(self, monkeypatch):
        def boom():
            raise ValueError("boom")

        self.fail_site_one(monkeypatch, boom)
        message = self.run_and_time()
        assert "fleet worker 1 (sites [1]) failed" in message
        assert "Traceback" in message and "ValueError: boom" in message


class TestFleetExport:
    """Each site's series come home in its worker's result, labelled by site."""

    @pytest.fixture(scope="class")
    def runs(self):
        # Three sites on two workers: one worker runs two sites in turn.
        spec = property_spec(shards=3)
        return (
            run_fleet_parallel(spec, workers=1),
            run_fleet_parallel(spec, workers=2),
            run_fleet_sequential(spec),
        )

    def test_in_process_and_forked_exports_are_byte_identical(self, runs):
        inline, forked, _ = runs
        assert inline.mode == "parallel-inline" and forked.mode == "parallel"
        assert forked.exposition() == inline.exposition()

    def test_every_series_of_a_parallel_run_names_one_site(self, runs):
        _, forked, _ = runs
        samples = [line for line in forked.exposition().splitlines() if not line.startswith("#")]
        sites = {re.search(r'site="([^"]*)"', line).group(1) for line in samples}
        assert sites == {"0", "1", "2"}
        # Every site reports its blocks, commits and traffic.
        for site in sites:
            for family in ("hyperprov_block_size_txs_count", "hyperprov_txs", "hyperprov_bytes"):
                assert any(
                    line.startswith(family + "{") and f'site="{site}"' in line
                    for line in samples
                ), (family, site)

    def test_one_engine_labels_its_shared_registries_with_every_site(self, runs):
        _, _, sequential = runs
        labels = {
            registry.labels["component"]: registry.labels["site"]
            for registry in sequential.registries()
            if registry.labels["component"] in ("fabric", "network")
        }
        assert labels == {"fabric": "0,1,2", "network": "0,1,2"}
        # A peer or orderer serves one site and names it.
        for registry in sequential.registries():
            if registry.labels["component"] in ("peer", "orderer"):
                name = registry.labels.get("peer") or registry.labels["orderer"]
                assert name.startswith(f"s{registry.labels['site']}-")
