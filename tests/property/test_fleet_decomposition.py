"""Property: running a fleet's sites apart changes no site's commit log.

The parallel executor is sound because fleet sites share nothing — no
link, peer, RNG stream or transaction-id namespace.  For small random
fleets the per-site runs (``run_fleet_parallel(spec, workers=1)``: one
engine per site, in this process, so the case is fast and shrinks) must
produce exactly the commit logs of the one-engine run, through churn,
partition windows and batched and per-post blocks.

Their metrics agree too.  A peer or orderer serves one site, so its
series are the same in both runs, bit for bit.  The one engine's fabric
and network registries serve every site at once: their series hold the
per-site series added up (counts exactly, sums to rounding, since the
additions interleave), with a site's shard numbered 0 when it runs alone.
"""

import math

from hypothesis import given, strategies as st

from repro.consensus.batching import BatchConfig
from repro.simulation.parallel import run_fleet_parallel, run_fleet_sequential
from repro.workloads.fleet import FleetSpec
from tests.internals import metric_series
from tests.property_budgets import budget

DURATION_S = 40.0


@st.composite
def partition_windows(draw):
    """Zero to two sorted, non-overlapping ``(start, end)`` windows."""
    count = draw(st.integers(min_value=0, max_value=2))
    edges = draw(
        st.lists(
            st.integers(min_value=1, max_value=int(DURATION_S) - 1),
            min_size=2 * count, max_size=2 * count, unique=True,
        )
    )
    edges.sort()
    return tuple((float(edges[i]), float(edges[i + 1])) for i in range(0, len(edges), 2))


fleet_specs = st.builds(
    FleetSpec,
    devices=st.integers(min_value=8, max_value=40),
    shards=st.integers(min_value=1, max_value=4),
    rate_per_device_s=st.just(0.05),
    duration_s=st.just(DURATION_S),
    seed=st.integers(min_value=0, max_value=2**16),
    churn_fraction=st.sampled_from([0.0, 0.3]),
    partition_windows=partition_windows(),
    batch_config=st.sampled_from([1, 10]).map(
        lambda count: BatchConfig(max_message_count=count)
    ),
)


def values(series):
    """A counter's value, or a histogram's count, sum and maximum."""
    if hasattr(series, "value"):
        return (series.value,)
    return (series.count, series.total, series.maximum)


def site_series(result):
    """Each peer and orderer series: (registry labels, name, own labels) -> values."""
    return {
        (tuple(registry.labels.items()), name, own): values(series)
        for registry in result.registries()
        if registry.labels["component"] in ("peer", "orderer")
        for name, own, series in metric_series(registry)
    }


def shared_totals(result):
    """The fabric and network series added up over sites and shards."""
    totals = {}
    for registry in result.registries():
        if registry.labels["component"] not in ("fabric", "network"):
            continue
        for name, own, series in metric_series(registry):
            key = (registry.labels["component"], name, tuple(p for p in own if p[0] != "shard"))
            total = totals.setdefault(key, [0, 0.0, 0.0])
            if hasattr(series, "value"):
                total[0] += series.value
            else:
                total[0] += series.count
                total[1] += series.total
                total[2] = max(total[2], series.maximum)
    return totals


@budget
@given(fleet_specs)
def test_per_site_runs_equal_the_one_engine_run(spec):
    sequential = run_fleet_sequential(spec)
    apart = run_fleet_parallel(spec, workers=1)
    assert apart.mode == "parallel-inline"
    assert apart.lines_by_site == sequential.lines_by_site
    assert apart.counts_by_site == sequential.counts_by_site
    assert apart.submitted == sequential.submitted
    assert site_series(apart) == site_series(sequential)
    alone, together = shared_totals(apart), shared_totals(sequential)
    assert alone.keys() == together.keys()
    for key, (count, total, maximum) in together.items():
        assert alone[key][0] == count and alone[key][2] == maximum, key
        assert math.isclose(alone[key][1], total, rel_tol=1e-9, abs_tol=1e-12), key
