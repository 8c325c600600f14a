"""Fleet sites: the replicas each site hosts, the replica a partition
window cuts off, and what every metadata post declares."""

from dataclasses import replace

from repro.workloads.fleet import (
    PAYLOAD_SIZE_BYTES,
    PEERS_PER_SITE,
    FleetSpec,
    build_fleet,
    site_orderer_name,
    site_peer_name,
    submit_fleet,
)

SPEC = FleetSpec(devices=6, shards=2, rate_per_device_s=0.5, duration_s=10.0, seed=7)


def test_every_site_hosts_an_anchor_and_a_partitionable_replica():
    deployment = build_fleet(SPEC)
    assert sorted(deployment.shard_of_site) == [0, 1]
    for site, index in deployment.shard_of_site.items():
        shard = deployment.fabric.shard(index)
        assert [peer.name for peer in shard.ordered_peers] == [
            site_peer_name(site, replica) for replica in range(PEERS_PER_SITE)
        ]


def test_partition_window_cuts_off_each_sites_last_replica_until_the_heal():
    deployment = build_fleet(replace(SPEC, partition_windows=((2.0, 4.0),)))
    partitions = deployment.network.partitions
    reach = {}

    def probe():
        for site in deployment.sites:
            orderer = site_orderer_name(site)
            reach[site] = [
                partitions.can_communicate(site_peer_name(site, replica), orderer)
                for replica in range(PEERS_PER_SITE)
            ]

    deployment.engine.schedule_at(3.0, probe, label="test:probe")
    assert submit_fleet(deployment) > 0
    deployment.drain()

    assert reach == {site: [True, False] for site in deployment.sites}
    assert not partitions.is_partitioned
    for index in deployment.shard_of_site.values():
        # The cut-off replica caught up from the ordered-block log.
        assert len(set(deployment.fabric.shard_ledger_heights(index).values())) == 1


def test_every_post_declares_the_fleet_payload_size():
    deployment = build_fleet(SPEC)
    posts = submit_fleet(deployment)
    deployment.drain()
    committed = [
        tx
        for index in deployment.shard_of_site.values()
        for peer in deployment.fabric.shard(index).ordered_peers[:1]
        for number in range(peer.ledger_height)
        for tx in peer.block_store.block(number).transactions
    ]
    assert len(committed) == posts > 0
    assert {tx.args[-1] for tx in committed} == {str(PAYLOAD_SIZE_BYTES)}
