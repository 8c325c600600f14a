"""Generators: reproducible per seed, and conflict-free by construction."""

import workloads


def _streams(seed):
    keys = workloads.tenant_keys(64)
    return (
        list(workloads.ingest_ops(seed, 600)),
        list(workloads.read_ops(seed, 300, sorted(keys))),
        list(workloads.tenant_ops(seed, 600, keys)),
        list(workloads.tenant_preload(seed, keys[:8])),
    )


def test_equal_seeds_give_identical_inputs():
    assert _streams(7) == _streams(7)


def test_different_seeds_give_different_inputs():
    for first, second in zip(_streams(7), _streams(8)):
        assert first != second


def test_ingest_never_touches_a_recently_written_key():
    last_write = {}
    last_read = {}
    updates = dependencies = 0
    for index, write in enumerate(workloads.ingest_ops(3, 4000)):
        horizon = index - workloads.CONFLICT_WINDOW
        if write.key in last_write:
            updates += 1
            assert last_write[write.key] <= horizon
            assert last_read.get(write.key, -1) <= horizon
        for dependency in write.dependencies:
            dependencies += 1
            assert last_write[dependency] <= horizon
            last_read[dependency] = index
        last_write[write.key] = index
    assert 0.15 < updates / 4000 < 0.25
    assert 0.40 < dependencies / 4000 < 0.55


def test_tenant_writes_are_unique_within_a_drain_window():
    keys = workloads.tenant_keys(40)
    window = set()
    kinds = {}
    for index, op in enumerate(workloads.tenant_ops(5, 6400, keys)):
        if index % workloads.DRAIN_EVERY == 0:
            window.clear()
        assert op[1] == index % workloads.TENANTS
        kinds[op[0]] = kinds.get(op[0], 0) + 1
        if op[0] == "submit":
            target = (op[1], op[2].key)
            assert target not in window
            window.add(target)
            assert len(op[2].data) == workloads.TENANT_PAYLOAD_BYTES
    assert set(kinds) == {"submit", "get", "verify", "history", "query"}
    assert 0.12 < kinds["submit"] / 6400 <= 0.21
