"""One measured run per table, at the claims' load, shared by the claim, CLI
and export tests."""

from dataclasses import replace

import pytest

from repro.bench.cli import SEED
from repro.bench.experiments import CLAIMS_LOAD, EXPERIMENTS, command_of, measure


@pytest.fixture(scope="session")
def measured():
    """``measured(key)``: the rows of table ``key`` at the claims' load, measured once."""
    cache = {}

    def rows(key):
        if key not in cache:
            # Every table of the command at once: ``ops`` and ``ops/stages`` share a run.
            keys = [other for other in EXPERIMENTS if command_of(other) == command_of(key)]
            cache.update(measure(EXPERIMENTS, keys, CLAIMS_LOAD, SEED))
        return cache[key]

    return rows


@pytest.fixture(scope="session")
def cached_tables(measured):
    """:data:`EXPERIMENTS` with every table's rows served by ``measured``."""
    return {
        key: replace(table, rows=lambda requests, seed, key=key: measured(key))
        for key, table in EXPERIMENTS.items()
    }
