"""The property-test profiles registered in ``tests/conftest.py``."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st


def _draws(profile: str) -> list:
    drawn = []

    @settings(settings.get_profile(profile), max_examples=20)
    @given(st.integers())
    def probe(value):
        drawn.append(value)

    probe()
    return drawn


def test_tier1_draws_the_same_examples_on_every_run():
    assert settings.get_profile("tier1").derandomize
    assert _draws("tier1") == _draws("tier1")


def test_deep_draws_fresh_examples_ten_times_the_default_budget():
    deep = settings.get_profile("deep")
    assert not deep.derandomize
    assert deep.max_examples == 10 * settings.get_profile("default").max_examples
