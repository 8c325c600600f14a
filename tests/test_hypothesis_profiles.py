"""The property-test profiles registered in ``tests/conftest.py``."""

from __future__ import annotations

import ast

from hypothesis import given, settings, strategies as st

from tests.property_budgets import BUDGETS, DEEP_FACTOR, NO_DEADLINE, budget
from tests.source_tree import REPO, parse


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


# ------------------------------------------------------------ budget table
def _property_tests():
    """``(path:line, name, decorator sources)`` of every ``@given`` test under ``tests/``."""
    for path in sorted(REPO.joinpath("tests").rglob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.FunctionDef):
                decorators = [ast.unparse(d) for d in node.decorator_list]
                # ``probe`` (above) draws under a profile it names, on purpose.
                if any(d.startswith("given(") for d in decorators) and node.name != "probe":
                    yield f"{path.relative_to(REPO)}:{node.lineno}", node.name, decorators


def test_every_property_test_takes_its_budget_from_the_table():
    tests = list(_property_tests())
    names = [name for _where, name, _decorators in tests]
    unbudgeted = [
        where for where, name, decorators in tests
        if "budget" not in decorators or name not in BUDGETS
        or any(d.startswith("settings(") for d in decorators)
    ]
    assert unbudgeted == []
    assert len(names) == len(set(names))  # a row names one test
    assert sorted(BUDGETS) == sorted(names)  # and no row outlives its test
    assert NO_DEADLINE <= set(BUDGETS)


def _drawn_under(profile: str, name: str) -> int:
    """How many examples a test named ``name`` draws under ``profile``."""
    drawn = []

    def test(value):
        drawn.append(value)

    test.__name__ = name
    current = settings.get_current_profile_name()
    settings.load_profile(profile)
    try:
        budget(given(st.integers())(test))()
    finally:
        settings.load_profile(current)
    return len(drawn)


def test_deep_draws_ten_times_a_tests_tier1_budget():
    assert DEEP_FACTOR == 10
    name = min(BUDGETS, key=BUDGETS.__getitem__)
    assert _drawn_under("tier1", name) == BUDGETS[name]
    assert _drawn_under("deep", name) == 10 * BUDGETS[name]
