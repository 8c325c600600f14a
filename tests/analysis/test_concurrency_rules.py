"""Rule T402 against the fixture corpus."""

from __future__ import annotations

from repro.analysis.concurrency import check_concurrency

from .conftest import pairs


def test_eventbus_mutation_outside_safe_api(bad_context):
    findings = check_concurrency(bad_context)
    assert pairs(findings, "common/busimpl.py") == [("T402", 13)]
    finding = next(f for f in findings if f.path.endswith("common/busimpl.py"))
    assert "unsubscribe" in finding.message


def test_external_bus_reach_in(bad_context):
    findings = check_concurrency(bad_context)
    assert pairs(findings, "devices/reaches.py") == [("T402", 5)]
    # `registry._handlers.pop(...)` (line 9) is not bus-named: ignored.
    assert all(
        f.line != 9 for f in findings if f.path.endswith("devices/reaches.py")
    )


def test_safe_eventbus_methods_are_clean(bad_context):
    # subscribe (line 10), publish iteration (line 16), and the compactor
    # (line 20) must not fire.
    findings = [
        f
        for f in check_concurrency(bad_context)
        if f.path.endswith("common/busimpl.py")
    ]
    assert [f.line for f in findings] == [13]
