"""Rules C301–C304 against the fixture corpus."""

from __future__ import annotations

import shutil

from repro.analysis.contracts import check_contracts
from repro.analysis.core import AnalysisContext

from .conftest import BADREPO, pairs


def test_config_knob_findings_exact(bad_context):
    findings = check_contracts(bad_context)
    assert pairs(findings, "middleware/config.py") == [
        ("C301", 11),  # dead_knob: documented, consumed nowhere
        ("C302", 10),  # window_ms: consumed, missing from the docs table
        ("C304", 13),  # fixed_knob: consumed and documented, set by no call
    ]


def test_consumed_documented_knob_is_clean(bad_context):
    findings = check_contracts(bad_context)
    # batch_size (line 9) is read by BatchingMiddleware and documented.
    assert all(
        f.line != 9 for f in findings if f.path.endswith("middleware/config.py")
    )


def test_classvar_is_not_a_knob(bad_context):
    findings = check_contracts(bad_context)
    assert all(
        "SCHEMA_VERSION" not in f.message
        for f in findings
        if f.path.endswith("middleware/config.py")
    )


def test_finding_messages_name_the_knob(bad_context):
    findings = check_contracts(bad_context)
    by_line = {
        f.line: f for f in findings if f.path.endswith("middleware/config.py")
    }
    assert "window_ms" in by_line[10].message
    assert "dead_knob" in by_line[11].message


def test_never_set_knob_fires_c304_once(bad_context):
    c304 = [f for f in check_contracts(bad_context) if f.rule == "C304"]
    # batch_size is passed by keyword under src/, window_ms only under
    # examples/; dead_knob is unconsumed, which is C301's finding alone.
    assert [f.line for f in c304] == [13]
    assert "fixed_knob" in c304[0].message
    assert "make it a constant" in c304[0].message


def test_keyword_only_in_tests_does_not_count_as_set(tmp_path):
    root = tmp_path / "repo"
    shutil.copytree(BADREPO, root)
    shutil.rmtree(root / "examples")
    (root / "tests").mkdir()
    (root / "tests" / "test_window.py").write_text(
        "from repro.middleware.config import PipelineConfig\n\n"
        "PipelineConfig(window_ms=1.0, fixed_knob=9)\n",
        encoding="utf-8",
    )
    findings = check_contracts(AnalysisContext.load(root))
    assert sorted(
        f.line for f in findings if f.rule == "C304"
    ) == [10, 13]  # window_ms lost its only non-test setter


def test_swallowing_middleware_fires_c303(bad_context):
    findings = check_contracts(bad_context)
    assert pairs(findings, "middleware/stages.py") == [("C303", 23)]
    finding = next(
        f for f in findings if f.path.endswith("middleware/stages.py")
    )
    assert "SwallowMiddleware" in finding.message
    assert finding.symbol == "SwallowMiddleware.handle"


def test_storing_call_next_counts_as_forwarding(bad_context):
    # BatchingMiddleware.handle (line 16) stores call_next for a deferred
    # flush and must not fire.
    findings = check_contracts(bad_context)
    assert all(
        "BatchingMiddleware" not in f.message
        for f in findings
        if f.rule == "C303"
    )


def test_terminal_pragma_suppresses_c303(bad_context):
    findings = check_contracts(bad_context)
    assert all(
        "AuditSink" not in f.message for f in findings if f.rule == "C303"
    )
