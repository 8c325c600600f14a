"""Rules C301–C304 against the fixture corpus."""

from __future__ import annotations

import ast
import shutil

import pytest

from repro.analysis.contracts import CONFIG_CLASSES, check_contracts
from repro.analysis.core import AnalysisContext

from .conftest import BADREPO, REPO_ROOT, pairs


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
    c304 = [
        f
        for f in check_contracts(bad_context)
        if f.rule == "C304" and f.path.endswith("middleware/config.py")
    ]
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
        f.line for f in findings if f.rule == "C304" and f.path.endswith("config.py")
    ) == [10, 13]  # window_ms lost its only non-test setter


def test_keyword_only_in_benchmark_tests_does_not_count_as_set(tmp_path):
    """Regression: a benchmark's own self-tests are tests, not setters."""
    root = tmp_path / "repo"
    shutil.copytree(BADREPO, root)
    shutil.rmtree(root / "examples")
    self_tests = root / "benchmarks" / "perf" / "tests"
    self_tests.mkdir(parents=True)
    (self_tests / "test_window.py").write_text(
        "from repro.middleware.config import PipelineConfig\n\n"
        "PipelineConfig(window_ms=1.0)\n",
        encoding="utf-8",
    )
    (root / "benchmarks" / "perf" / "run.py").write_text(
        "from repro.middleware.config import PipelineConfig\n\n"
        "PipelineConfig(fixed_knob=9)\n",
        encoding="utf-8",
    )
    findings = check_contracts(AnalysisContext.load(root))
    # window_ms is passed only under tests/ and fires; fixed_knob is
    # passed by the benchmark itself and is set.
    assert pairs(
        [f for f in findings if f.rule == "C304"], "middleware/config.py"
    ) == [("C304", 10)]


def test_registered_class_findings_exact(bad_context):
    findings = check_contracts(bad_context)
    assert pairs(findings, "consensus/batching.py") == [
        ("C301", 10),  # preferred_max_bytes: read by nothing
        ("C304", 9),  # batch_timeout_s: set only in its defining module
    ]
    # max_message_count is set by a dict-literal key in bench/sweeps.py.
    assert all("max_message_count" not in f.message for f in findings)
    by_line = {
        f.line: f for f in findings if f.path.endswith("consensus/batching.py")
    }
    assert "BatchConfig.preferred_max_bytes" in by_line[10].message
    assert "BatchConfig.batch_timeout_s" in by_line[9].message


@pytest.mark.parametrize(
    "module, class_name", sorted(CONFIG_CLASSES.items()), ids=lambda v: v
)
def test_registered_class_is_a_dataclass_in_its_module(module, class_name):
    """A registry row naming a moved or renamed class would check nothing."""
    tree = ast.parse((REPO_ROOT / module).read_text(encoding="utf-8"))
    defined = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == class_name
    ]
    assert len(defined) == 1, f"{class_name} is not defined in {module}"
    decorators = [ast.unparse(d) for d in defined[0].decorator_list]
    assert any(d.startswith("dataclass") for d in decorators)
    assert any(isinstance(node, ast.AnnAssign) for node in defined[0].body)


def test_every_config_class_is_registered():
    """A ``@dataclass`` named like a config class but missing from the
    registry escapes C301/C304: its unset fields would go unreported."""
    unregistered = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        module = path.relative_to(REPO_ROOT).as_posix()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (
                isinstance(node, ast.ClassDef)
                and node.name.endswith(("Config", "Spec", "Policy"))
                and any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list)
                and CONFIG_CLASSES.get(module) != node.name
            ):
                unregistered.append(f"{module}::{node.name}")
    assert unregistered == []


def test_dict_key_under_benchmarks_counts_as_set(tmp_path):
    root = tmp_path / "repo"
    shutil.copytree(BADREPO, root)
    (root / "benchmarks").mkdir()
    (root / "benchmarks" / "sweep.py").write_text(
        'ROWS = [{"fixed_knob": 1}, {"fixed_knob": 9}]\n', encoding="utf-8"
    )
    findings = check_contracts(AnalysisContext.load(root))
    assert pairs(
        [f for f in findings if f.rule == "C304"], "middleware/config.py"
    ) == []


def test_keyword_only_in_example_tests_does_not_count_as_set(tmp_path):
    root = tmp_path / "repo"
    shutil.copytree(BADREPO, root)
    example = root / "examples" / "tune_window.py"
    self_tests = root / "examples" / "tests"
    self_tests.mkdir()
    example.rename(self_tests / "test_tune_window.py")
    findings = check_contracts(AnalysisContext.load(root))
    # window_ms's only setter now sits in a tests directory.
    assert pairs(
        [f for f in findings if f.rule == "C304"], "middleware/config.py"
    ) == [("C304", 10), ("C304", 13)]


def test_setter_in_another_source_module_counts_as_set(tmp_path):
    root = tmp_path / "repo"
    shutil.copytree(BADREPO, root)
    (root / "src" / "repro" / "bench" / "quick.py").write_text(
        "from repro.consensus.batching import BatchConfig\n\n"
        "QUICK = BatchConfig(batch_timeout_s=0.5)\n",
        encoding="utf-8",
    )
    findings = check_contracts(AnalysisContext.load(root))
    # The same keyword that its defining module passes does count here.
    assert pairs(findings, "consensus/batching.py") == [("C301", 10)]


def test_docs_table_check_covers_pipeline_config_only(bad_context):
    # No registered class but PipelineConfig is held to the docs table.
    assert all(
        f.path.endswith("middleware/config.py")
        for f in check_contracts(bad_context)
        if f.rule == "C302"
    )


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
