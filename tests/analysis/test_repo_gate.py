"""The gate against the real tree: the repo must analyze clean, and an
injected wall-clock read into a copy of a core module must trip the gate
(the analyzer's smoke test against silent no-op regression)."""

from __future__ import annotations

import ast
import importlib.util
import shutil
import subprocess
import sys

import pytest

from repro.analysis.cli import main, run_analysis

from .conftest import REPO_ROOT


def test_repo_tree_analyzes_clean():
    assert run_analysis(REPO_ROOT) == []


def test_check_gate_passes_on_repo(capsys):
    assert main(["--root", str(REPO_ROOT)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "0 finding(s)" in captured.err


def _copy_core_module(tmp_path):
    target = tmp_path / "src" / "repro" / "simulation"
    target.mkdir(parents=True)
    shutil.copy(
        REPO_ROOT / "src" / "repro" / "simulation" / "engine.py",
        target / "engine.py",
    )
    return target / "engine.py"


def test_clean_core_module_copy_passes(tmp_path):
    _copy_core_module(tmp_path)
    assert main(["--root", str(tmp_path)]) == 0


def test_gate_trips_on_injected_wallclock(tmp_path, capsys):
    engine = _copy_core_module(tmp_path)
    with engine.open("a", encoding="utf-8") as handle:
        handle.write(
            "\n\ndef _injected_leak():\n"
            "    import time\n\n"
            "    return time.time()\n"
        )
    code = main(["--root", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "D101" in captured.out
    assert "_injected_leak" in captured.out


def test_parallel_has_no_toplevel_workloads_import():
    """Regression: simulation/parallel.py defers its workloads imports
    (TYPE_CHECKING + function level) to respect simulation -> common."""
    source = (
        REPO_ROOT / "src" / "repro" / "simulation" / "parallel.py"
    ).read_text(encoding="utf-8")
    tree = ast.parse(source)
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            assert not (node.module or "").startswith("repro.workloads")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert not alias.name.startswith("repro.workloads")


def test_parallel_wallclock_goes_through_helper():
    """Regression: the only host-clock read is the single audited
    `_wall_clock()` helper carrying the allow-wallclock pragma."""
    source = (
        REPO_ROOT / "src" / "repro" / "simulation" / "parallel.py"
    ).read_text(encoding="utf-8")
    assert source.count("time.perf_counter()") == 1
    assert "# repro: allow-wallclock" in source


@pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None, reason="mypy not installed"
)
def test_mypy_strict_scope_passes():
    result = subprocess.run(
        [sys.executable, "-m", "mypy"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
