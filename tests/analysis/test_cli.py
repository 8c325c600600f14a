"""CLI modes: report/check/update-baseline/rules/format, plus the
end-to-end fixture finding set."""

from __future__ import annotations

import json
import shutil

from repro.analysis.cli import main, run_analysis

from .conftest import BADREPO

#: Every finding the fixture corpus must produce, as (rule, path-suffix,
#: line).  This is the single source of truth the CLI tests check against.
EXPECTED = [
    ("A201", "common/reachup.py", 5),
    ("A202", "network/cyc_b.py", 1),
    ("A203", "ledger/benchhook.py", 3),
    ("C301", "middleware/config.py", 11),
    ("C302", "middleware/config.py", 10),
    ("C303", "middleware/stages.py", 23),
    ("C304", "middleware/config.py", 13),
    ("D101", "simx/wallclock.py", 10),
    ("D101", "simx/wallclock.py", 11),
    ("D101", "simx/wallclock.py", 12),
    ("D102", "simx/randomness.py", 9),
    ("D102", "simx/randomness.py", 10),
    ("D102", "simx/randomness.py", 11),
    ("D102", "simx/randomness.py", 12),
    ("D103", "simx/ordering.py", 6),
    ("D103", "simx/ordering.py", 8),
    ("D103", "simx/ordering.py", 13),
    ("D103", "simx/ordering.py", 14),
    ("D103", "simx/ordering.py", 19),
    ("D103", "simx/ordering.py", 23),
    ("D104", "simx/wallclock.py", 21),
    ("D104", "simx/wallclock.py", 22),
    ("D104", "simx/wallclock.py", 23),
    ("T401", "common/shared.py", 6),
    ("T401", "common/shared.py", 24),
    ("T402", "common/busimpl.py", 13),
    ("T402", "devices/reaches.py", 5),
]


def test_full_fixture_finding_set():
    findings = run_analysis(BADREPO)
    got = sorted(
        (f.rule, "/".join(f.path.split("/")[-2:]), f.line) for f in findings
    )
    assert got == sorted(EXPECTED)


def test_default_mode_reports_and_exits_zero(tmp_path, capsys):
    code = main(
        ["--root", str(BADREPO), "--baseline", str(tmp_path / "b.json")]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert f"{len(EXPECTED)} finding(s)" in captured.err
    assert "D101" in captured.out


def test_check_without_baseline_fails(tmp_path, capsys):
    code = main(
        [
            "--root",
            str(BADREPO),
            "--baseline",
            str(tmp_path / "absent.json"),
            "--check",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.err


def test_update_baseline_then_check_passes(tmp_path, capsys):
    baseline = tmp_path / "b.json"
    assert main(
        ["--root", str(BADREPO), "--baseline", str(baseline), "--update-baseline"]
    ) == 0
    assert baseline.exists()
    code = main(["--root", str(BADREPO), "--baseline", str(baseline), "--check"])
    captured = capsys.readouterr()
    assert code == 0
    assert "OK" in captured.err


def test_check_fails_on_new_finding_only(tmp_path, capsys):
    root = tmp_path / "badrepo"
    shutil.copytree(BADREPO, root)
    baseline = root / "analysis-baseline.json"
    main(["--root", str(root), "--baseline", str(baseline), "--update-baseline"])
    capsys.readouterr()

    # A brand-new violation in a previously-clean module must trip the gate.
    (root / "src" / "repro" / "simx" / "fresh.py").write_text(
        "import time\n\n\ndef oops():\n    return time.time()\n",
        encoding="utf-8",
    )
    code = main(["--root", str(root), "--baseline", str(baseline), "--check"])
    captured = capsys.readouterr()
    assert code == 1
    assert "fresh.py" in captured.out
    assert "FAIL: 1 new finding" in captured.err


def test_check_notes_stale_entries(tmp_path, capsys):
    root = tmp_path / "badrepo"
    shutil.copytree(BADREPO, root)
    baseline = root / "analysis-baseline.json"
    main(["--root", str(root), "--baseline", str(baseline), "--update-baseline"])
    capsys.readouterr()

    # Fixing a violation leaves its baseline entry stale, not failing.
    (root / "src" / "repro" / "simx" / "randomness.py").unlink()
    code = main(["--root", str(root), "--baseline", str(baseline), "--check"])
    captured = capsys.readouterr()
    assert code == 0
    assert "stale" in captured.err


def test_rules_prefix_filter():
    only_d = run_analysis(BADREPO, rules=["D"])
    assert only_d and all(f.rule.startswith("D") for f in only_d)
    exact = run_analysis(BADREPO, rules=["A201", "C303"])
    assert sorted({f.rule for f in exact}) == ["A201", "C303"]


def test_format_json(tmp_path, capsys):
    code = main(
        [
            "--root",
            str(BADREPO),
            "--baseline",
            str(tmp_path / "b.json"),
            "--format",
            "json",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert len(payload) == len(EXPECTED)
    assert {"rule", "path", "line", "symbol", "message", "hint"} <= set(
        payload[0]
    )


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in (
        "D101",
        "D102",
        "D103",
        "D104",
        "A201",
        "A202",
        "A203",
        "C301",
        "C302",
        "C303",
        "C304",
        "T401",
        "T402",
    ):
        assert rule in out
