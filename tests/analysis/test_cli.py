"""The CLI's one mode, plus the end-to-end fixture finding set."""

from __future__ import annotations

import shutil

import pytest

from repro.analysis.cli import main, run_analysis

from .conftest import BADREPO

#: Every finding the fixture corpus must produce, as (rule, path-suffix,
#: line).  This is the single source of truth the CLI tests check against.
EXPECTED = [
    ("A201", "common/reachup.py", 5),
    ("A202", "network/cyc_b.py", 1),
    ("A203", "ledger/benchhook.py", 3),
    ("C301", "consensus/batching.py", 10),
    ("C301", "middleware/config.py", 11),
    ("C302", "middleware/config.py", 10),
    ("C303", "middleware/stages.py", 23),
    ("C304", "consensus/batching.py", 9),
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
    ("T402", "common/busimpl.py", 13),
    ("T402", "devices/reaches.py", 5),
]


def test_full_fixture_finding_set():
    findings = run_analysis(BADREPO)
    got = sorted(
        (f.rule, "/".join(f.path.split("/")[-2:]), f.line) for f in findings
    )
    assert got == sorted(EXPECTED)


def printed_findings(out):
    """``(rule, path-suffix, line)`` of every finding ``main`` printed, in
    print order."""
    printed = []
    for text in out.splitlines():
        if text.startswith(" "):
            continue  # a finding's hint line
        site, rule = text.split(" ")[:2]
        path, line = site.split(":")[:2]
        printed.append((rule, "/".join(path.split("/")[-2:]), int(line)))
    return printed


def test_main_prints_every_finding_and_exits_one(capsys):
    assert main(["--root", str(BADREPO)]) == 1
    captured = capsys.readouterr()
    assert sorted(printed_findings(captured.out)) == sorted(EXPECTED)
    assert f"{len(EXPECTED)} finding(s)" in captured.err


def test_findings_print_in_path_then_line_order(capsys):
    main(["--root", str(BADREPO)])
    lines = [
        line
        for line in capsys.readouterr().out.splitlines()
        if not line.startswith(" ")
    ]
    sites = [(line.split(":")[0], int(line.split(":")[1])) for line in lines]
    assert sites == sorted(sites)


def test_root_defaults_to_the_working_directory(monkeypatch, capsys):
    monkeypatch.chdir(BADREPO)
    assert main([]) == 1
    captured = capsys.readouterr()
    assert sorted(printed_findings(captured.out)) == sorted(EXPECTED)


def test_inline_pragma_is_the_suppression(tmp_path, capsys):
    root = tmp_path / "badrepo"
    shutil.copytree(BADREPO, root)
    module = root / "src" / "repro" / "simx" / "wallclock.py"
    source = module.read_text(encoding="utf-8").replace(
        "now = datetime.now()  # line 12: D101",
        "now = datetime.now()  # repro: allow-wallclock",
    )
    module.write_text(source, encoding="utf-8")
    assert main(["--root", str(root)]) == 1
    captured = capsys.readouterr()
    expected = [e for e in EXPECTED if e != ("D101", "simx/wallclock.py", 12)]
    assert sorted(printed_findings(captured.out)) == sorted(expected)
    assert f"{len(expected)} finding(s)" in captured.err


#: The analyzer's flags from before ``--root`` became its only option: a
#: baseline file, a report-only mode, rule filters and output formats.
REMOVED_FLAGS = [
    ["--check"],
    ["--baseline", "analysis-baseline.json"],
    ["--update-baseline"],
    ["--rules", "D"],
    ["--format", "json"],
    ["--list-rules"],
    ["--source-root", "src/repro"],
]


@pytest.mark.parametrize("flag", REMOVED_FLAGS, ids=lambda flag: flag[0])
def test_root_is_the_only_option(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--root", str(BADREPO), *flag])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
