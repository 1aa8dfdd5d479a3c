"""CLI behaviour: exit codes, JSON output, rule listing."""

from __future__ import annotations

import json
import os

from repro.lint.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def test_clean_file_exits_zero(capsys):
    assert main([fixture("clean.py")]) == 0
    out = capsys.readouterr().out
    assert "1 file(s) checked" in out
    assert "clean" in out


def test_findings_exit_one(capsys):
    assert main([fixture("tmf001_bad.py")]) == 1
    out = capsys.readouterr().out
    assert "TMF001" in out
    assert "tmf001_bad.py" in out


def test_no_paths_exits_two(capsys):
    assert main([]) == 2
    assert "no paths" in capsys.readouterr().err


def test_unknown_code_exits_two(capsys):
    assert main(["--select", "TMF999", fixture("clean.py")]) == 2
    assert "unknown rule code" in capsys.readouterr().err


def test_empty_directory_exits_two(tmp_path, capsys):
    assert main([str(tmp_path)]) == 2
    assert "no Python files" in capsys.readouterr().err


def test_json_output_parses(capsys):
    assert main(["--format", "json", fixture("tmf005_bad.py")]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1  # versioned findings schema
    assert doc["files_checked"] == 1
    assert doc["warnings"] == 4
    assert doc["errors"] == 0
    codes = {f["code"] for f in doc["findings"]}
    assert codes == {"TMF005"}
    first = doc["findings"][0]
    assert {"code", "message", "path", "line", "column", "severity"} <= set(first)


def test_select_filters_directory_run(capsys):
    # The whole fixture directory has many findings, but selecting one
    # rule narrows to that rule's fixtures only.
    assert main(["--format", "json", "--select", "TMF007", FIXTURES]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert {f["code"] for f in doc["findings"]} == {"TMF007"}


def test_output_writes_report_to_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code = main(
        ["--format", "json", "--output", str(out_file), fixture("tmf005_bad.py")]
    )
    assert code == 1
    assert capsys.readouterr().out == ""  # report went to the file
    doc = json.loads(out_file.read_text())
    assert doc["schema"] == 1
    assert {f["code"] for f in doc["findings"]} == {"TMF005"}


def test_output_to_unwritable_path_exits_two(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "report.json"
    assert main(["--output", str(target), fixture("clean.py")]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_flow_rules_run_without_a_flag(capsys):
    assert main([fixture("tmf101_bad.py")]) == 1
    assert "TMF101" in capsys.readouterr().out


def test_missing_path_exits_two(tmp_path, capsys):
    # An existing file next to a typo must not lint half the tree and pass.
    missing = str(tmp_path / "no_such_dir")
    assert main([fixture("clean.py"), missing]) == 2
    captured = capsys.readouterr()
    assert missing in captured.err
    assert captured.out == ""


def test_help_documents_exit_codes(capsys):
    try:
        main(["--help"])
    except SystemExit as exc:
        assert exc.code == 0
    out = capsys.readouterr().out
    assert "exit codes:" in out
    assert "findings reported" in out
    assert "usage error" in out


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("TMF001", "TMF007"):
        assert code in out
    assert "[error]" in out and "[warning]" in out
