"""The ``python -m repro.serve`` command line: end to end in subprocesses,
and argument checking in process."""

import json
import os
import subprocess
import sys

import pytest

from repro.serve.__main__ import build_parser


def _run(*argv, timeout=240):
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run(
        [sys.executable, "-m", "repro.serve", *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


def test_sim_subcommand_reports_counters():
    proc = _run("sim")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["counters"]["lease_violations"] == 0
    assert doc["counters"]["granted"] > 0


def test_load_subcommand_small_run(tmp_path):
    out = tmp_path / "report.json"
    proc = _run(
        "load", "--clients", "300", "--duration", "2", "--seed", "0",
        "--shards", "2", "--timeout", "5", "--max-p99", "5",
        "--json", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["violations"] == []
    assert doc["load"]["granted"] == 300
    assert doc["load"]["errors"] == 0
    assert doc["load"]["latency"]["p99"] is not None
    assert doc["obs"]["metrics"]


@pytest.mark.parametrize("argv, problem", [
    (["load", "--clients", "0"], "must be positive"),
    (["load", "--duration", "-1"], "must be positive"),
    (["load", "--keepers", "0"], "must be positive"),
    (["sim", "--shards", "0"], "must be positive"),
    (["load", "--hold", "-1"], "must be non-negative"),
    (["load", "--hold", "inf"], "must be non-negative and finite"),
    (["load", "--block", "-5"], "must be non-negative"),
], ids=["load-clients", "load-duration", "load-keepers", "sim-shards",
        "load-hold-negative", "load-hold-inf", "load-block-negative"])
def test_out_of_range_argument_is_a_usage_error(argv, problem, capsys):
    # Exit 2, naming the flag, before any service is built; exit 1
    # would read as "the audit found violations".  Parsing only: a value
    # that slipped through would start a service (and `--hold inf`
    # would never drain).
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    assert f"argument {argv[1]}: {problem}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--bound", "99"), ("--block", "7")])
def test_sim_rejects_the_live_only_flags(flag, value, capsys):
    # The sim sizes its own block and bound; a flag it would ignore must
    # not parse, or `sim --bound 99` would print what `sim` prints.
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["sim", flag, value])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
