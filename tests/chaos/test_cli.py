"""End-to-end tests for ``python -m repro.chaos`` and the committed artifact."""

import json
from pathlib import Path

import pytest

from repro.chaos.__main__ import main

ARTIFACTS = Path(__file__).parent / "artifacts"


class TestRunCommand:
    def test_expect_violation_with_shrink_and_artifact(self, tmp_path):
        art_dir = tmp_path / "artifacts"
        summary = tmp_path / "summary.json"
        code = main([
            "run", "--substrate", "sim", "--target", "fischer_n3",
            "--seed", "demo-a", "--campaigns", "1", "--schedules", "20",
            "--expect", "violation", "--shrink",
            "--artifact-dir", str(art_dir), "--json", str(summary),
        ])
        assert code == 0
        (artifact_path,) = sorted(art_dir.glob("*.json"))
        assert main(["replay", str(artifact_path)]) == 0
        data = json.loads(summary.read_text())
        assert data["hits"] == 1
        (entry,) = data["campaigns"]
        assert entry["violation"]["monitor"] == "mutual_exclusion"
        assert "shrink" in entry and entry["artifact"] == str(artifact_path)

    def test_expect_clean_fails_on_violation(self, tmp_path):
        code = main([
            "run", "--substrate", "sim", "--target", "fischer_n3",
            "--seed", "demo-a", "--campaigns", "1", "--schedules", "20",
            "--expect", "clean",
        ])
        assert code == 1

    def test_expect_clean_net_campaign(self):
        code = main([
            "run", "--substrate", "net", "--seed", "net-cli",
            "--campaigns", "1", "--schedules", "2", "--expect", "clean",
        ])
        assert code == 0

    def test_expect_violation_fails_when_clean(self):
        code = main([
            "run", "--substrate", "net", "--seed", "net-cli",
            "--campaigns", "1", "--schedules", "1", "--expect", "violation",
        ])
        assert code == 1

    @pytest.mark.parametrize("expect", ["clean", "violation", "recover", "any"])
    @pytest.mark.parametrize(
        "flag", ["--schedules", "--campaigns", "--max-steps"]
    )
    def test_empty_run_is_a_usage_error_not_a_vacuous_pass(
        self, flag, expect, capsys
    ):
        # Zero runs (or zero steps per run) used to print "clean after 3
        # schedule(s)" / "converged: 0/0" and exit 0 under every
        # expectation.
        with pytest.raises(SystemExit) as excinfo:
            main([
                "run", "--substrate", "sim", "--target", "dg_mutex_n3",
                "--seed", "s", flag, "0", "--expect", expect,
            ])
        assert excinfo.value.code == 2
        assert f"argument {flag}: must be positive, got 0" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("flag, value, rule", [
        ("--max-steps", "-5", "positive"),
        ("--windows", "-3", "non-negative"),
        ("--severity", "-1", "positive and finite"),
        ("--severity", "0", "positive and finite"),
        ("--severity", "nan", "positive and finite"),
        ("--severity", "inf", "positive and finite"),
        ("--crash-prob", "2", "in [0, 1]"),
        ("--crash-prob", "-0.5", "in [0, 1]"),
        ("--crash-prob", "nan", "in [0, 1]"),
    ], ids=lambda v: v)
    def test_out_of_range_option_is_a_usage_error(
        self, flag, value, rule, capsys
    ):
        # Each used to run vacuously or with no windows, or to escape as a
        # ValueError traceback with exit 1 ("expectation violated").
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--target", "alg3_n4", flag, value,
                  "--expect", "clean"])
        assert excinfo.value.code == 2
        assert f"argument {flag}: must be {rule}, got {value}" in (
            capsys.readouterr().err
        )


class TestShrinkCommand:
    def test_reshrink_artifact_in_place(self, tmp_path):
        art_dir = tmp_path / "artifacts"
        assert main([
            "run", "--substrate", "sim", "--target", "fischer_n3",
            "--seed", "demo-a", "--campaigns", "1", "--schedules", "20",
            "--expect", "violation", "--artifact-dir", str(art_dir),
        ]) == 0
        (artifact_path,) = sorted(art_dir.glob("*.json"))
        out = tmp_path / "shrunk.json"
        assert main(["shrink", str(artifact_path), "-o", str(out)]) == 0
        original = json.loads(artifact_path.read_text())
        shrunk = json.loads(out.read_text())
        assert len(shrunk["schedule"]) <= len(original["schedule"])
        assert len(shrunk["campaign"]["windows"]) <= 1
        assert "re_shrink" in shrunk["provenance"]
        assert main(["replay", str(out)]) == 0


class TestCommittedArtifact:
    """Tier-1 smoke: the archived Fischer violation replays byte-identically."""

    PATH = ARTIFACTS / "fischer_n3_violation.json"

    def test_artifact_is_committed(self):
        assert self.PATH.is_file()

    def test_replays_identically(self):
        assert main(["replay", str(self.PATH)]) == 0

    def test_artifact_content_sanity(self):
        data = json.loads(self.PATH.read_text())
        assert data["substrate"] == "sim"
        assert data["target"] == "fischer_n3"
        assert data["violation"]["monitor"] == "mutual_exclusion"
        # the committed artifact is the *shrunk* counterexample
        assert len(data["schedule"]) <= 10
        assert len(data["campaign"]["windows"]) <= 1


class TestRecoverExpectation:
    def test_expect_recover_converges(self, tmp_path):
        summary = tmp_path / "summary.json"
        code = main([
            "run", "--substrate", "sim", "--target", "dg_mutex_n3",
            "--seed", "recover-cli", "--campaigns", "1", "--schedules", "2",
            "--expect", "recover", "--json", str(summary),
        ])
        assert code == 0
        data = json.loads(summary.read_text())
        (entry,) = data["campaigns"]
        assert entry["converged"] and entry["verdicts"] == 2
        assert entry["first_verdict"]["monitor"] == "stabilization"

    def test_expect_recover_rejects_non_recover_target(self):
        assert main([
            "run", "--substrate", "sim", "--target", "fischer_n3",
            "--seed", "s", "--expect", "recover",
        ]) == 2

    def test_net_trace_has_one_run_marker_per_run(self, tmp_path):
        path = tmp_path / "t.jsonl"
        assert main([
            "run", "--substrate", "net", "--seed", "s", "--campaigns", "1",
            "--schedules", "2", "--expect", "clean", "--trace", str(path),
        ]) == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        markers = [r for r in records if r["kind"] == "run"]
        assert [m["run_seed"] for m in markers] == ["0", "1"]
        assert {r["kind"] for r in records} >= {"op", "send"}

    def test_trace_and_summary_identical_across_worker_counts(self, tmp_path):
        # The restart-determinism gate: a sharded recover campaign must
        # produce byte-identical evidence to the sequential run.
        outs = {}
        for workers in (1, 4):
            trace = tmp_path / f"trace-w{workers}.jsonl"
            summary = tmp_path / f"summary-w{workers}.json"
            code = main([
                "run", "--substrate", "sim", "--target", "dg_mutex_n3",
                "--seed", "recover-det", "--campaigns", "1",
                "--schedules", "4", "--expect", "recover",
                "--workers", str(workers),
                "--trace", str(trace), "--json", str(summary),
            ])
            assert code == 0
            outs[workers] = (trace.read_bytes(), summary.read_bytes())
        assert outs[1][0] == outs[4][0]
        assert outs[1][1] == outs[4][1]


class TestCommittedRecoverArtifacts:
    """Tier-1 smoke: the archived convergence contrast replays exactly."""

    STABILIZATION = ARTIFACTS / "dg_mutex_n3_stabilization.json"
    NONCONVERGENCE = ARTIFACTS / "fischer_n3_nonconvergence.json"

    def test_artifacts_are_committed(self):
        assert self.STABILIZATION.is_file()
        assert self.NONCONVERGENCE.is_file()

    def test_stabilization_verdict_replays_identically(self):
        assert main(["replay", str(self.STABILIZATION)]) == 0

    def test_nonconvergence_replays_identically(self):
        assert main(["replay", str(self.NONCONVERGENCE)]) == 0

    def test_the_contrast(self):
        # Same fault class, opposite fates: corruption against the
        # stabilizing ring ends in a convergence verdict with zero
        # standing violations; against Fischer it wedges the run and the
        # convergence monitor files a violation.
        stab = json.loads(self.STABILIZATION.read_text())
        assert stab["kind"] == "stabilization"
        assert stab["target"] == "dg_mutex_n3"
        assert stab["violation"]["monitor"] == "stabilization"
        assert "converged" in stab["violation"]["message"]
        assert stab["campaign"]["corruptions"]
        wedge = json.loads(self.NONCONVERGENCE.read_text())
        assert wedge["kind"] == "violation"
        assert wedge["target"] == "fischer_n3"
        assert wedge["violation"]["monitor"] == "convergence"
        assert wedge["campaign"]["corruptions"]


@pytest.mark.parametrize("command", ["replay", "shrink"])
@pytest.mark.parametrize("text, problem", [
    ('{"schema": 3}', "missing field 'substrate'"),
    ("[]", "a JSON list is not an artifact"),
    ((ARTIFACTS / "fischer_n3_violation.json").read_text()[:200], "Unterminated"),
], ids=["no-substrate", "array", "truncated"])
def test_malformed_artifact_is_a_usage_error(command, text, problem, tmp_path, capsys):
    # Exit 2 with one line naming the file, not a traceback; exit 1
    # would read as "did not reproduce".
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(path) in err and problem in err
