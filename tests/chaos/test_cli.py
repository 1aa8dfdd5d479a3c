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
    @pytest.mark.parametrize("flag", ["--schedules", "--campaigns"])
    def test_empty_run_is_a_usage_error_not_a_vacuous_pass(
        self, flag, expect, capsys
    ):
        # Zero runs used to print "clean after 0 schedule(s)" /
        # "converged: 0/0" and exit 0 under every expectation.
        code = main([
            "run", "--substrate", "sim", "--target", "dg_mutex_n3",
            "--seed", "s", flag, "0", "--expect", expect,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "an empty campaign explores nothing" in err
        assert f"{flag} must be positive, got 0" in err


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

    def test_trace_is_sim_only(self, tmp_path):
        assert main([
            "run", "--substrate", "net", "--seed", "s",
            "--trace", str(tmp_path / "t.jsonl"),
        ]) == 2

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
