"""--workers end to end: CLI equivalence across worker counts, usage errors."""

import json

import pytest

from repro.chaos.__main__ import main as chaos_main

# The schedule fuzzer's campaign: a chaos run on the empty plan.
FUZZ = ["run", "--windows", "0", "--seed", "42", "--campaigns", "1"]


def _fuzz_summary(tmp_path, name, extra):
    path = tmp_path / name
    code = chaos_main(FUZZ + ["--schedules", "24", "--json", str(path)] + extra)
    return code, path.read_bytes()


class TestFuzzCli:
    """The fuzz campaigns, run through ``chaos run --windows 0``."""

    def test_workers_2_summary_is_byte_identical_to_workers_1(self, tmp_path):
        extra = ["--target", "alg3_n4", "--expect", "clean", "--workers"]
        code_1, doc_1 = _fuzz_summary(tmp_path, "w1.json", extra + ["1"])
        code_2, doc_2 = _fuzz_summary(tmp_path, "w2.json", extra + ["2"])
        assert code_1 == code_2 == 0
        assert doc_1 == doc_2
        (entry,) = json.loads(doc_1)["campaigns"]
        assert entry["faults"] == 0 and entry["schedules_run"] == 24

    def test_summary_records_the_expected_fischer_find(self, tmp_path):
        code, doc = _fuzz_summary(tmp_path, "w.json", [
            "--target", "fischer_n3", "--expect", "violation", "--workers", "2",
        ])
        assert code == 0
        summary = json.loads(doc)
        (entry,) = summary["campaigns"]
        assert summary["hits"] == 1 and not entry["ok"]
        assert entry["violation"]["monitor"] == "mutual_exclusion"

    def test_net_substrate_workers_2_matches_workers_1(self, tmp_path):
        args = ["run", "--substrate", "net", "--seed", "7", "--campaigns", "2",
                "--schedules", "6", "--expect", "clean"]
        p1, p2 = tmp_path / "n1.json", tmp_path / "n2.json"
        assert chaos_main(args + ["--workers", "1", "--json", str(p1)]) == 0
        assert chaos_main(args + ["--workers", "2", "--json", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_timing_json_is_written_per_shard(self, tmp_path):
        timing_path = tmp_path / "timing.json"
        code = chaos_main([
            "run", "--windows", "0", "--seed", "1", "--campaigns", "3",
            "--target", "consensus_n4", "--schedules", "8", "--workers", "2",
            "--expect", "clean", "--timing-json", str(timing_path),
        ])
        assert code == 0
        timing = json.loads(timing_path.read_text())
        assert timing["workers"] == 2
        # 3 campaigns x 2 shards each
        assert len(timing["rows"]) == 6
        assert {row["campaign"] for row in timing["rows"]} == {
            "1-0", "1-1", "1-2",
        }
        assert all("wall_s" in row and "worker_pid" in row
                   for row in timing["rows"])


class TestUsageErrors:
    def test_empty_campaign_is_a_usage_error(self):
        """--schedules 0 must exit 2, not vacuously pass with exit 0."""
        with pytest.raises(SystemExit) as excinfo:
            chaos_main(["run", "--schedules", "0"])
        assert excinfo.value.code == 2

    def test_negative_schedules_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            chaos_main(["run", "--schedules", "-5"])
        assert excinfo.value.code == 2

    def test_zero_workers_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            chaos_main(["run", "--substrate", "net", "--workers", "-1"])
        assert excinfo.value.code == 2

    def test_chaos_zero_workers_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            chaos_main(["run", "--workers", "0"])
        assert excinfo.value.code == 2


class TestChaosCli:
    def test_workers_2_summary_matches_workers_1(self, tmp_path):
        base = [
            "run", "--target", "fischer_n3", "--seed", "demo-a",
            "--campaigns", "1", "--schedules", "8", "--expect", "violation",
        ]
        p1, p2 = tmp_path / "c1.json", tmp_path / "c2.json"
        t2 = tmp_path / "t2.json"
        assert chaos_main(base + ["--workers", "1", "--json", str(p1)]) == 0
        assert chaos_main(
            base + ["--workers", "2", "--json", str(p2),
                    "--timing-json", str(t2)]
        ) == 0
        assert p1.read_bytes() == p2.read_bytes()
        timing = json.loads(t2.read_text())
        assert timing["workers"] == 2 and timing["rows"]
