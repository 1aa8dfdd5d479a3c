"""Trace byte-determinism: sequential vs sharded, repeated replays.

The contract under test: a trace is a pure function of the seed.  The
same campaign run twice, or sharded across workers and merged in global
run-index order (`repro.parallel.merge`), on either substrate, must
yield byte-identical JSONL — the same property the summary JSON already
satisfies, extended to the record stream.
"""

from repro.chaos.__main__ import main as chaos_main
from repro.chaos.plan import Campaign, sample_net_campaign
from repro.chaos.runner import NetParams, _net_shard, _sim_shard
from repro.obs import to_jsonl
from repro.parallel import make_shards, merge_campaign_runs

ARTIFACT = "tests/chaos/artifacts/fischer_n3_violation.json"


def _merged_trace(worker, payload, campaign, count, parts):
    """The JSONL bytes of ``count`` runs sharded ``parts`` ways, merged."""
    report = merge_campaign_runs(campaign, [
        worker(shard, payload)
        for shard in make_shards(count, parts, master_seed=campaign.seed)
    ])
    assert report.trace_chunks  # tracing actually happened
    return to_jsonl([r for _index, chunk in report.trace_chunks for r in chunk])


class TestLibraryMerge:
    def test_registers_shards_merge_to_the_sequential_trace(self):
        campaign = Campaign(substrate="sim", seed="5")  # the fuzzer's plan
        payload = ("alg3_n4", campaign, 400, True)
        assert _merged_trace(_sim_shard, payload, campaign, 12, 3) == (
            _merged_trace(_sim_shard, payload, campaign, 12, 1)
        )

    def test_net_shards_merge_to_the_sequential_trace(self):
        campaign = sample_net_campaign("3")
        payload = (campaign, NetParams(), True)
        assert _merged_trace(_net_shard, payload, campaign, 4, 2) == (
            _merged_trace(_net_shard, payload, campaign, 4, 1)
        )


class TestCliTraces:
    def test_fuzz_trace_workers_2_is_byte_identical_to_workers_1(
        self, tmp_path
    ):
        base = ["run", "--target", "fischer_n3", "--windows", "0",
                "--seed", "42", "--schedules", "12", "--expect", "any"]
        t1, t2 = tmp_path / "w1.jsonl", tmp_path / "w2.jsonl"
        assert chaos_main(base + ["--workers", "1", "--trace", str(t1)]) == 0
        assert chaos_main(base + ["--workers", "2", "--trace", str(t2)]) == 0
        assert t1.read_bytes() and t1.read_bytes() == t2.read_bytes()

    def test_net_trace_workers_2_is_byte_identical_to_workers_1(
        self, tmp_path
    ):
        base = ["run", "--substrate", "net", "--seed", "42",
                "--campaigns", "2", "--schedules", "3", "--expect", "clean"]
        t1, t2 = tmp_path / "n1.jsonl", tmp_path / "n2.jsonl"
        assert chaos_main(base + ["--workers", "1", "--trace", str(t1)]) == 0
        assert chaos_main(base + ["--workers", "2", "--trace", str(t2)]) == 0
        assert t1.read_bytes() and t1.read_bytes() == t2.read_bytes()

    def test_replay_trace_is_identical_across_invocations(self, tmp_path):
        t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert chaos_main(["replay", "--trace", str(t1), ARTIFACT]) == 0
        assert chaos_main(["replay", "--trace", str(t2), ARTIFACT]) == 0
        assert t1.read_bytes() and t1.read_bytes() == t2.read_bytes()
