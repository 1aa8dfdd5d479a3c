"""Trace byte-determinism: sequential vs sharded, repeated replays.

The contract under test: a trace is a pure function of the seed.  The
same campaign run twice, or sharded across workers and merged in global
run-index order (`repro.parallel.merge`), must yield byte-identical
JSONL — the same property the summary JSON already satisfies, extended
to the record stream.
"""

from repro.chaos.__main__ import main as chaos_main
from repro.obs import to_jsonl
from repro.parallel import make_shards, merge_fuzz_results, merge_net_reports
from repro.verify.fuzz import _campaign_shard, _net_shard
from repro.verify.fuzz import main as fuzz_main

ARTIFACT = "tests/chaos/artifacts/fischer_n3_violation.json"


def _chunk_bytes(chunks):
    return to_jsonl([r for _index, chunk in chunks for r in chunk])


class TestLibraryMerge:
    def test_registers_shards_merge_to_the_sequential_trace(self):
        payload = ("fischer_n3", 5, True)
        [whole] = make_shards(12, 1, master_seed=5)
        sequential = _campaign_shard(whole, payload)
        parts = [
            _campaign_shard(shard, payload)
            for shard in make_shards(12, 3, master_seed=5)
        ]
        merged = merge_fuzz_results(parts)
        assert merged.trace_chunks  # tracing actually happened
        assert _chunk_bytes(merged.trace_chunks) == _chunk_bytes(
            sequential.trace_chunks
        )

    def test_net_shards_merge_to_the_sequential_trace(self):
        payload = (3, True)
        [whole] = make_shards(4, 1, master_seed=3)
        sequential = _net_shard(whole, payload)
        parts = [
            _net_shard(shard, payload)
            for shard in make_shards(4, 2, master_seed=3)
        ]
        merged = merge_net_reports(parts)
        assert merged.trace_chunks
        assert _chunk_bytes(merged.trace_chunks) == _chunk_bytes(
            sequential.trace_chunks
        )


class TestCliTraces:
    def test_fuzz_trace_workers_2_is_byte_identical_to_workers_1(
        self, tmp_path
    ):
        base = ["--seed", "42", "--schedules", "12"]
        t1, t2 = tmp_path / "w1.jsonl", tmp_path / "w2.jsonl"
        assert fuzz_main(base + ["--workers", "1", "--trace", str(t1)]) == 0
        assert fuzz_main(base + ["--workers", "2", "--trace", str(t2)]) == 0
        assert t1.read_bytes() and t1.read_bytes() == t2.read_bytes()

    def test_replay_trace_is_identical_across_invocations(self, tmp_path):
        t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert chaos_main(["replay", "--trace", str(t1), ARTIFACT]) == 0
        assert chaos_main(["replay", "--trace", str(t2), ARTIFACT]) == 0
        assert t1.read_bytes() and t1.read_bytes() == t2.read_bytes()
