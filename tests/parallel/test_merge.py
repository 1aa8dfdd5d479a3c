"""Merge determinism: sharded output must equal the sequential run."""

from repro.chaos.plan import sample_net_campaign, sample_sim_campaign
from repro.chaos.runner import run_net_campaign, run_sim_campaign, sim_target
from repro.net.fuzz import fuzz_quorum_register
from repro.parallel import (
    RunRecord,
    WorkerPool,
    make_shards,
    merge_campaign_runs,
    merge_counters,
    merge_fuzz_results,
    merge_net_reports,
)
from repro.sim import ops
from repro.sim.registers import Register
from repro.verify import InvariantProperty
from repro.verify.fuzz import fuzz

X = Register("mrg", 0)


def _factories():
    def prog(pid):
        v = yield ops.read(X)
        yield ops.write(X, v + 1)

    return {0: prog, 1: prog}


def _properties():
    return [
        InvariantProperty(
            lambda sb: sb.memory.peek(X) < 2, name="x<2", message="x hit 2"
        )
    ]


class TestFuzzMerge:
    def test_sharded_slices_merge_to_the_sequential_result(self):
        """The core contract: any partition reproduces the one-shot run."""
        sequential = fuzz(
            _factories(), _properties(), schedules=40, seed=0,
            stop_at_first_violation=False,
        )
        assert sequential.failures  # the property fires often; merge has work
        for workers in (1, 3, 7):
            parts = [
                fuzz(
                    _factories(), _properties(),
                    schedules=shard.count, first_index=shard.start, seed=0,
                    stop_at_first_violation=False,
                )
                for shard in make_shards(40, workers)
            ]
            merged = merge_fuzz_results(parts)
            assert merged == sequential, f"workers={workers}"

    def test_failures_sorted_by_run_index_even_out_of_order(self):
        parts = [
            fuzz(
                _factories(), _properties(),
                schedules=shard.count, first_index=shard.start, seed=0,
                stop_at_first_violation=False,
            )
            for shard in make_shards(40, 4)
        ]
        merged = merge_fuzz_results(list(reversed(parts)))
        indices = [failure.run_index for failure in merged.failures]
        assert indices == sorted(indices)

    def test_seed_keys_use_global_indices(self):
        part = fuzz(
            _factories(), _properties(),
            schedules=10, first_index=30, seed=9,
            stop_at_first_violation=False,
        )
        assert all(f.seed_key == f"9:{f.run_index}" for f in part.failures)
        assert all(30 <= f.run_index < 40 for f in part.failures)


class TestNetMerge:
    def test_sharded_net_fuzz_merges_to_sequential(self):
        sequential = fuzz_quorum_register(schedules=6, seed=5)
        parts = [
            fuzz_quorum_register(
                schedules=shard.count, seed=5, first_index=shard.start
            )
            for shard in make_shards(6, 3)
        ]
        merged = merge_net_reports(parts)
        assert merged.schedules == sequential.schedules
        assert merged.outcomes == sequential.outcomes
        assert merged.by_plan() == sequential.by_plan()

    def test_empty_parts(self):
        merged = merge_net_reports([])
        assert merged.schedules == 0 and merged.outcomes == []


class TestCampaignMerge:
    def test_first_failure_rule_truncates_later_records(self):
        """Runs past the globally-first failure never reach the report."""
        campaign = sample_sim_campaign("mrg", pids=(0, 1, 2), windows=2)
        fail_at_4 = RunRecord(index=4, steps=11, outcome="failing-outcome")
        parts = [
            [RunRecord(0, 10), RunRecord(1, 10), fail_at_4],
            [RunRecord(2, 10), RunRecord(3, 10)],
            # A later shard also "failed" — sequential would never see it.
            [RunRecord(5, 10, outcome="later-failure"), RunRecord(6, 10)],
        ]
        report = merge_campaign_runs(campaign, parts)
        assert report.failing == "failing-outcome"
        assert report.schedules_run == 5
        assert report.total_steps == 51

    def test_all_clean_counts_everything(self):
        campaign = sample_sim_campaign("mrg", pids=(0, 1, 2), windows=2)
        parts = [[RunRecord(i, 7) for i in range(5)]]
        report = merge_campaign_runs(campaign, parts)
        assert report.ok
        assert report.schedules_run == 5 and report.total_steps == 35

    def test_sim_campaign_workers_match_sequential(self):
        """End to end: sequential loop vs real spawn workers, same report."""
        target = sim_target("fischer_n3")
        campaign = sample_sim_campaign("demo-a-0", pids=target.pids, windows=6)
        sequential = run_sim_campaign(target, campaign, schedules=8)
        assert not sequential.ok  # this seed is known to find a violation
        with WorkerPool(2) as pool:
            parallel = run_sim_campaign(
                target, campaign, schedules=8, pool=pool
            )
        assert parallel.schedules_run == sequential.schedules_run
        assert parallel.total_steps == sequential.total_steps
        assert parallel.failing == sequential.failing
        assert parallel.shard_timing  # telemetry present, results untouched

    def test_net_campaign_workers_match_sequential(self):
        campaign = sample_net_campaign("mrg-net")
        sequential = run_net_campaign(campaign, schedules=4)
        parallel = run_net_campaign(campaign, schedules=4, workers=2)
        assert sequential.schedules_run == 4 and sequential.total_steps > 0
        assert parallel.schedules_run == sequential.schedules_run
        assert parallel.total_steps == sequential.total_steps
        assert parallel.failing == sequential.failing
        assert sequential.shard_timing is None and parallel.shard_timing


class TestCounters:
    def test_merge_counters_sums_keywise(self):
        merged = merge_counters([{"a": 1, "b": 2}, {"b": 3, "c": 4}])
        assert merged == {"a": 1, "b": 5, "c": 4}
