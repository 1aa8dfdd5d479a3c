"""The ABD workload harness: random workloads judged for linearizability."""

import random

from repro.chaos.plan import sample_net_campaign
from repro.chaos.runner import run_net_campaign
from repro.net.faults import DelaySpike, MessageLoss, NetFaultPlan, Partition
from repro.net.fuzz import run_workload, sample_workload
from repro.obs import Tracer, trace_scope
from repro.sim.failures import CrashSchedule

CLIENTS, REPLICAS, REGISTERS = 2, 3, 2


def _workload(seed, ops_per_client=3):
    return sample_workload(random.Random(seed), CLIENTS, ops_per_client, REGISTERS)


def _run(workload, faults=NetFaultPlan.none(), crashes=None, seed="t"):
    return run_workload(workload, REGISTERS, REPLICAS, 1.0, seed, faults, crashes)


class TestCampaign:
    def test_two_rotations_are_linearizable(self):
        # Six faults rotate loss, spike, partition twice over.
        campaign = sample_net_campaign("tier1", faults=6)
        report = run_net_campaign(campaign, schedules=12)
        assert report.ok, report.failing
        assert report.schedules_run == 12

    def test_campaign_is_deterministic(self):
        loss = NetFaultPlan(losses=(MessageLoss(rate=0.3, start=0.0, end=6.0),))
        first = _run(_workload(42), faults=loss)
        second = _run(_workload(42), faults=loss)
        assert first == second
        # The loss draws were taken, and replayed.
        assert first.net_stats["messages_dropped"] > 0

    def test_different_seeds_draw_different_schedules(self):
        a, b = _workload(1), _workload(2)
        assert a != b
        written = [value for client in a for kind, _reg, value in client
                   if kind == "write"]
        assert len(written) == len(set(written))  # written values are unique

    def test_schedules_exercise_real_operations(self):
        # A client crashed mid-workload leaves its invocation pending; the
        # checker must explain the history either way.
        run = _run(_workload(7, ops_per_client=6),
                   crashes=CrashSchedule(at_time={0: 2.5}))
        assert run.operations > 0 and run.pending > 0
        assert run.failing == ()

    def test_traced_schedule_carries_one_window_record_per_fault(self):
        faults = NetFaultPlan(
            losses=(MessageLoss(rate=0.1, start=1.0, end=3.0),),
            spikes=(DelaySpike(start=0.0, end=2.0, stretch=2.0),),
            partitions=(Partition(start=2.0, end=4.0, groups=((0, 1, 2, 3), (4,))),),
        )
        tracer = Tracer()
        with trace_scope(tracer):
            _run(_workload(0), faults=faults)
        windows = [r["fault"] for r in tracer.take() if r["kind"] == "window"]
        assert windows == ["loss", "spike", "partition"]
