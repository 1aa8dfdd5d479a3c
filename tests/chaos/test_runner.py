"""Tests for campaign execution on both substrates."""

import math
import random

import pytest

from repro.chaos.monitors import ChaosViolation
from repro.chaos.plan import Campaign, MemCorruption, sample_net_campaign, sample_sim_campaign
from repro.chaos.runner import (
    SIM_TARGETS,
    NetParams,
    SimTarget,
    _stalls,
    run_net,
    run_net_campaign,
    run_sim,
    run_sim_campaign,
    sample_net_workload,
    seed_key,
    sim_target,
)
from repro.obs import Tracer, trace_scope
from repro.sim import ops
from repro.sim.failures import TimingFailureWindow, failure_window
from repro.sim.registers import Register
from repro.verify.properties import InvariantProperty


class TestTargets:
    def test_registry_has_the_standard_targets(self):
        assert set(SIM_TARGETS) == {
            "fischer_n3",
            "alg3_n4",
            "consensus_n4",
            "dg_mutex_n3",
            "golab_consensus_n3",
        }

    def test_recover_flags(self):
        assert sim_target("dg_mutex_n3").recover
        assert sim_target("dg_mutex_n3").corruptible == ("S0", "S1", "S2")
        assert sim_target("golab_consensus_n3").recover
        assert not sim_target("fischer_n3").recover

    def test_unknown_target_rejected_with_suggestions(self):
        with pytest.raises(KeyError, match="fischer_n3"):
            sim_target("fischer_n99")

    def test_builds_are_fresh_per_call(self):
        target = sim_target("fischer_n3")
        f1, p1, r1 = target.build()
        f2, p2, r2 = target.build()
        assert f1 is not f2 and r1["x"] is not r2["x"]


def _counter_target(max_ops=10):
    """A tiny two-process target over one register, for focused tests."""
    register_box = {}

    def build():
        reg = Register("cnt", 0)
        register_box["reg"] = reg

        def prog(pid):
            for _ in range(3):
                v = yield ops.read(reg)
                yield ops.write(reg, v + 1)

        prop = InvariantProperty(
            lambda sb: sb.memory.peek(register_box["reg"]) < 99,
            name="no99", message="register hit 99",
        )
        return {0: prog, 1: prog}, [prop], {"cnt": reg}

    return SimTarget("counter", "test target", build, max_ops=max_ops,
                     pids=(0, 1), expect_violation=False)


def _assert_replays_identically(target, campaign, generated, max_steps):
    replayed = run_sim(
        target, campaign, schedule=generated.schedule, max_steps=max_steps
    )
    assert (replayed.steps, replayed.schedule, replayed.violations) == (
        generated.steps, generated.schedule, generated.violations)


class TestRunSimGeneration:
    def test_deterministic_per_run_seed(self):
        target = sim_target("fischer_n3")
        campaign = sample_sim_campaign("det", pids=target.pids)
        a = run_sim(target, campaign, run_seed="0")
        b = run_sim(target, campaign, run_seed="0")
        c = run_sim(target, campaign, run_seed="1")
        assert a.schedule == b.schedule and a.violations == b.violations
        assert a.schedule != c.schedule

    def test_replay_of_generated_schedule_is_identical(self):
        # The core determinism claim: feeding the recorded schedule back
        # reproduces the execution exactly, violations included.
        target = sim_target("fischer_n3")
        campaign = sample_sim_campaign("det", pids=target.pids)
        generated = run_sim(target, campaign, run_seed="3")
        replayed = run_sim(target, campaign, schedule=list(generated.schedule))
        assert replayed.schedule == generated.schedule
        assert replayed.violations == generated.violations

    # Generation and replay share one step body; what differs is where
    # the next pid comes from, so the two ways a generated run can end
    # other than "everyone finished" must replay to the same place.

    def test_replay_reproduces_a_run_cut_by_the_step_budget(self):
        target = sim_target("fischer_n3")
        campaign = sample_sim_campaign("demo-a", pids=target.pids, windows=6)
        generated = run_sim(target, campaign, run_seed="4", max_steps=12)
        assert generated.steps == 12 and not generated.done
        assert generated.find("mutual_exclusion").step == 8
        _assert_replays_identically(target, campaign, generated, 12)

    def test_replay_reproduces_a_run_ending_on_a_restart_fast_forward(self):
        # pid 0 crashes at 2 and pid 1 finishes well inside the budget;
        # idle time then jumps the clock to the restart at 50 — past
        # max_steps — where the new incarnation takes the run's last step.
        campaign = Campaign(
            substrate="sim", seed="ff",
            crash_at=((0, 2.0),), recover_at=((0, 50.0),),
        )
        target = _counter_target()
        generated = run_sim(target, campaign, run_seed="0", max_steps=20)
        assert generated.steps == 51 and len(generated.schedule) == 9
        _assert_replays_identically(target, campaign, generated, 20)

    def test_wrong_substrate_rejected(self):
        target = sim_target("fischer_n3")
        with pytest.raises(ValueError):
            run_sim(target, sample_net_campaign("n"))

    def test_crash_after_zero_silences_pid(self):
        campaign = Campaign(substrate="sim", seed="c", crash_after=((0, 0),))
        outcome = run_sim(_counter_target(), campaign, run_seed="0")
        assert 0 not in outcome.schedule
        assert 1 in outcome.schedule

    def test_crash_at_logical_time_stops_pid(self):
        campaign = Campaign(substrate="sim", seed="c", crash_at=((0, 2.0),))
        outcome = run_sim(_counter_target(), campaign, run_seed="0")
        assert 0 not in outcome.schedule[2:]

    def test_corruption_applied_at_logical_time(self):
        campaign = Campaign(
            substrate="sim", seed="c",
            corruptions=(MemCorruption(at=0.0, register="cnt", value=99),),
        )
        outcome = run_sim(_counter_target(), campaign, run_seed="0")
        violation = outcome.find("no99")
        assert violation is not None and violation.step == 1

    def test_unknown_corruption_register_is_an_error(self):
        campaign = Campaign(
            substrate="sim", seed="c",
            corruptions=(MemCorruption(at=0.0, register="nope", value=1),),
        )
        with pytest.raises(ValueError, match="nope"):
            run_sim(_counter_target(), campaign, run_seed="0")

    def test_window_freezes_affected_pid_while_others_run(self):
        # Pid 0 is stalled by an always-open window, so the scheduler must
        # drain pid 1 completely before touching pid 0.
        campaign = Campaign(
            substrate="sim", seed="w",
            windows=(failure_window(0.0, 1e9, pids=[0]),),
        )
        outcome = run_sim(_counter_target(), campaign, run_seed="0")
        first_zero = outcome.schedule.index(0)
        assert set(outcome.schedule[:first_zero]) == {1}
        assert outcome.done  # freezing is a bias, not a deadlock

    def test_stop_monitor_cuts_the_run_short(self):
        campaign = Campaign(
            substrate="sim", seed="c",
            corruptions=(MemCorruption(at=0.0, register="cnt", value=99),),
        )
        outcome = run_sim(_counter_target(), campaign, run_seed="0",
                          stop_monitor="no99")
        assert outcome.steps == 1 and not outcome.done

    def test_outcome_helpers(self):
        campaign = Campaign(substrate="sim", seed="c")
        outcome = run_sim(_counter_target(), campaign, run_seed="0")
        assert outcome.ok and outcome.find("no99") is None
        assert "ok" in repr(outcome)


class TestStallSets:
    """``run_sim`` recomputes who the windows stall only at window edges."""

    PIDS = frozenset(range(4))
    MAX_STEPS = 40

    WINDOWS = (
        TimingFailureWindow(0.0, 3.0, pids=frozenset({0})),  # starts at 0
        TimingFailureWindow(2.5, 7.25, pids=frozenset({1, 2})),  # fractional
        TimingFailureWindow(5.0, 9.0, pids=frozenset({2, 3})),  # overlaps
        TimingFailureWindow(6.5, 6.5, pids=frozenset({0})),  # zero length
        TimingFailureWindow(6.2, 6.8, pids=frozenset({3})),  # no integer inside
        TimingFailureWindow(12.0, 14.0),  # pids=None: everyone
        TimingFailureWindow(30.4, 55.0, pids=frozenset({1})),  # past max_steps
    )

    def expected(self, windows, clock):
        return {p for p in self.PIDS if any(w.affects(p, clock) for w in windows)}

    @pytest.mark.parametrize("count", [0, 1, 2, len(WINDOWS)])
    def test_the_stall_set_is_reused_only_until_the_next_edge(self, count):
        windows = self.WINDOWS[:count]
        stalled, until = _stalls(windows, self.PIDS, 0)
        recomputed = []
        for clock in range(self.MAX_STEPS + 1):
            if clock >= until:  # what run_sim does at each generated step
                stalled, until = _stalls(windows, self.PIDS, clock)
                recomputed.append(clock)
            assert stalled == self.expected(windows, clock), clock
            # settle() may jump the clock past edges: computing afresh at
            # any clock gives the same set and the same next edge.
            assert _stalls(windows, self.PIDS, clock) == (stalled, until), clock
        if count == len(self.WINDOWS):
            assert stalled == {1} and until == 55
            assert recomputed == [3, 5, 7, 8, 9, 12, 14, 31]
        elif not windows:
            assert until == math.inf and recomputed == []

    def test_an_endless_window_sets_no_edge(self):
        window = TimingFailureWindow(2.0, math.inf, pids=frozenset({1}))
        assert _stalls((window,), self.PIDS, 0) == (frozenset(), 2)
        assert _stalls((window,), self.PIDS, 2) == ({1}, math.inf)


class TestInlinedDraw:
    """``run_sim`` draws the next pid as ``random.Random.choice`` does,
    without calling it: a CPython change to ``choice`` fails here before
    any pinned schedule moves."""

    STEPS = 6

    @staticmethod
    def spinners(n):
        """``n`` pids that read forever: the runnable list is always all."""
        reg = Register("spin", 0)

        def build():
            def prog(pid):
                while True:
                    yield ops.read(reg)

            return {pid: prog for pid in range(n)}, [], {}

        return SimTarget(f"spin{n}", "never finishes", build, max_ops=100,
                         pids=tuple(range(n)), expect_violation=False)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_the_draw_is_random_choice(self, n):
        target = self.spinners(n)
        campaign = Campaign(substrate="sim", seed="draw")
        pids = list(range(n))
        for seed in range(1000):
            run_seed = str(seed)
            outcome = run_sim(target, campaign, run_seed=run_seed,
                              max_steps=self.STEPS, monitors=[])
            rng = random.Random(seed_key(campaign, run_seed))
            assert list(outcome.schedule) == [rng.choice(pids) for _ in range(self.STEPS)], seed


class TestRunSimCampaign:
    def test_finds_fischer_violation(self):
        target = sim_target("fischer_n3")
        campaign = sample_sim_campaign("demo-a", pids=target.pids, windows=6)
        report = run_sim_campaign(target, campaign, schedules=20)
        assert not report.ok
        assert report.failing.find("mutual_exclusion") is not None
        assert report.schedules_run <= 20

    def test_clean_campaign_reports_ok(self):
        campaign = Campaign(substrate="sim", seed="clean")
        report = run_sim_campaign(_counter_target(), campaign, schedules=3)
        assert report.ok and report.schedules_run == 3
        assert "ok" in repr(report)


class TestRunNet:
    def test_deterministic_and_clean_on_abd(self):
        params = NetParams()
        campaign = sample_net_campaign("net-1")
        workload = sample_net_workload(campaign, "0", params)
        a = run_net(campaign, workload, params=params, run_seed="0")
        b = run_net(campaign, workload, params=params, run_seed="0")
        assert a.ok  # ABD under faults must stay linearizable
        assert (a.operations, a.pending, a.status) == (
            b.operations, b.pending, b.status)

    def test_traced_run_carries_one_window_record_per_fault(self):
        params = NetParams()
        campaign = sample_net_campaign("net-1", severity=2.0)
        plan = campaign.net_plan()
        expected = sorted(
            ["loss"] * len(plan.losses) + ["spike"] * len(plan.spikes)
            + ["partition"] * len(plan.partitions)
        )
        assert expected  # the campaign does carry net-side faults
        tracer = Tracer()
        with trace_scope(tracer):
            run_net(campaign, sample_net_workload(campaign, "0", params),
                    params=params, run_seed="0")
        records = tracer.take()
        assert [r["kind"] for r in records[:1]] == ["run"]
        assert sorted(
            r["fault"] for r in records if r["kind"] == "window"
        ) == expected

    def test_workload_sampling_deterministic(self):
        params = NetParams()
        campaign = sample_net_campaign("net-1")
        assert sample_net_workload(campaign, "0", params) == \
            sample_net_workload(campaign, "0", params)
        assert sample_net_workload(campaign, "0", params) != \
            sample_net_workload(campaign, "1", params)

    def test_workload_shape_validated(self):
        campaign = sample_net_campaign("net-1")
        with pytest.raises(ValueError):
            run_net(campaign, ((("read", 0, None),),), params=NetParams(clients=2))

    def test_wrong_substrate_rejected(self):
        campaign = sample_sim_campaign("s", pids=(0, 1))
        with pytest.raises(ValueError):
            run_net(campaign, ((), ()))

    def test_run_net_campaign_clean(self):
        campaign = sample_net_campaign("net-2")
        report = run_net_campaign(campaign, schedules=2)
        assert report.ok and report.schedules_run == 2


@pytest.mark.slow
class TestNetAcceptance:
    def test_thousand_plus_net_chaos_runs_stay_linearizable(self):
        # The ABD emulation's acceptance bar: >= 1000 runs over sampled
        # campaigns (loss, spikes, partitions, a crashed replica minority,
        # a crashed client), every history linearizable, and the crashed
        # clients really leave operations pending for the checker.
        params = NetParams()
        runs = pending = 0
        for index in range(126):
            campaign = sample_net_campaign(f"acceptance-{index}")
            for run_seed in map(str, range(8)):
                workload = sample_net_workload(campaign, run_seed, params)
                outcome = run_net(campaign, workload, params=params,
                                  run_seed=run_seed)
                assert outcome.ok, (campaign, run_seed, outcome)
                runs += 1
                pending += outcome.pending > 0
        assert runs == 1008
        assert pending > 0
