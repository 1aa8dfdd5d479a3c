"""Tests for the schedule fuzzer."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.algorithms import FischerLock, mutex_session
from repro.chaos.monitors import SafetyMonitor
from repro.chaos.plan import Campaign
from repro.chaos.runner import SimTarget, run_sim, run_sim_campaign
from repro.core.consensus import TimeResilientConsensus, labeled_decision
from repro.core.mutex import default_time_resilient_mutex
from repro.obs import Tracer, trace_scope
from repro.sim import ops
from repro.sim.failures import failure_window
from repro.sim.registers import Register
from repro.verify import (
    AgreementProperty,
    InvariantProperty,
    MutualExclusionProperty,
    ValidityProperty,
    Violation,
    fuzz,
    replay_schedule,
)

X = Register("fz", 0)


class TestMechanics:
    def test_counts_and_completion(self):
        def prog(pid):
            yield ops.write(X, pid)

        res = fuzz({0: prog, 1: prog}, [], schedules=10, max_ops=5, seed=1)
        assert res.ok
        assert res.schedules_run == 10
        assert res.completed_runs == 10
        assert res.steps_taken == 20

    def test_deterministic_per_seed(self):
        def prog(pid):
            v = yield ops.read(X)
            yield ops.write(X, v + 1)

        a = fuzz({0: prog, 1: prog}, [], schedules=5, seed=3)
        b = fuzz({0: prog, 1: prog}, [], schedules=5, seed=3)
        assert a.steps_taken == b.steps_taken

    def test_violation_schedule_replayable(self):
        def prog(pid):
            v = yield ops.read(X)
            yield ops.write(X, v + 1)

        prop = InvariantProperty(lambda sb: sb.memory.peek(X) < 2,
                                 name="x<2", message="x hit 2")
        res = fuzz({0: prog, 1: prog}, [prop], schedules=100, seed=0)
        assert not res.ok
        sb = replay_schedule({0: prog, 1: prog}, res.violations[0].schedule,
                             max_ops=200)
        assert sb.memory.peek(X) == 2

    def test_negative_schedules_rejected(self):
        with pytest.raises(ValueError):
            fuzz({}, [], schedules=-1)


class TestEmptyPlanChaosRun:
    """A fuzz run is ``run_sim`` on the empty campaign, run seed = index."""

    def _prog(self, pid):
        for _ in range(3):
            v = yield ops.read(X)
            yield ops.write(X, v + 1)

    def _factories(self):
        return {pid: self._prog for pid in range(3)}

    def test_a_fuzz_run_is_run_sim_on_the_empty_campaign(self):
        prop = InvariantProperty(lambda sb: sb.memory.peek(X) < 4,
                                 name="x<4", message="x hit 4")
        fuzzed, direct = Tracer(), Tracer()
        with trace_scope(fuzzed):
            res = fuzz(self._factories(), [prop], schedules=1, first_index=5,
                       seed=7, stop_at_first_violation=False)
        target = SimTarget("fuzz", "", lambda: (self._factories(), [], {}),
                           max_ops=200, pids=(0, 1, 2), expect_violation=False)
        with trace_scope(direct):
            outcome = run_sim(target, Campaign(substrate="sim", seed="7"),
                              run_seed="5", max_steps=600,
                              monitors=[SafetyMonitor(prop)])
        records = fuzzed.take()
        assert records and records == direct.take()
        ops_seen = [r["pid"] for r in records if r["kind"] == "op"]
        assert ops_seen == list(outcome.schedule)
        assert res.steps_taken == outcome.steps == len(outcome.schedule)
        assert outcome.violations
        assert res.violations == [
            Violation(v.monitor, v.message, outcome.schedule[:v.step])
            for v in outcome.violations
        ]

    def test_stop_at_first_counts_steps_up_to_the_violation(self):
        prop = InvariantProperty(lambda sb: sb.memory.peek(X) < 1,
                                 name="x<1", message="x hit 1")
        res = fuzz(self._factories(), [prop], schedules=10, seed=0)
        assert res.schedules_run == 1 and res.completed_runs == 0
        (failure,) = res.failures
        assert res.steps_taken == len(failure.violation.schedule)
        assert res.steps_taken < 18  # the run did not count its tail


class TestOnAlgorithms:
    def test_fischer_violation_found_by_fuzzing(self):
        lock = FischerLock(delta=1.0)
        factories = {
            pid: (lambda p: mutex_session(lock, p, sessions=1, cs_duration=1.0))
            for pid in range(3)  # three processes: beyond easy DFS
        }
        res = fuzz(factories, [MutualExclusionProperty()], schedules=500,
                   max_ops=40, seed=4)
        assert not res.ok

    def test_alg3_survives_heavy_fuzzing_n4(self):
        """Four processes — out of exhaustive reach, easy for the fuzzer."""
        lock = default_time_resilient_mutex(4, delta=1.0)
        factories = {
            pid: (lambda p: mutex_session(lock, p, sessions=1, cs_duration=1.0))
            for pid in range(4)
        }
        res = fuzz(factories, [MutualExclusionProperty()], schedules=150,
                   max_ops=120, seed=5)
        assert res.ok, res.violations[:1]

    def test_consensus_safety_fuzzed_n4(self):
        consensus = TimeResilientConsensus(delta=1.0, max_rounds=3)
        inputs = {pid: pid % 2 for pid in range(4)}
        factories = {
            pid: (lambda p: labeled_decision(consensus.propose(p, inputs[p])))
            for pid in inputs
        }
        res = fuzz(
            factories,
            [AgreementProperty(), ValidityProperty(inputs)],
            schedules=150,
            max_ops=80,
            seed=6,
        )
        assert res.ok, res.violations[:1]

    def test_biased_fuzzing_emulates_slow_process(self):
        """A 20x speed skew (the adversarial mix) still never breaks Alg 1.

        The skew is a campaign: windows stall pid 1 for 19 of every 20
        logical steps, so pid 0 runs far ahead of it.
        """
        def build():
            consensus = TimeResilientConsensus(delta=1.0, max_rounds=3)
            inputs = {0: 0, 1: 1}
            factories = {
                pid: (lambda p: labeled_decision(consensus.propose(p, inputs[p])))
                for pid in inputs
            }
            return factories, [AgreementProperty(), ValidityProperty(inputs)], {}

        target = SimTarget("consensus_n2", "Algorithm 1, 2 processes", build,
                           max_ops=60, pids=(0, 1), expect_violation=False)
        campaign = Campaign(
            substrate="sim", seed="7",
            windows=tuple(failure_window(20.0 * k, 20.0 * k + 19.0, pids=[1])
                          for k in range(6)),
        )
        report = run_sim_campaign(target, campaign, schedules=200)
        assert report.ok, report.failing
        assert report.schedules_run == 200


class TestFailureCollection:
    """Collect-all mode: every violation, each with its replay recipe."""

    def _prog(self, pid):
        v = yield ops.read(X)
        yield ops.write(X, v + 1)

    def test_collect_all_keeps_fuzzing_past_first_hit(self):
        prop = InvariantProperty(lambda sb: sb.memory.peek(X) < 2,
                                 name="x<2", message="x hit 2")
        first = fuzz({0: self._prog, 1: self._prog}, [prop],
                     schedules=50, seed=0)
        both = fuzz({0: self._prog, 1: self._prog}, [prop],
                    schedules=50, seed=0, stop_at_first_violation=False)
        assert len(first.failures) == 1
        assert first.schedules_run < 50
        assert both.schedules_run == 50
        assert len(both.failures) > 1

    def test_each_property_fires_at_most_once_per_run(self):
        # The broken state persists for the rest of the run; the report
        # must not flood with one violation per subsequent step.
        prop = InvariantProperty(lambda sb: sb.memory.peek(X) < 1,
                                 name="x<1", message="x hit 1")
        res = fuzz({0: self._prog, 1: self._prog}, [prop],
                   schedules=10, seed=0, stop_at_first_violation=False)
        assert len(res.failures) == 10  # every run trips it exactly once

    def test_failure_carries_seed_key_and_replayable_schedule(self):
        prop = InvariantProperty(lambda sb: sb.memory.peek(X) < 2,
                                 name="x<2", message="x hit 2")
        res = fuzz({0: self._prog, 1: self._prog}, [prop],
                   schedules=100, seed=7, stop_at_first_violation=False)
        assert not res.ok
        failure = res.failures[0]
        assert failure.seed_key == f"chaos:7:{failure.run_index}"
        sb = replay_schedule({0: self._prog, 1: self._prog},
                             failure.violation.schedule, max_ops=200)
        assert sb.memory.peek(X) == 2

    def test_two_properties_each_fire_once_per_run(self):
        props = [
            InvariantProperty(lambda sb: sb.memory.peek(X) < 1,
                              name="x<1", message="x hit 1"),
            InvariantProperty(lambda sb: sb.memory.peek(X) < 2,
                              name="x<2", message="x hit 2"),
        ]
        res = fuzz({0: self._prog, 1: self._prog}, props,
                   schedules=20, seed=3, stop_at_first_violation=False)
        for index in range(20):
            names = [f.violation.property_name for f in res.failures
                     if f.run_index == index]
            assert len(names) == len(set(names)) and "x<1" in names

    def test_violations_property_mirrors_failures(self):
        prop = InvariantProperty(lambda sb: sb.memory.peek(X) < 2,
                                 name="x<2", message="x hit 2")
        res = fuzz({0: self._prog, 1: self._prog}, [prop],
                   schedules=100, seed=0, stop_at_first_violation=False)
        assert [f.violation for f in res.failures] == res.violations


def test_running_the_module_fails_and_names_the_chaos_command():
    # The fuzz CLI is gone; a stale ``python -m repro.verify.fuzz`` must
    # not exit 0 having run nothing.
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "repro.verify.fuzz", "--seed", "1"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert ("python -m repro.chaos run --target fischer_n3 --windows 0"
            in done.stderr)
