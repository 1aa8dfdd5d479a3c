"""Tests for the heartbeat failure detector and Ω-style election."""

import pytest

from repro.net import (
    DelaySpike,
    HeartbeatMonitor,
    NetFaultPlan,
    OmegaElection,
    Transport,
    eventual_agreement,
)
from repro.sim import ConstantTiming, CrashSchedule, Engine


def run_omega(omega, n, rounds, spikes=(), crashes=None, max_time=50_000.0):
    """Run ``n`` of ``omega``'s nodes over a transport with delivery bound
    0.5 — well inside the optimistic timeouts unless a spike strikes."""
    transport = Transport(omega.n, bound=0.5, seed=0,
                          faults=NetFaultPlan(spikes=tuple(spikes)))
    eng = Engine(delta=1.0, timing=ConstantTiming(0.1), crashes=crashes,
                 max_time=max_time, transport=transport)
    for pid in range(n):
        eng.spawn(omega.run(pid, rounds), pid=pid)
    res = eng.run()
    return res, dict(res.returns)


# Node 0's links deliver 12 periods late for a while: the networked
# timing failure, far past every optimistic timeout below.
STALL = DelaySpike(5.0, 15.0, extra=12.0, pids=(0,))


class TestHeartbeatMonitor:
    def test_initially_trusting(self):
        m = HeartbeatMonitor(0, {1, 2}, initial_timeout=2.0)
        assert m.suspected == set()
        assert m.leader() == 0

    def test_suspicion_after_timeout(self):
        m = HeartbeatMonitor(2, {0, 1}, initial_timeout=2.0)
        m.update_suspicions(now=5.0)
        assert m.suspected == {0, 1}
        assert m.leader() == 2

    def test_heartbeat_refreshes(self):
        m = HeartbeatMonitor(2, {0}, initial_timeout=2.0)
        m.observe_heartbeat(0, now=4.0)
        m.update_suspicions(now=5.0)
        assert m.suspected == set()
        assert m.leader() == 0

    def test_false_suspicion_grows_timeout(self):
        m = HeartbeatMonitor(1, {0}, initial_timeout=2.0, timeout_growth=2.0)
        m.update_suspicions(now=3.0)
        assert m.suspected == {0}
        m.observe_heartbeat(0, now=4.0)
        assert m.suspected == set()
        assert m.timeout[0] == 4.0
        assert m.false_suspicions == 1

    def test_excuse_restarts_only_unsuspected_peers(self):
        m = HeartbeatMonitor(2, {0, 1}, initial_timeout=2.0)
        m.observe_heartbeat(1, now=2.0)
        m.update_suspicions(now=3.0)
        assert m.suspected == {0}
        m.excuse(now=10.0)
        m.update_suspicions(now=11.0)
        assert m.suspected == {0}
        assert m.last_heartbeat == {0: 0.0, 1: 10.0}

    def test_validation(self):
        with pytest.raises(ValueError):
            HeartbeatMonitor(0, {1}, initial_timeout=0)
        with pytest.raises(ValueError):
            HeartbeatMonitor(0, {1}, initial_timeout=1, timeout_growth=1.0)


class TestOmegaClean:
    def test_everyone_elects_lowest_pid(self):
        n = 4
        omega = OmegaElection(n, heartbeat_period=1.0, initial_timeout=3.0)
        res, samples = run_omega(omega, n, rounds=10)
        leader = eventual_agreement(samples)
        assert leader == 0

    def test_crashed_lowest_pid_is_replaced(self):
        n = 4
        omega = OmegaElection(n, heartbeat_period=1.0, initial_timeout=3.0)
        res, samples = run_omega(
            omega, n, rounds=25,
            crashes=CrashSchedule(at_time={0: 5.0}),
        )
        survivors = {pid: s for pid, s in samples.items() if pid != 0}
        leader = eventual_agreement(survivors)
        assert leader == 1

    def test_solo_process_elects_itself(self):
        omega = OmegaElection(3, heartbeat_period=1.0, initial_timeout=2.0)
        res, samples = run_omega(omega, 1, rounds=8)
        assert all(s.leader == 0 for s in samples[0][2:])


class TestOmegaUnderTimingFailures:
    def test_convergence_after_window(self):
        """The resilience shape for Ω: churn during the window, agreement
        after — with the adaptive timeout preventing repeat churn."""
        n = 3
        omega = OmegaElection(n, heartbeat_period=1.0, initial_timeout=2.5,
                              timeout_growth=2.0)
        res, samples = run_omega(omega, n, rounds=60, spikes=[STALL])
        leader = eventual_agreement(samples, tail_fraction=0.2)
        assert leader == 0  # pid 0 survived; after adaptation it leads again

    def test_suspicion_churn_happens_during_window(self):
        n = 3
        omega = OmegaElection(n, heartbeat_period=1.0, initial_timeout=2.5)
        res, samples = run_omega(omega, n, rounds=60, spikes=[STALL])
        # Someone suspected pid 0 at some point (the window's footprint).
        suspected_zero = any(
            0 in s.suspected
            for pid in (1, 2)
            for s in samples.get(pid, [])
        )
        assert suspected_zero
