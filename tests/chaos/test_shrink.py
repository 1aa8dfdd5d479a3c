"""Tests for the delta-debugging shrinker, including the acceptance demo."""

import pytest

from repro.chaos.artifact import artifact_from_net, attach_observability, replay
from repro.chaos.monitors import ChaosViolation
from repro.chaos.plan import Campaign, sample_net_campaign, sample_sim_campaign
from repro.chaos.runner import (
    NetParams,
    run_sim,
    run_sim_campaign,
    sample_net_workload,
    sim_target,
)
from repro.chaos.shrink import (
    ShrinkResult,
    _ddmin_field,
    _narrow_windows,
    _Session,
    ddmin,
    shrink_net,
    shrink_sim,
)
from repro.sim.failures import failure_window


class TestDdmin:
    def test_single_culprit_isolated(self):
        trace = []

        def fails(candidate):
            trace.append(tuple(candidate))
            return 7 in candidate

        assert ddmin(list(range(20)), fails) == [7]

    def test_pair_of_culprits_isolated(self):
        def fails(candidate):
            return 3 in candidate and 15 in candidate

        assert sorted(ddmin(list(range(20)), fails)) == [3, 15]

    def test_requires_failing_input(self):
        with pytest.raises(ValueError):
            ddmin([1, 2, 3], lambda c: False)

    def test_empty_failure_shrinks_to_nothing(self):
        assert ddmin([1, 2, 3], lambda c: True) == []

    def test_empty_input(self):
        assert ddmin([], lambda c: True) == []


def _fake_session(predicate):
    """A _Session whose oracle is a plain (campaign, payload) predicate."""

    def reproduce(campaign, payload):
        if predicate(campaign, payload):
            return ChaosViolation("m", "failed", 0)
        return None

    return _Session(reproduce, "m")


class TestSessionAndPasses:
    def test_session_memoizes_and_counts(self):
        calls = []
        session = _fake_session(lambda c, p: calls.append(1) or True)
        campaign = Campaign(substrate="sim", seed="s")
        assert session.fails(campaign, (1, 2))
        assert session.fails(campaign, (1, 2))  # memo hit
        assert session.executions == 1 and len(calls) == 1

    def test_session_ignores_other_monitors(self):
        session = _Session(
            lambda c, p: ChaosViolation("other", "different bug", 0), "m"
        )
        assert not session.fails(Campaign(substrate="sim", seed="s"), ())

    def test_ddmin_field_keeps_only_load_bearing_window(self):
        w_noise1 = failure_window(0.0, 1.0)
        w_culprit = failure_window(5.0, 6.0, stretch=3.0)
        w_noise2 = failure_window(8.0, 9.0)
        campaign = Campaign(substrate="sim", seed="s",
                            windows=(w_noise1, w_culprit, w_noise2))
        session = _fake_session(lambda c, p: w_culprit in c.windows)
        shrunk = _ddmin_field(session, campaign, (), "windows")
        assert shrunk.windows == (w_culprit,)

    def test_narrow_windows_converges_on_critical_instant(self):
        # The bug needs the window to cover t=7.3; narrowing should close
        # in on a sliver around it.
        campaign = Campaign(substrate="sim", seed="s",
                            windows=(failure_window(0.0, 64.0),))
        session = _fake_session(
            lambda c, p: all(w.start <= 7.3 < w.end for w in c.windows)
        )
        narrowed = _narrow_windows(session, campaign, (), min_width=0.5)
        (window,) = narrowed.windows
        assert window.start <= 7.3 < window.end
        assert window.end - window.start <= 1.0

    def test_narrow_windows_skips_open_ended(self):
        import math

        campaign = Campaign(substrate="sim", seed="s",
                            windows=(failure_window(0.0, math.inf),))
        session = _fake_session(lambda c, p: True)
        assert _narrow_windows(session, campaign, ()) == campaign


class TestShrinkSim:
    def test_non_reproducing_failure_returns_none(self):
        target = sim_target("fischer_n3")
        campaign = Campaign(substrate="sim", seed="s")
        # An all-same-pid schedule cannot violate mutual exclusion.
        assert shrink_sim(target, campaign, [0, 0, 0],
                          monitor="mutual_exclusion") is None

    # sizes: (schedules run, failing schedule length, violation step,
    # shrunk schedule length, shrunk fault count, shrink executions).
    @pytest.mark.parametrize("seed, sizes", [
        ("demo-a", (5, 34, 8, 6, 0, 28)),
        ("s1", (2, 40, 26, 6, 0, 65)),
    ], ids=["demo-a", "s1"])
    def test_acceptance_demo(self, seed, sizes, tmp_path):
        """Acceptance demo: a Fischer n=3 violation under a 6-window
        campaign shrinks to <= 1 window and <= 25% of the schedule, and
        ``python -m repro.chaos replay`` reproduces it identically.  The
        exact sizes pin the scheduler, the monitors and the shrinker."""
        from repro.chaos.__main__ import main as chaos_main
        from repro.chaos.artifact import artifact_from_sim, save_artifact

        target = sim_target("fischer_n3")
        campaign = sample_sim_campaign(seed, pids=target.pids, windows=6)
        assert len(campaign.windows) == 6
        report = run_sim_campaign(target, campaign, schedules=20)
        assert not report.ok, "expected a violation for this seed"
        outcome = report.failing
        violation = outcome.find("mutual_exclusion")
        assert violation is not None

        shrunk = shrink_sim(target, campaign, outcome.schedule,
                            monitor="mutual_exclusion")
        assert shrunk is not None
        assert len(shrunk.campaign.windows) <= 1
        assert shrunk.payload_reduction <= 0.25
        assert shrunk.violation.monitor == "mutual_exclusion"
        assert (report.schedules_run, len(outcome.schedule), violation.step,
                len(shrunk.payload), shrunk.campaign.fault_count,
                shrunk.executions) == sizes

        # Shrinking must preserve reproducibility: the exact CLI replay.
        artifact = artifact_from_sim(target.name, outcome,
                                     violation=violation, shrunk=shrunk)
        path = tmp_path / f"{seed}.json"
        save_artifact(artifact, path)
        assert chaos_main(["replay", str(path)]) == 0

    def test_shrink_keeps_load_bearing_crash(self):
        # A wedge caused by a crash cannot lose its crash entry.
        target = sim_target("fischer_n3")
        campaign = Campaign(substrate="sim", seed="wedge",
                            crash_after=((0, 3),))
        outcome = run_sim(target, campaign, run_seed="0")
        violation = outcome.find("convergence")
        assert violation is not None
        shrunk = shrink_sim(target, campaign, outcome.schedule,
                            monitor="convergence")
        assert shrunk is not None
        assert shrunk.campaign.crash_after == ((0, 3),)

    def test_result_bookkeeping(self):
        target = sim_target("fischer_n3")
        campaign = sample_sim_campaign("demo-a", pids=target.pids, windows=6)
        report = run_sim_campaign(target, campaign, schedules=20)
        outcome = report.failing
        shrunk = shrink_sim(target, campaign, outcome.schedule,
                            monitor="mutual_exclusion")
        assert isinstance(shrunk, ShrinkResult)
        assert shrunk.original_campaign == campaign
        assert shrunk.original_payload == outcome.schedule
        assert shrunk.executions > 0 and shrunk.rounds >= 1
        assert "executions" in shrunk.summary()


class TestShrinkNet:
    """ABD yields no natural violation, so the net driver is exercised
    through a ``run_net`` that adds one: a write by client 0 under any
    loss or delay spike."""

    @pytest.fixture
    def failing_run_net(self, monkeypatch):
        from repro.chaos import artifact, runner, shrink

        def run_net(campaign, workload, params=NetParams(), run_seed=None):
            outcome = runner.run_net(campaign, workload, params, run_seed)
            if any(op[0] == "write" for op in workload[0]) and (
                campaign.losses or campaign.spikes
            ):
                outcome.violations.append(ChaosViolation(
                    "linearizability", "synthetic", outcome.operations
                ))
            return outcome

        monkeypatch.setattr(shrink, "run_net", run_net)
        monkeypatch.setattr(artifact, "run_net", run_net)
        return run_net

    def test_shrinks_to_one_write_and_one_spike(self, failing_run_net):
        campaign = sample_net_campaign("2")
        workload = sample_net_workload(campaign, "0", NetParams())
        shrunk = shrink_net(campaign, workload, run_seed="0")
        assert shrunk.payload == ((("write", 1, 1),), ())
        assert shrunk.campaign.fault_count == 1 and len(shrunk.campaign.spikes) == 1
        # The execution count is written into artifact provenance.
        assert (shrunk.executions, shrunk.rounds) == (13, 2)
        assert shrink_net(campaign, ((("read", 0, None),), ()), run_seed="0") is None

    def test_shrunk_net_artifact_replays(self, failing_run_net):
        params = NetParams()
        campaign = sample_net_campaign("2")
        workload = sample_net_workload(campaign, "0", params)
        outcome = failing_run_net(campaign, workload, params, "0")
        shrunk = shrink_net(campaign, workload, run_seed="0")
        art = attach_observability(artifact_from_net(outcome, params, shrunk=shrunk))
        assert art.provenance["shrink_executions"] == 13
        assert art.net_stats is not None and art.timeliness is not None
        report = replay(art)
        assert report.ok, report.detail
        assert report.detail == "linearizability @step 1 reproduced"
