"""Recover campaigns end-to-end: corruption, restarts, convergence verdicts."""

import dataclasses

import pytest

from repro.chaos.artifact import (
    Artifact,
    artifact_from_sim_verdict,
    load_artifact,
    replay,
    save_artifact,
)
from repro.chaos.monitors import StabilizationMonitor
from repro.chaos.plan import (
    Campaign,
    MemCorruption,
    campaign_from_dict,
    campaign_to_dict,
    sample_recover_campaign,
)
from repro.chaos.runner import (
    STABILIZATION_WINDOW,
    run_sim,
    run_sim_campaign,
    sim_target,
)
from repro.chaos.shrink import _SIM_FAULT_FIELDS
from repro.sim import ops
from repro.sim.registers import Register
from repro.verify.properties import InvariantProperty
from repro.verify.sandbox import Sandbox


class TestEagerCorruptionValidation:
    """A typo'd register name must fail loudly, not silently no-op."""

    def test_unknown_register_raises_up_front(self):
        target = sim_target("dg_mutex_n3")
        campaign = Campaign(
            substrate="sim", seed="typo",
            corruptions=(MemCorruption(at=1.0, register="S9"),),
        )
        with pytest.raises(ValueError, match="unknown register 'S9'"):
            run_sim(target, campaign, run_seed="0")

    def test_message_lists_the_known_registers(self):
        target = sim_target("dg_mutex_n3")
        campaign = Campaign(
            substrate="sim", seed="typo",
            corruptions=(MemCorruption(at=1.0, register="x"),),
        )
        with pytest.raises(ValueError, match=r"\['S0', 'S1', 'S2'\]"):
            run_sim(target, campaign, run_seed="0")

    def test_golab_declares_no_corruptible_registers(self):
        # Scrambling the persistent decision record forges a decision —
        # outside the crash-recovery contract, so every corruption is
        # rejected for this target.
        target = sim_target("golab_consensus_n3")
        assert target.corruptible == ()
        campaign = Campaign(
            substrate="sim", seed="forge",
            corruptions=(MemCorruption(at=1.0, register="D"),),
        )
        with pytest.raises(ValueError, match="unknown register"):
            run_sim(target, campaign, run_seed="0")


class TestRecoverCampaignPlan:
    def test_sample_round_trips_through_json_dict(self):
        c = sample_recover_campaign(
            "rt", pids=(0, 1, 2), corruption_registers=("S0", "S1", "S2")
        )
        assert campaign_from_dict(campaign_to_dict(c)) == c

    def test_every_crash_has_a_later_restart(self):
        for seed in range(8):
            c = sample_recover_campaign(
                seed, pids=(0, 1, 2), corruption_registers=("S0",)
            )
            recover = dict(c.recover_at)
            for pid, when in c.crash_at:
                assert recover[pid] > when

    def test_sampler_validation(self):
        with pytest.raises(ValueError, match="crash_prob"):
            sample_recover_campaign("s", pids=(0,), crash_prob=2.0)
        with pytest.raises(ValueError, match="corruptions"):
            sample_recover_campaign("s", pids=(0,), corruptions=-1)

    def test_orphan_recover_entry_is_a_legal_noop(self):
        # The shrinker may drop a crash and keep its restart; the run
        # must treat the orphan as a no-op, not an error.
        target = sim_target("fischer_n3")
        campaign = Campaign(
            substrate="sim", seed="orphan", recover_at=((0, 5.0),)
        )
        outcome = run_sim(target, campaign, run_seed="0")
        assert outcome.ok and outcome.done

    def test_shrinker_treats_recover_entries_as_fault_content(self):
        assert "recover_at" in _SIM_FAULT_FIELDS
        assert "crash_at" in _SIM_FAULT_FIELDS


_MON = Register("stab_mon", 0)


def _writer(pid):
    yield ops.write(_MON, pid + 1)


class TestStabilizationMonitorUnit:
    def _monitor(self, window=10, quiet=0.0):
        prop = InvariantProperty(
            lambda sb: sb.memory.peek(_MON) == 0,
            name="x-zero", message="x moved",
        )
        campaign = Campaign(substrate="sim", seed="m",
                            corruptions=(MemCorruption(at=quiet, register="x"),))
        return StabilizationMonitor([prop], campaign, window=window)

    def test_window_validated(self):
        with pytest.raises(ValueError, match="window"):
            self._monitor(window=0)

    def test_tolerates_violations_inside_the_window(self):
        monitor = self._monitor(window=10, quiet=2.0)
        sandbox = Sandbox({0: _writer}, max_ops=5)
        sandbox.step(0)  # breaks the invariant
        assert monitor.on_step(sandbox, 5, frozenset()) is None
        assert monitor.on_step(sandbox, 11, frozenset()) is None
        assert monitor._tolerated == 2

    def test_fires_once_after_the_deadline(self):
        monitor = self._monitor(window=10, quiet=2.0)
        sandbox = Sandbox({0: _writer}, max_ops=5)
        sandbox.step(0)
        message = monitor.on_step(sandbox, 12, frozenset())
        assert message is not None and "window closed at 12" in message
        assert monitor.on_step(sandbox, 13, frozenset()) is None

    def test_verdict_on_converged_completion(self):
        monitor = self._monitor(window=10, quiet=2.0)
        sandbox = Sandbox({0: _writer}, max_ops=5)
        sandbox.step(0)
        monitor.on_step(sandbox, 5, frozenset())
        assert sandbox.all_quiescent()
        assert monitor.finalize(sandbox, 6, frozenset()) is None
        assert monitor.verdict is not None
        assert monitor.verdict.monitor == "stabilization"
        assert "tolerated 1 violating state(s)" in monitor.verdict.message

    def test_no_verdict_while_unfinished_pids_remain(self):
        def spinner(pid):
            while True:
                yield ops.read(_MON)

        monitor = self._monitor()
        sandbox = Sandbox({0: spinner}, max_ops=50)
        assert monitor.finalize(sandbox, 3, frozenset()) is None
        assert monitor.verdict is None
        # ...but a crashed pid is not "unfinished"
        monitor.reset()
        assert monitor.finalize(sandbox, 3, frozenset({0})) is None
        assert monitor.verdict is not None


class TestRecoverRuns:
    def test_dg_campaign_converges_with_verdicts(self):
        target = sim_target("dg_mutex_n3")
        campaign = sample_recover_campaign(
            "conv-1", pids=target.pids, corruption_registers=target.corruptible
        )
        assert campaign.fault_count > 0
        report = run_sim_campaign(target, campaign, schedules=3)
        assert report.ok
        assert report.converged
        assert report.verdicts == report.schedules_run == 3
        assert report.first_verdict.monitor == "stabilization"

    def test_replay_reproduces_the_verdict(self):
        target = sim_target("dg_mutex_n3")
        campaign = sample_recover_campaign(
            "replay-1", pids=target.pids,
            corruption_registers=target.corruptible,
        )
        generated = run_sim(target, campaign, run_seed="0")
        assert generated.verdicts, "expected a stabilization verdict"
        replayed = run_sim(target, campaign, schedule=generated.schedule)
        assert replayed.schedule == generated.schedule
        assert replayed.violations == generated.violations
        assert replayed.verdicts == generated.verdicts
        assert replayed.steps == generated.steps

    def test_golab_survives_crash_restart(self):
        target = sim_target("golab_consensus_n3")
        campaign = Campaign(
            substrate="sim", seed="golab-cr",
            crash_at=((0, 2.0), (2, 4.0)),
            recover_at=((0, 9.0), (2, 30.0)),
        )
        report = run_sim_campaign(target, campaign, schedules=3)
        assert report.ok and report.converged

    def test_fischer_contrast_fails_to_converge(self):
        # The same fault class against the non-stabilizing lock: junk in
        # Fischer's register wedges every process on `await x = FREE`
        # forever, and the convergence monitor calls it.
        target = sim_target("fischer_n3")
        campaign = Campaign(
            substrate="sim", seed="wedge",
            corruptions=(MemCorruption(at=0.0, register="x", value=99),),
        )
        outcome = run_sim(target, campaign, run_seed="0")
        assert not outcome.ok
        assert outcome.find("convergence") is not None
        assert not outcome.done

    def test_dg_drains_the_same_fault_class(self):
        # ...while the stabilizing ring drains comparable junk and earns
        # its verdict: the archetype contrast in one pair of tests.
        target = sim_target("dg_mutex_n3")
        campaign = Campaign(
            substrate="sim", seed="drain",
            corruptions=tuple(
                MemCorruption(at=0.0, register=f"S{i}", value=99 + i)
                for i in range(3)
            ),
        )
        outcome = run_sim(target, campaign, run_seed="0")
        assert outcome.ok and outcome.done
        assert outcome.verdicts and outcome.verdicts[0].monitor == "stabilization"


class TestStabilizationArtifact:
    @pytest.fixture(scope="class")
    def verdict_outcome(self):
        target = sim_target("dg_mutex_n3")
        campaign = sample_recover_campaign(
            "art-1", pids=target.pids, corruption_registers=target.corruptible
        )
        outcome = run_sim(target, campaign, run_seed="0")
        assert outcome.ok and outcome.verdicts
        return outcome

    def test_round_trip_preserves_kind(self, verdict_outcome, tmp_path):
        artifact = artifact_from_sim_verdict("dg_mutex_n3", verdict_outcome)
        assert artifact.kind == "stabilization"
        path = save_artifact(artifact, tmp_path / "s.json")
        loaded = load_artifact(path)
        assert loaded == artifact and loaded.kind == "stabilization"

    def test_replay_reproduces_verdict(self, verdict_outcome, tmp_path):
        artifact = artifact_from_sim_verdict("dg_mutex_n3", verdict_outcome)
        report = replay(artifact)
        assert report.ok, report.detail
        assert "zero violations" in report.detail

    def test_replay_detects_verdict_drift(self, verdict_outcome):
        artifact = artifact_from_sim_verdict("dg_mutex_n3", verdict_outcome)
        tampered = dataclasses.replace(
            artifact,
            violation=dataclasses.replace(artifact.violation,
                                          message="something else"),
        )
        report = replay(tampered)
        assert not report.ok and "drift" in report.detail

    def test_requires_a_verdict(self):
        target = sim_target("dg_mutex_n3")
        clean = run_sim(target, Campaign(substrate="sim", seed="calm"),
                        run_seed="0")
        assert clean.ok
        clean.verdicts = []  # as if the run had not converged
        with pytest.raises(ValueError, match="verdict"):
            artifact_from_sim_verdict("dg_mutex_n3", clean)

    def test_kind_validated(self, verdict_outcome):
        artifact = artifact_from_sim_verdict("dg_mutex_n3", verdict_outcome)
        with pytest.raises(ValueError, match="kind"):
            dataclasses.replace(artifact, kind="celebration")
        with pytest.raises(ValueError, match="sim"):
            dataclasses.replace(artifact, substrate="net")


def test_restart_after_done_flag_converges():
    # The run that used to make `--target dg_mutex_n3 --seed 42 --expect
    # recover` exit 1: pid 1 raises done[1], crashes one step later and
    # restarts; pids 0 and 2 see all three flags up and stop helping.  An
    # incarnation that re-ran its session would spin alone on privileged()
    # until its op budget was gone; one that finds its own flag up goes
    # straight to helper mode and retires.
    target = sim_target("dg_mutex_n3")
    campaign = sample_recover_campaign(
        "42-0", pids=target.pids, corruption_registers=target.corruptible
    )
    outcome = run_sim(target, campaign, run_seed="1")
    assert outcome.ok, outcome.violations
    assert outcome.done and outcome.verdicts
