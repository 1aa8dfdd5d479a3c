"""Fuzzed net schedules checked against the linearizability spec."""

import pytest

from repro.net import NetFuzzReport, fuzz_quorum_register
from repro.net.fuzz import PLAN_KINDS, ScheduleOutcome


class TestCampaign:
    def test_two_rotations_are_linearizable(self):
        report = fuzz_quorum_register(schedules=12, seed="tier1")
        assert report.ok, report.summary()
        assert len(report.outcomes) == 12
        # The rotation covered every plan kind exactly twice.
        assert [row[1] for row in report.by_plan()] == [2] * len(PLAN_KINDS)

    def test_rotation_order_is_round_robin(self):
        report = fuzz_quorum_register(schedules=len(PLAN_KINDS), seed=0)
        assert tuple(o.plan for o in report.outcomes) == PLAN_KINDS

    def test_campaign_is_deterministic(self):
        first = fuzz_quorum_register(schedules=6, seed=42)
        second = fuzz_quorum_register(schedules=6, seed=42)
        assert first.outcomes == second.outcomes

    def test_different_seeds_draw_different_schedules(self):
        a = fuzz_quorum_register(schedules=6, seed=1)
        b = fuzz_quorum_register(schedules=6, seed=2)
        assert a.outcomes != b.outcomes

    def test_schedules_exercise_real_operations(self):
        report = fuzz_quorum_register(schedules=6, seed=7)
        assert sum(o.operations for o in report.outcomes) > 0
        # Client-crash schedules are the ones expected to leave pending
        # invocations; the checker must have explained them (report.ok).
        assert report.ok

    def test_progress_callback_sees_every_outcome(self):
        seen = []
        report = fuzz_quorum_register(schedules=4, seed=0, progress=seen.append)
        assert seen == report.outcomes

    def test_traced_schedule_carries_one_window_record_per_fault(self):
        report = fuzz_quorum_register(
            schedules=len(PLAN_KINDS), seed=0, trace=True
        )
        windows = {
            outcome.plan: [r["fault"] for r in chunk if r["kind"] == "window"]
            for outcome, (_index, chunk) in zip(
                report.outcomes, report.trace_chunks)
        }
        assert windows == {
            "clean": [], "crash-minority": [], "client-crash": [],
            "delay-spike": ["spike"], "partition": ["partition"],
            "loss": ["loss"],
        }

    def test_summary_reports_per_plan_rows(self):
        report = fuzz_quorum_register(schedules=6, seed=0)
        text = report.summary()
        assert "0 linearizability violations" in text
        for kind in PLAN_KINDS:
            assert kind in text


class TestReportShape:
    def test_violations_filter(self):
        good = ScheduleOutcome(0, "clean", True, 3, 0, "completed")
        bad = ScheduleOutcome(1, "loss", False, 3, 0, "completed")
        report = NetFuzzReport(seed=0, schedules=2, outcomes=[good, bad])
        assert report.violations == [bad]
        assert not report.ok


@pytest.mark.slow
class TestAcceptanceCampaign:
    def test_thousand_plus_schedules_stay_linearizable(self):
        # The subsystem's acceptance bar: >= 1000 fuzzed schedules,
        # including the crash-minority and delay-spike rotations.
        report = fuzz_quorum_register(schedules=1008, seed="acceptance")
        assert report.ok, report.summary()
        by_plan = dict((kind, ran) for kind, ran, _ in report.by_plan())
        assert by_plan["crash-minority"] == 168
        assert by_plan["delay-spike"] == 168
