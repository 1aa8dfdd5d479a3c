"""Tests for EmpiricalTiming (measured-host durations in the simulator)."""

import pytest

from repro.core.consensus import run_consensus
from repro.sim import ConstantTiming, EmpiricalTiming
from repro.sim.ops import Read
from repro.sim.registers import Register
from repro.sim.timing import StepContext, measure_host_delta


def ctx(pid=0):
    return StepContext(pid=pid, op=Read(Register("r")), now=0.0, step_index=0)


class TestCalibration:
    def test_quantile_maps_to_target(self):
        # 100 samples 1..100; p99 anchor = 100 -> scale 1/100.
        samples = [float(i) for i in range(1, 101)]
        t = EmpiricalTiming(samples, calibrated_to=1.0, calibrate_quantile=0.99)
        draws = [t.shared_step_duration(ctx()) for _ in range(500)]
        assert max(draws) <= 1.0 + 1e-9
        assert min(draws) >= 0.01 - 1e-9

    def test_values_above_anchor_exceed_target(self):
        """Samples past the calibration quantile become timing failures."""
        samples = [1.0] * 98 + [10.0, 100.0]
        t = EmpiricalTiming(samples, calibrated_to=1.0, calibrate_quantile=0.5,
                            seed=3)
        draws = [t.shared_step_duration(ctx()) for _ in range(2000)]
        assert any(d > 1.0 for d in draws)

    def test_deterministic_per_seed(self):
        samples = [0.5, 1.0, 2.0]
        a = EmpiricalTiming(samples, seed=7)
        b = EmpiricalTiming(samples, seed=7)
        assert [a.shared_step_duration(ctx()) for _ in range(20)] == [
            b.shared_step_duration(ctx()) for _ in range(20)
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            EmpiricalTiming([])
        with pytest.raises(ValueError):
            EmpiricalTiming([0.0, -1.0])
        with pytest.raises(ValueError):
            EmpiricalTiming([1.0], calibrate_quantile=0.0)
        with pytest.raises(ValueError):
            EmpiricalTiming([1.0], calibrated_to=0.0)

    def test_nonpositive_samples_filtered(self):
        t = EmpiricalTiming([0.0, 1.0, -1.0])
        assert t.shared_step_duration(ctx()) > 0


class TestBridgeFromRuntime:
    def test_consensus_safe_on_measured_host_texture(self):
        """Measure the real host's step gaps, replay them in the simulator,
        and check Algorithm 1 against the machine's own timing texture
        (anything past the p99 is a realistic timing failure)."""
        report_gaps = measure_host_delta(threads=3, steps_per_thread=400)
        # Rebuild a sample list from the summary's spread (the report does
        # not retain raw gaps; approximate with its quantile envelope).
        samples = [report_gaps.p50] * 50 + [report_gaps.p99] * 2 + [
            report_gaps.maximum
        ]
        timing = EmpiricalTiming(samples, calibrated_to=1.0,
                                 calibrate_quantile=0.99, seed=1)
        result = run_consensus([0, 1, 1], delta=1.0, timing=timing,
                               max_time=10_000.0)
        assert result.verdict.safe
        if result.run.status.value == "completed":
            assert result.verdict.ok
