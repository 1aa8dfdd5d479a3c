"""Unit tests for timing models."""

import pytest

from repro.sim.failures import failure_window
from repro.sim.ops import Read
from repro.sim.registers import Register
from repro.sim.timing import (
    AsynchronousTiming,
    ConstantTiming,
    FailureWindowTiming,
    HookTiming,
    PerProcessTiming,
    StepContext,
    UniformTiming,
)


def ctx(pid=0, now=0.0, step_index=0):
    return StepContext(pid=pid, op=Read(Register("r")), now=now, step_index=step_index)


class TestStepContextRecord:
    """``StepContext`` is an immutable, tuple-backed record."""

    def test_fields_cannot_be_assigned(self):
        c = ctx()
        for name in StepContext._fields:
            with pytest.raises(AttributeError):
                setattr(c, name, 1)

    def test_keyword_and_positional_construction_agree(self):
        op = Read(Register("r"))
        a = StepContext(pid=2, op=op, now=1.5, step_index=4)
        b = StepContext(2, op, 1.5, 4)
        assert a == b and hash(a) == hash(b)
        assert StepContext._fields == ("pid", "op", "now", "step_index")
        assert a != StepContext(2, op, 1.5, 5)

    def test_repr_names_the_fields(self):
        assert repr(StepContext(1, Read(Register("x")), 2.0, 3)) == (
            "StepContext(pid=1, op=Read('x'), now=2.0, step_index=3)"
        )


class TestConstantTiming:
    def test_constant(self):
        t = ConstantTiming(0.5)
        assert t.shared_step_duration(ctx()) == 0.5
        assert t.shared_step_duration(ctx(now=100.0)) == 0.5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConstantTiming(0)

    def test_delay_exact(self):
        assert ConstantTiming(0.5).delay_duration(0, 2.0, 0.0) == 2.0

    def test_local_exact(self):
        assert ConstantTiming(0.5).local_duration(0, 3.0, 0.0) == 3.0


class TestUniformTiming:
    def test_within_bounds(self):
        t = UniformTiming(0.2, 0.9, seed=1)
        for _ in range(200):
            d = t.shared_step_duration(ctx())
            assert 0.2 <= d <= 0.9

    def test_deterministic_given_seed(self):
        a = [UniformTiming(0.1, 1.0, seed=7).shared_step_duration(ctx()) for _ in range(1)]
        b = [UniformTiming(0.1, 1.0, seed=7).shared_step_duration(ctx()) for _ in range(1)]
        assert a == b

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            UniformTiming(0.9, 0.2)
        with pytest.raises(ValueError):
            UniformTiming(0.0, 1.0)


class TestPerProcessTiming:
    def test_per_pid_deltas(self):
        t = PerProcessTiming({0: 0.2, 1: 0.8}, default=0.5)
        assert t.shared_step_duration(ctx(pid=0)) == 0.2
        assert t.shared_step_duration(ctx(pid=1)) == 0.8
        assert t.shared_step_duration(ctx(pid=9)) == 0.5

    def test_max_delta(self):
        t = PerProcessTiming({0: 0.2, 1: 0.8}, default=0.5)
        assert t.max_delta == 0.8

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PerProcessTiming({0: 0.0}, default=0.5)
        with pytest.raises(ValueError):
            PerProcessTiming({}, default=-1)


class TestFailureWindowTiming:
    def test_outside_window_nominal(self):
        t = FailureWindowTiming(
            ConstantTiming(0.5), [failure_window(1.0, 2.0, duration=9.0)]
        )
        assert t.shared_step_duration(ctx(now=0.5)) == 0.5
        assert t.shared_step_duration(ctx(now=2.0)) == 0.5  # end-exclusive

    def test_inside_window_stretched(self):
        t = FailureWindowTiming(
            ConstantTiming(0.5), [failure_window(1.0, 2.0, duration=9.0)]
        )
        assert t.shared_step_duration(ctx(now=1.0)) == 9.0

    def test_pid_filter(self):
        t = FailureWindowTiming(
            ConstantTiming(0.5), [failure_window(0.0, 10.0, pids=[3], duration=9.0)]
        )
        assert t.shared_step_duration(ctx(pid=3, now=1.0)) == 9.0
        assert t.shared_step_duration(ctx(pid=4, now=1.0)) == 0.5

    def test_stretch_factor(self):
        t = FailureWindowTiming(
            ConstantTiming(0.5), [failure_window(0.0, 1.0, stretch=4.0)]
        )
        assert t.shared_step_duration(ctx(now=0.0)) == 2.0

    def test_overlapping_windows_take_worst(self):
        t = FailureWindowTiming(
            ConstantTiming(0.5),
            [failure_window(0.0, 2.0, duration=3.0), failure_window(1.0, 2.0, duration=7.0)],
        )
        assert t.shared_step_duration(ctx(now=1.5)) == 7.0

    def test_last_failure_end(self):
        t = FailureWindowTiming(
            ConstantTiming(0.5),
            [failure_window(0.0, 2.0), failure_window(5.0, 8.0)],
        )
        assert t.last_failure_end == 8.0

    def test_delays_not_stretched(self):
        t = FailureWindowTiming(
            ConstantTiming(0.5), [failure_window(0.0, 10.0, duration=9.0)]
        )
        assert t.delay_duration(0, 1.0, 5.0) == 1.0


class TestAsynchronousTiming:
    def test_base_duration_common(self):
        t = AsynchronousTiming(base=0.5, tail_prob=0.0, seed=1)
        assert all(t.shared_step_duration(ctx()) == 0.5 for _ in range(50))

    def test_tail_exceeds_base(self):
        t = AsynchronousTiming(base=0.5, tail_prob=1.0, tail_scale=4.0, seed=2)
        d = t.shared_step_duration(ctx())
        assert d >= 0.5 * 4.0 * 1.0  # pareto variate >= 1

    def test_unbounded_in_distribution(self):
        """Over many draws the tail should exceed any modest bound."""
        t = AsynchronousTiming(base=0.5, tail_prob=0.3, seed=3)
        worst = max(t.shared_step_duration(ctx()) for _ in range(2000))
        assert worst > 5.0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            AsynchronousTiming(base=0)
        with pytest.raises(ValueError):
            AsynchronousTiming(base=1, tail_prob=1.5)


class TestHookTiming:
    def test_hook_override(self):
        t = HookTiming(ConstantTiming(0.5), lambda c, nominal: 9.0)
        assert t.shared_step_duration(ctx()) == 9.0

    def test_hook_none_keeps_nominal(self):
        t = HookTiming(ConstantTiming(0.5), lambda c, nominal: None)
        assert t.shared_step_duration(ctx()) == 0.5

    def test_hook_sees_context(self):
        seen = []
        t = HookTiming(ConstantTiming(0.5), lambda c, nominal: seen.append(c.pid))
        t.shared_step_duration(ctx(pid=7))
        assert seen == [7]
