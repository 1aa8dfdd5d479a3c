"""Every ``SimulationError`` the engine can raise, pinned by its text.

How an operation is charged lives on the operation (``Op.charge``); each
refusal below used to be a branch of ``Engine._duration_of``, and none of
them may get lost on the way.
"""

import re

import pytest

from repro.net import Transport
from repro.sim import (
    ConstantTiming,
    Engine,
    HookTiming,
    Op,
    Register,
    SimulationError,
    TimingModel,
    delay,
    label,
    local_work,
    nap,
    ops,
    read,
)
from repro.sim.engine import _MAX_ZERO_DURATION_RUN

X = Register("x", 0)


def run_one(program, timing=None, **engine_kwargs):
    eng = Engine(delta=1.0, timing=timing or ConstantTiming(0.5), **engine_kwargs)
    eng.spawn(program, pid=3, name="worker")
    return eng.run()


def raises(text):
    return pytest.raises(SimulationError, match=f"^{re.escape(text)}$")


@pytest.mark.parametrize("stranger", [42, Op()], ids=["int", "bare-Op"])
def test_non_operation_yield(stranger):
    def program():
        yield stranger

    with raises(f"process 3 (worker) yielded a non-operation: {stranger!r}"):
        run_one(program())


@pytest.mark.parametrize("duration", [0.0, -0.25])
def test_nonpositive_step(duration):
    def program():
        yield read(X)

    timing = HookTiming(ConstantTiming(0.5), lambda ctx, nominal: duration)
    with raises(f"timing model produced nonpositive step duration {duration}"):
        run_one(program(), timing)


class _Hasty(TimingModel):
    """Cuts delays short and makes local work run backwards."""

    def shared_step_duration(self, ctx):
        return 0.5

    def delay_duration(self, pid, requested, now):
        return requested / 2

    def local_duration(self, pid, requested, now):
        return -1.0


@pytest.mark.parametrize("pause", [delay, nap])
def test_shortened_delay(pause):
    def program():
        yield pause(2.0)

    with raises(
        "delay(2.0) shortened to 1.0: delay must last at least the requested time"
    ):
        run_one(program(), _Hasty())


def test_negative_local_work():
    def program():
        yield local_work(1.0)

    with raises("local work duration must be >= 0, got -1.0"):
        run_one(program(), _Hasty())


@pytest.mark.parametrize(
    "op", [ops.send(1, "hi"), ops.broadcast("hi"), ops.recv()],
    ids=["send", "broadcast", "recv"],
)
def test_message_op_without_a_transport(op):
    def program():
        yield op

    with raises(
        f"process 3 (worker) yielded message op {op!r}; message operations need "
        f"a transport, and this engine has none (pass Engine(transport=...))"
    ):
        run_one(program())


def test_message_ops_cost_send_and_recv_cost():
    def program():
        yield ops.send(0, "hi")
        yield ops.recv()
        yield ops.broadcast("all")

    res = run_one(
        program(), transport=Transport(4, bound=1.0), send_cost=0.25, recv_cost=0.125
    )
    assert [e.duration for e in res.trace if e.kind in ("send", "recv")] == [
        0.25, 0.125, 0.25,
    ]


def test_program_exception_names_process_and_time():
    def program():
        yield read(X)
        raise RuntimeError("boom")

    with raises("process 3 (worker) raised RuntimeError('boom') at time 0.5"):
        run_one(program())


def test_zero_duration_livelock_guard():
    def program():
        yield read(X)
        while True:
            yield label("spin")

    eng = Engine(delta=1.0, timing=ConstantTiming(0.5))
    eng.spawn(program(), pid=3, name="worker")
    with raises(
        f"process 3 (worker) executed {_MAX_ZERO_DURATION_RUN} consecutive "
        f"zero-duration operations at time 0.5: livelock"
    ):
        eng.run()
    # The guard fired on the 10 000th label, not before and not after.
    assert len(eng.trace.labels("spin")) == _MAX_ZERO_DURATION_RUN == 10_000
