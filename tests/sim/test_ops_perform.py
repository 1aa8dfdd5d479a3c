"""Every op carries its own effect: ``perform`` on a recording fake world.

Table-driven over every concrete ``Op`` subclass, so a new op cannot be
added without a trace name and an effect the interpreters can apply.
"""

import pytest

from repro.sim import ops
from repro.sim.registers import Register
from repro.sim.trace import EventKind

REG = Register("r", 0)


def _double(old):
    return old * 2, old


class _Recorder:
    """Stands in for ``world.memory`` / ``world.transport``: logs every
    call and answers with a recognisable value."""

    def __init__(self, log, name):
        self._log, self._name = log, name

    def __getattr__(self, method):
        def call(*args):
            self._log.append((self._name, method) + args)
            return (2, 3) if method == "peers" else f"{method}-result"

        return call


class FakeWorld:
    def __init__(self):
        self.calls = []
        self.memory = _Recorder(self.calls, "memory")
        self.transport = _Recorder(self.calls, "transport")


PID, NOW = 1, 7.5

# op -> (trace_kind, calls perform makes, value sent back, trace fields)
CASES = [
    (ops.Read(REG), EventKind.READ,
     [("memory", "read", REG)], "read-result", ("r", "read-result")),
    (ops.Write(REG, 9), EventKind.WRITE,
     [("memory", "write", REG, 9)], None, ("r", 9)),
    (ops.ReadModifyWrite(REG, _double), EventKind.RMW,
     [("memory", "rmw", REG, _double)], "rmw-result", ("r", "rmw-result")),
    (ops.Delay(2.0), EventKind.DELAY, [], None, (None, 2.0)),
    (ops.Nap(2.0), EventKind.DELAY, [], None, (None, 2.0)),
    (ops.LocalWork(3.0), EventKind.LOCAL, [], None, (None, 3.0)),
    (ops.Label("mark", 5), EventKind.LABEL, [], None, (None, None)),
    (ops.Send(0, "m"), EventKind.SEND,
     [("transport", "send", PID, 0, "m", NOW)], None, (0, "m")),
    (ops.Broadcast("m", (0, 2)), EventKind.SEND,
     [("transport", "send", PID, 0, "m", NOW),
      ("transport", "send", PID, 2, "m", NOW)], None, ((0, 2), "m")),
    (ops.Broadcast("m"), EventKind.SEND,
     [("transport", "peers", PID),
      ("transport", "send", PID, 2, "m", NOW),
      ("transport", "send", PID, 3, "m", NOW)], None, ((2, 3), "m")),
    (ops.Recv(), EventKind.RECV,
     [("transport", "collect", PID, NOW)], "collect-result",
     (None, "collect-result")),
]


def _concrete_ops(cls=ops.Op):
    for sub in cls.__subclasses__():
        yield sub
        yield from _concrete_ops(sub)


def test_table_covers_every_op_class():
    assert {type(case[0]) for case in CASES} == set(_concrete_ops())


@pytest.mark.parametrize("case", CASES, ids=lambda case: repr(case[0]))
def test_perform_makes_exactly_the_expected_calls(case):
    op, trace_kind, calls, sent_back, fields = case
    assert type(op).trace_kind == trace_kind
    world = FakeWorld()
    assert op.perform(world, PID, NOW) == sent_back
    assert world.calls == calls
    # The flags interpreters gate on name the resource actually used.
    assert op.is_shared == any(call[0] == "memory" for call in calls)
    assert op.is_message == any(call[0] == "transport" for call in calls)
    # The resolved broadcast audience is looked up again for the record;
    # nothing else touches the world.
    world.calls.clear()
    assert op.trace_fields(world, PID, sent_back) == fields
    assert [c for c in world.calls if c[1] != "peers"] == []


def _pausing_program(pause):
    def program(pid):
        seen = yield ops.read(REG)
        yield pause(0.75)
        yield ops.write(REG, seen + pid + 1)
        yield pause(0.0)
        return (yield ops.read(REG))

    return program


def test_nap_is_a_delay_to_the_engine_and_the_sandbox():
    # Only the live driver tells the two apart; the simulator charges a
    # nap like the delay it is and the model checker promises as little.
    from repro.sim import Engine, UniformTiming
    from repro.verify.sandbox import Sandbox

    assert isinstance(ops.nap(0.5), ops.Delay)
    assert ops.nap(0.5) != ops.delay(0.5)

    def engine_run(pause):
        engine = Engine(delta=1.0, timing=UniformTiming(0.1, 0.9, seed=5))
        for pid in range(3):
            engine.spawn(_pausing_program(pause)(pid), pid=pid)
        result = engine.run()
        return result.returns, list(result.trace)

    assert engine_run(ops.nap) == engine_run(ops.delay)
    assert EventKind.DELAY in {event.kind for event in engine_run(ops.nap)[1]}

    def sandbox_run(pause):
        sandbox = Sandbox({pid: _pausing_program(pause) for pid in range(3)}, max_ops=8)
        prints = [sandbox.fingerprint()]
        while sandbox.enabled():
            sandbox.step(sandbox.enabled()[len(prints) % len(sandbox.enabled())])
            prints.append(sandbox.fingerprint())
        return prints, sandbox.results

    assert sandbox_run(ops.nap) == sandbox_run(ops.delay)
