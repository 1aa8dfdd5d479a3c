"""Channel properties of the message layer: ``send``/``broadcast``/``recv``
on an ``Engine(transport=...)``.

Raw links order deliveries by arrival instant, not send order; a link
whose deliveries all take the same time (``min_factor=1.0``) is FIFO.
"""

import pytest

from repro.net import Transport
from repro.sim import ConstantTiming, Engine, RunStatus, UniformTiming, ops
from repro.sim.registers import Register


def run(transport, programs, timing=None, max_time=50_000.0):
    eng = Engine(delta=1.0, timing=timing or ConstantTiming(0.3),
                 max_time=max_time, transport=transport)
    for pid, prog in programs.items():
        eng.spawn(prog, pid=pid)
    return eng.run()


def receiver(expect):
    got = []
    while len(got) < expect:
        got.extend((yield ops.recv()))
        yield ops.delay(0.1)
    return got


class TestMailbox:
    def test_send_receive_roundtrip(self):
        def sender():
            yield ops.send(1, "hello")
            yield ops.send(1, "world")

        res = run(Transport(2, min_factor=1.0), {0: sender(), 1: receiver(2)})
        assert res.status is RunStatus.COMPLETED
        assert res.returns[1] == [(0, "hello"), (0, "world")]

    def test_fifo_per_channel(self):
        count = 10
        gate = Register("gate", 0)

        def sender():
            for i in range(count):
                yield gate.read()  # a jittered step between sends
                yield ops.send(1, i)

        res = run(Transport(2, min_factor=1.0),
                  {0: sender(), 1: receiver(count)},
                  timing=UniformTiming(0.05, 1.0, seed=2))
        assert [m for _, m in res.returns[1]] == list(range(count))

    def test_broadcast_reaches_everyone(self):
        n = 4

        def caster():
            yield ops.broadcast("ping")

        programs = {0: caster()}
        programs.update({p: receiver(1) for p in range(1, n)})
        res = run(Transport(n), programs)
        for p in range(1, n):
            assert res.returns[p] == [(0, "ping")]

    def test_channels_are_independent(self):
        # A slow link into pid 2 does not hold back the fast one.
        transport = Transport(3, min_factor=1.0, link_bounds={(0, 2): 20.0})

        def sender(msg):
            yield ops.send(2, msg)

        res = run(transport, {0: sender("slow"), 1: sender("fast"),
                              2: receiver(2)})
        assert res.returns[2] == [(1, "fast"), (0, "slow")]

    def test_endpoint_validation(self):
        with pytest.raises(ValueError):
            Transport(0)

        def stray():
            yield ops.send(5, "nowhere")

        with pytest.raises(ValueError):
            run(Transport(2), {0: stray()})

    def test_no_self_mailbox(self):
        def narcissist():
            yield ops.send(1, "to myself")

        with pytest.raises(ValueError):
            run(Transport(2), {1: narcissist()})
