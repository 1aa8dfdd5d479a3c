"""Tests for the engine with a transport (message ops on the event loop)."""

import pytest

from repro.net import Transport
from repro.obs.tracer import Tracer
from repro.sim import ConstantTiming, Engine, RunStatus, ops
from repro.sim.engine import SimulationError
from repro.sim.failures import CrashSchedule, RecoverSchedule
from repro.sim.instrument import EngineProbe, probe_scope
from repro.sim.trace import EventKind


def build(n=2, bound=1.0, seed=0, **kwargs):
    transport = Transport(n, bound=bound, seed=seed)
    engine = Engine(
        delta=1.0, timing=ConstantTiming(0.05), transport=transport, **kwargs
    )
    return engine, transport


def pollster(expect):
    got = []
    while len(got) < expect:
        got.extend((yield ops.recv()))
        if len(got) < expect:
            yield ops.delay(0.2)
    return got


class TestMessageOps:
    def test_send_recv_roundtrip(self):
        engine, _ = build()

        def sender():
            yield ops.send(1, "ping")
            yield ops.send(1, "pong")

        engine.spawn(sender(), pid=0)
        engine.spawn(pollster(2), pid=1)
        result = engine.run()
        assert result.status is RunStatus.COMPLETED
        # Raw links are not FIFO (each delivery draws its own delay) —
        # ordering is the quorum layer's job; the fabric promises
        # delivery, not order.
        assert sorted(result.returns[1]) == [(0, "ping"), (0, "pong")]

    def test_broadcast_defaults_to_every_peer(self):
        engine, _ = build(n=4)

        def caster():
            yield ops.broadcast("hello")

        engine.spawn(caster(), pid=0)
        for pid in range(1, 4):
            engine.spawn(pollster(1), pid=pid)
        result = engine.run()
        for pid in range(1, 4):
            assert result.returns[pid] == [(0, "hello")]

    def test_broadcast_with_explicit_dests(self):
        engine, transport = build(n=4)

        def caster():
            yield ops.broadcast("only-some", dests=(1, 3))
            yield ops.delay(5.0)

        engine.spawn(caster(), pid=0)
        engine.spawn(pollster(1), pid=1)
        engine.spawn(pollster(1), pid=3)

        def bystander():
            yield ops.delay(3.0)
            return (yield ops.recv())

        engine.spawn(bystander(), pid=2)
        result = engine.run()
        assert result.returns[1] == [(0, "only-some")]
        assert result.returns[3] == [(0, "only-some")]
        assert result.returns[2] == []
        assert transport.stats.messages_sent == 2

    def test_plain_engine_rejects_message_ops(self):
        engine = Engine(delta=1.0, timing=ConstantTiming(0.1))

        def talker():
            yield ops.send(1, "no fabric here")

        engine.spawn(talker(), pid=0)
        with pytest.raises(SimulationError):
            engine.run()

    def test_send_and_recv_cost_local_time(self):
        engine, _ = build()

        def sender():
            yield ops.send(1, "x")

        def receiver():
            yield ops.recv()

        engine.spawn(sender(), pid=0)
        engine.spawn(receiver(), pid=1)
        result = engine.run()
        sends = [e for e in result.trace if e.kind == EventKind.SEND]
        recvs = [e for e in result.trace if e.kind == EventKind.RECV]
        assert len(sends) == 1 and len(recvs) == 1
        assert sends[0].completed - sends[0].issued == pytest.approx(engine.send_cost)
        assert recvs[0].completed - recvs[0].issued == pytest.approx(engine.recv_cost)

    def test_spawn_rejects_a_pid_that_is_not_an_endpoint(self):
        engine, _ = build(n=2)
        with pytest.raises(ValueError, match="not an endpoint"):
            engine.spawn(pollster(1), pid=7)
        with pytest.raises(ValueError, match="not an endpoint"):
            engine.spawn(pollster(1), pid=-1)

    def test_zero_costs_are_rejected(self):
        transport = Transport(2)
        with pytest.raises(ValueError):
            Engine(
                delta=1.0,
                timing=ConstantTiming(0.1),
                transport=transport,
                send_cost=0.0,
            )


class TestCrashes:
    def test_crashed_endpoint_never_collects(self):
        engine, transport = build(crashes=CrashSchedule(at_time={1: 0.01}))

        def sender():
            yield ops.delay(1.0)
            yield ops.send(1, "to the dead")
            yield ops.delay(5.0)

        engine.spawn(sender(), pid=0)
        engine.spawn(pollster(1), pid=1)
        result = engine.run()
        assert 1 in result.crashed_pids
        assert transport.stats.messages_sent == 1
        assert transport.stats.messages_delivered == 0
        assert transport.in_flight(1) == 1  # parked forever, not dropped


    def test_restarted_endpoint_collects_what_queued_while_it_was_down(self):
        # pid 1 dies with a Recv in flight (issued 0.0, due 0.05) and
        # restarts at 5.0 as a fresh incarnation; two messages arrive in
        # between.
        tracer = Tracer()
        engine, transport = build(
            crashes=CrashSchedule(at_time={1: 0.01}),
            recoveries=RecoverSchedule(at_time={1: 5.0}),
            tracer=tracer,
        )
        incarnations = []

        def sender():
            yield ops.delay(1.0)
            yield ops.send(1, "first")
            yield ops.send(1, "second")

        def listener(pid):
            incarnations.append(len(incarnations))
            return (yield ops.recv())

        engine.spawn(sender(), pid=0)
        engine.spawn(listener(1), pid=1, factory=listener)
        result = engine.run()

        assert result.status is RunStatus.COMPLETED
        assert incarnations == [0, 1]
        # The dead incarnation's Recv never completed: the one RECV in
        # the trace is the successor's, after the restart.
        recvs = [e for e in result.trace if e.kind == EventKind.RECV]
        assert len(recvs) == 1 and recvs[0].issued == 5.0
        assert [e.kind for e in result.trace if e.pid == 1][:2] == [
            EventKind.CRASH, EventKind.RESTART,
        ]
        assert sorted(result.returns[1]) == [(0, "first"), (0, "second")]
        assert transport.in_flight(1) == 0
        engines = [r for r in tracer.records if r["kind"] == "engine"]
        assert [r["substrate"] for r in engines] == ["net"]


class TestProbe:
    def test_transport_stats_merge_into_ambient_probe(self):
        probe = EngineProbe()
        with probe_scope(probe):
            engine, transport = build()

            def sender():
                yield ops.send(1, "counted")

            engine.spawn(sender(), pid=0)
            engine.spawn(pollster(1), pid=1)
            engine.run()
        assert probe.messages_sent == transport.stats.messages_sent == 1
        assert probe.messages_delivered == 1
        assert probe.messages_dropped == 0
