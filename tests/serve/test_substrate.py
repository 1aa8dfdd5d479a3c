"""The Substrate protocol and the live loopback implementation."""

import asyncio

import pytest

from repro.net.transport import Transport
from repro.serve import AsyncioSubstrate, FaultProxySubstrate, Substrate
from repro.net.faults import NetFaultPlan

# A wait that leaks a task or a never-retrieved future says so in a
# warning when the loop closes; make every one of those a failure.
pytestmark = pytest.mark.filterwarnings("error")


def test_transport_satisfies_substrate_protocol():
    # The tentpole claim: the sim fabric already speaks the protocol —
    # no adapter, no wrapper, structural conformance.
    assert isinstance(Transport(4, bound=1.0), Substrate)


def test_asyncio_substrate_satisfies_protocol():
    assert isinstance(AsyncioSubstrate(3), Substrate)


def test_fault_proxy_satisfies_protocol():
    inner = Transport(3, bound=1.0)
    assert isinstance(FaultProxySubstrate(inner, NetFaultPlan.none()), Substrate)


def test_substrate_validates_construction():
    with pytest.raises(ValueError):
        AsyncioSubstrate(0)
    with pytest.raises(ValueError):
        AsyncioSubstrate(3, bound=0.0)


def test_peers_excludes_self():
    substrate = AsyncioSubstrate(4)
    assert substrate.peers(2) == (0, 1, 3)


def test_send_before_start_raises():
    substrate = AsyncioSubstrate(2)
    with pytest.raises(RuntimeError):
        substrate.send(0, 1, "x", 0.0)


def test_live_round_trip_and_stats():
    async def body():
        substrate = AsyncioSubstrate(3, bound=0.05)
        await substrate.start()
        try:
            substrate.send(0, 1, ("hello", 42), substrate.clock.now)
            substrate.send(2, 1, ("also", 7), substrate.clock.now)
            assert await substrate.wait_for_message(1, timeout=2.0)
            # Delivery order between distinct senders is not promised;
            # payload fidelity and (src, payload) pairing are.
            got = {}
            deadline = substrate.clock.now + 2.0
            while len(got) < 2 and substrate.clock.now < deadline:
                for src, payload in substrate.collect(1, substrate.clock.now):
                    got[src] = payload
                await asyncio.sleep(0.005)
            assert got == {0: ("hello", 42), 2: ("also", 7)}
            assert substrate.stats.messages_sent == 2
            assert substrate.stats.messages_delivered == 2
            assert substrate.collect(1, substrate.clock.now) == []
        finally:
            await substrate.close()
            await substrate.close()  # idempotent

    asyncio.run(body())


def test_self_send_rejected():
    async def body():
        substrate = AsyncioSubstrate(2)
        await substrate.start()
        try:
            with pytest.raises(ValueError):
                substrate.send(0, 0, "x", 0.0)
            with pytest.raises(ValueError):
                substrate.send(0, 9, "x", 0.0)
        finally:
            await substrate.close()

    asyncio.run(body())


def _live_timers(loop):
    return [handle for handle in loop._scheduled if not handle.cancelled()]


def test_wait_for_message_times_out():
    async def body():
        substrate = AsyncioSubstrate(2)
        await substrate.start()
        try:
            loop = asyncio.get_running_loop()
            tasks = asyncio.all_tasks()
            assert not await substrate.wait_for_message(0, timeout=0.05)
            # Nothing outlives the wait: no helper task, no armed timer,
            # no parked future for a late message to resolve.
            assert asyncio.all_tasks() == tasks
            assert _live_timers(loop) == []
            assert substrate._parked[0] is None
        finally:
            await substrate.close()

    asyncio.run(body())


def test_two_waits_in_a_row_on_one_endpoint():
    async def body():
        substrate = AsyncioSubstrate(2)
        await substrate.start()
        try:
            loop = asyncio.get_running_loop()
            for payload in ("one", "two"):
                loop.call_later(0.01, substrate.send, 1, 0, payload, 0.0)
                started = loop.time()
                assert await substrate.wait_for_message(0, timeout=2.0)
                assert loop.time() - started < 1.0
                assert substrate.collect(0, 0.0) == [(1, payload)]
                # Woken by the message: the 2 s timer is disarmed.
                assert _live_timers(loop) == []
            assert not await substrate.wait_for_message(0, timeout=0.02)
        finally:
            await substrate.close()

    asyncio.run(body())


def test_message_already_waiting_returns_without_parking():
    async def body():
        substrate = AsyncioSubstrate(2)
        await substrate.start()
        try:
            loop = asyncio.get_running_loop()
            substrate.send(1, 0, "early", 0.0)
            while not substrate._inboxes[0]:
                await asyncio.sleep(0.001)
            waiting = substrate.wait_for_message(0, timeout=5.0)
            # Driven by hand: the coroutine finishes on its first step,
            # without ever handing the loop something to wait on.
            with pytest.raises(StopIteration) as done:
                waiting.send(None)
            assert done.value.value is True
            assert _live_timers(loop) == []
            assert substrate.collect(0, 0.0) == [(1, "early")]
        finally:
            await substrate.close()

    asyncio.run(body())


def test_cancelled_wait_disarms_its_timer():
    async def body():
        substrate = AsyncioSubstrate(2)
        await substrate.start()
        try:
            loop = asyncio.get_running_loop()
            waiter = loop.create_task(substrate.wait_for_message(0, timeout=5.0))
            await asyncio.sleep(0.01)
            assert substrate._parked[0] is not None
            with pytest.raises(RuntimeError, match="already has a parked waiter"):
                await substrate.wait_for_message(0, timeout=0.01)
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            assert _live_timers(loop) == []
            assert substrate._parked[0] is None
            # The endpoint is usable again, and a message after the
            # cancellation finds nobody to wake.
            substrate.send(1, 0, "late", 0.0)
            assert await substrate.wait_for_message(0, timeout=2.0)
        finally:
            await substrate.close()

    asyncio.run(body())


def test_wait_before_start_raises():
    async def body():
        with pytest.raises(RuntimeError, match="not started"):
            await AsyncioSubstrate(2).wait_for_message(0, timeout=0.01)

    asyncio.run(body())


def test_clock_is_run_relative():
    async def body():
        substrate = AsyncioSubstrate(2)
        assert substrate.clock.now == 0.0  # before start: the origin
        await substrate.start()
        try:
            first = substrate.clock.now
            await asyncio.sleep(0.01)
            assert substrate.clock.now > first >= 0.0
        finally:
            await substrate.close()

    asyncio.run(body())
