"""The AsyncioDriver: generator programs interpreted over real time."""

import asyncio

import pytest

from repro.serve import AsyncioDriver, AsyncioSubstrate
from repro.sim import ops
from repro.sim.registers import Memory, Register


def _pinger(peer):
    yield ops.send(peer, ("ping", 1))
    while True:
        messages = yield ops.recv()
        for src, payload in messages:
            if payload[0] == "pong":
                return ("done", src, payload[1])
        yield ops.delay(0.005)


def _ponger():
    while True:
        messages = yield ops.recv()
        for src, payload in messages:
            if payload[0] == "ping":
                yield ops.send(src, ("pong", payload[1] + 1))
                return "served"
        yield ops.delay(0.005)


def test_driver_runs_message_programs():
    async def body():
        substrate = AsyncioSubstrate(2, bound=0.05)
        await substrate.start()
        try:
            driver = AsyncioDriver(substrate)
            driver.spawn(_pinger(1), pid=0)
            driver.spawn(_ponger(), pid=1)
            returns = await driver.wait()
            assert returns == {0: ("done", 1, 2), 1: "served"}
        finally:
            await substrate.close()

    asyncio.run(body())


def test_driver_rejects_shared_memory_ops():
    reg = Register("x", 0)

    def bad_program():
        yield reg.read()

    async def body():
        substrate = AsyncioSubstrate(1, bound=0.05)
        await substrate.start()
        try:
            driver = AsyncioDriver(substrate)
            task = driver.spawn(bad_program(), pid=0)
            with pytest.raises(TypeError, match="emulate_registers"):
                await task
        finally:
            await substrate.close()

    asyncio.run(body())


def test_driver_without_a_substrate_rejects_message_ops():
    async def body():
        driver = AsyncioDriver(memory=Memory())
        task = driver.spawn(_ponger(), pid=0)
        with pytest.raises(TypeError, match="no substrate"):
            await task

    asyncio.run(body())


def test_register_programs_interleave_per_op_on_a_memory():
    reg = Register("turn", 0)

    def bumper():
        seen = []
        for _ in range(3):
            seen.append((yield reg.read()))
            yield reg.write(seen[-1] + 1)
        return seen

    async def body():
        memory = Memory()
        driver = AsyncioDriver(memory=memory)
        for pid in range(2):
            driver.spawn(bumper(), pid=pid)
        returns = await driver.wait()
        # Both read before either writes, every round: the loop switches
        # program after each op, so updates are lost exactly as the
        # model's read/write atomicity allows.
        assert returns == {0: [0, 1, 2], 1: [0, 1, 2]}
        assert memory.peek(reg) == 3

    asyncio.run(body())


def test_now_uses_the_running_loop_without_a_substrate_clock():
    async def body():
        driver = AsyncioDriver(memory=Memory())
        loop = asyncio.get_running_loop()
        before = loop.time()
        assert before <= driver.now() <= loop.time()

    asyncio.run(body())
    # ... and only the running loop: no deprecated implicit loop creation.
    with pytest.raises(RuntimeError, match="no running event loop"):
        AsyncioDriver(memory=Memory()).now()


def test_driver_rejects_duplicate_pid_and_bad_scale():
    async def body():
        substrate = AsyncioSubstrate(1, bound=0.05)
        await substrate.start()
        try:
            with pytest.raises(ValueError):
                AsyncioDriver(substrate, time_scale=0.0)
            driver = AsyncioDriver(substrate)

            def idle():
                yield ops.delay(0.001)

            task = driver.spawn(idle(), pid=0)
            with pytest.raises(ValueError):
                driver.spawn(idle(), pid=0)
            await task
        finally:
            await substrate.close()

    asyncio.run(body())


def test_delay_really_elapses():
    # The doorway contract: a Delay is a genuine suspension of at least
    # its duration — the driver may never shortcut one.
    async def body():
        substrate = AsyncioSubstrate(1, bound=0.05)
        await substrate.start()
        try:
            driver = AsyncioDriver(substrate)

            def doorway():
                yield ops.delay(0.1)
                return "through"

            start = substrate.clock.now
            driver.spawn(doorway(), pid=0)
            returns = await driver.wait()
            elapsed = substrate.clock.now - start
            assert returns[0] == "through"
            assert elapsed >= 0.1
        finally:
            await substrate.close()

    asyncio.run(body())


def _waker(*before):
    """pid 1 of the nap tests: optional first message, then one at 20 ms."""
    for payload in before:
        yield ops.send(0, payload)
    yield ops.delay(0.02)
    yield ops.send(0, "wake")


def _run_pair(sleeper, waker=_waker):
    """Drive ``sleeper(clock)`` as pid 0 against ``waker()`` as pid 1."""

    async def body():
        substrate = AsyncioSubstrate(2, bound=0.05)
        await substrate.start()
        try:
            driver = AsyncioDriver(substrate)
            driver.spawn(sleeper(substrate.clock), pid=0)
            driver.spawn(waker(), pid=1)
            return (await driver.wait())[0]
        finally:
            await substrate.close()

    return asyncio.run(body())


def test_delay_after_an_empty_recv_is_not_cut_short_by_a_message():
    # delay(d) >= d whatever op precedes it.  An empty recv directly
    # before is the shape of a polling loop, and a driver that guesses
    # "polling pause" from that shape returns here after 0.022 s.
    def sleeper(clock):
        assert (yield ops.recv()) == []
        started = clock.now
        yield ops.delay(0.2)
        return clock.now - started, (yield ops.recv())

    elapsed, mail = _run_pair(sleeper)
    assert elapsed >= 0.2
    assert mail == [(1, "wake")]


def _after_empty_recv():
    assert (yield ops.recv()) == []


def _after_nonempty_recv():
    while not (yield ops.recv()):
        yield ops.delay(0.001)


def _after_send():
    yield ops.send(1, "hello")


@pytest.mark.parametrize(
    "before, first",
    [(_after_empty_recv, ()), (_after_nonempty_recv, ("first",)), (_after_send, ())],
    ids=["empty-recv", "nonempty-recv", "send"],
)
def test_nap_ends_when_a_message_arrives_whatever_came_before(before, first):
    def sleeper(clock):
        yield from before()
        started = clock.now
        yield ops.nap(0.5)
        return clock.now - started, (yield ops.recv())

    napped, mail = _run_pair(sleeper, lambda: _waker(*first))
    # Woken by the 20 ms message, not by the half-second timeout, and
    # not before the message was there to collect.
    assert napped < 0.25
    assert mail == [(1, "wake")]


def test_nap_without_a_message_lasts_its_duration():
    def sleeper(clock):
        assert (yield ops.recv()) == []
        started = clock.now
        yield ops.nap(0.2)
        return clock.now - started

    def silent():
        return
        yield

    assert _run_pair(sleeper, silent) >= 0.2


def test_nap_is_a_plain_sleep_without_a_wait_primitive():
    from repro.net.transport import Transport

    async def body(driver, sleeper):
        loop = asyncio.get_running_loop()
        started = loop.time()
        driver.spawn(sleeper(), pid=0)
        await driver.wait()
        return loop.time() - started

    # A substrate with no wait_for_message (the sim fabric): the message
    # sent to the napper at once does not wake it.
    def messaged():
        yield ops.nap(0.1)
        assert (yield ops.recv()) == [(1, "early")]

    def early():
        yield ops.send(0, "early")

    async def on_transport():
        transport = Transport(2, bound=0.001)
        assert not hasattr(transport, "wait_for_message")
        driver = AsyncioDriver(transport)
        driver.spawn(early(), pid=1)
        return await body(driver, messaged)

    assert asyncio.run(on_transport()) >= 0.1

    # A register-only driver has nothing a message could arrive on.
    def alone():
        yield ops.nap(0.1)

    async def register_only():
        return await body(AsyncioDriver(memory=Memory()), alone)

    assert asyncio.run(register_only()) >= 0.1


def test_time_scale_shrinks_model_delays():
    async def body():
        substrate = AsyncioSubstrate(1, bound=0.05)
        await substrate.start()
        try:
            driver = AsyncioDriver(substrate, time_scale=0.01)

            def napper():
                yield ops.local_work(1.0)  # 1 model unit -> 10ms real
                return "rested"

            start = substrate.clock.now
            driver.spawn(napper(), pid=0)
            await driver.wait()
            elapsed = substrate.clock.now - start
            assert 0.01 <= elapsed < 1.0
        finally:
            await substrate.close()

    asyncio.run(body())
