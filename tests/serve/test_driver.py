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
    # The doorway contract: a Delay not preceded by an empty recv is a
    # genuine suspension — the driver may never shortcut it.
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
