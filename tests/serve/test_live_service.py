"""End-to-end over real sockets: the lease service doing its job."""

import asyncio
import math

import pytest

from repro.net.faults import DelaySpike, MessageLoss, NetFaultPlan
from repro.serve import LeaseService, LoadGenerator, percentile


def _service(**kwargs):
    defaults = dict(shards=2, keepers_per_shard=1, replicas=3,
                    bound=0.05, seed=0, block=64)
    defaults.update(kwargs)
    return LeaseService(**defaults)


def test_acquire_release_and_contention():
    async def body():
        service = _service()
        await service.start()
        try:
            lease = await service.acquire("jobs", ttl=5.0, holder="a")
            assert lease is not None

            # A second client contends, times out while the lease holds...
            blocked = await service.acquire("jobs", ttl=5.0, timeout=0.2,
                                            holder="b")
            assert blocked is None

            # ...then wins as soon as the holder releases.
            waiter = asyncio.ensure_future(
                service.acquire("jobs", ttl=5.0, timeout=5.0, holder="b"))
            await asyncio.sleep(0.05)
            assert service.release("jobs", lease.token)
            handoff = await waiter
            assert handoff is not None
            assert handoff.token > lease.token  # fencing across the handoff
            assert service.verify() == []
        finally:
            await service.close()

    asyncio.run(body())


def test_expiry_under_stalled_client_live():
    async def body():
        service = _service(sweep_interval=0.05)
        await service.start()
        try:
            stalled = await service.acquire("db", ttl=0.3, holder="stalled")
            assert stalled is not None
            # The stalled client never releases; the next acquire must
            # wait out the TTL, not the full timeout.
            fresh = await service.acquire("db", ttl=5.0, timeout=5.0,
                                          holder="next")
            assert fresh is not None and fresh.token > stalled.token
            # The zombie's late release is fenced.
            assert not service.release("db", stalled.token)
            assert service.summary()["counters"]["fenced"] >= 1
            assert service.verify() == []
        finally:
            await service.close()

    asyncio.run(body())


def test_keys_route_to_distinct_shards_independently():
    async def body():
        service = _service()
        await service.start()
        try:
            leases = []
            for i in range(8):
                lease = await service.acquire(f"user:{i}", ttl=5.0)
                assert lease is not None
                leases.append((f"user:{i}", lease))
            # Tokens are per-shard; holding one key never blocks another.
            for key, lease in leases:
                assert service.release(key, lease.token)
            counters = service.summary()["counters"]
            assert counters["granted"] == 8
            assert counters["released"] == 8
            assert service.verify() == []
        finally:
            await service.close()

    asyncio.run(body())


def test_small_load_run_is_clean():
    async def body():
        service = _service(shards=2, block=256)
        await service.start()
        try:
            load = LoadGenerator(service, clients=200, duration=1.0,
                                 seed=0, keyspace=64, timeout=5.0)
            report = await load.run()
            assert report["granted"] + report["timeouts"] == 200
            assert report["errors"] == 0
            assert report["timeouts"] == 0
            assert service.verify() == []
        finally:
            await service.close()

    asyncio.run(body())


def test_service_survives_chaos_plan():
    async def body():
        plan = NetFaultPlan(
            losses=(MessageLoss(rate=0.05),),
            spikes=(DelaySpike(start=0.0, end=math.inf, extra=0.01),),
        )
        service = _service(fault_plan=plan, fault_seed=1, bound=0.1)
        await service.start()
        try:
            lease = await service.acquire("chaotic", ttl=5.0, timeout=20.0)
            assert lease is not None
            assert service.release("chaotic", lease.token)
            assert service.verify() == []
            assert service.summary()["net"]["messages_dropped"] >= 0
        finally:
            await service.close()

    asyncio.run(body())


def test_live_replicas_outlive_their_booked_model_time():
    # A replica books the model cost of every op it issues against its
    # lifetime.  Under the engine that is a clock; on sockets a nap ends
    # on arrival and a busy replica books ~15 model seconds per real
    # one, so a finite default would retire the replicas of a loaded
    # service within minutes and wedge every keeper behind them.
    from repro.net import QuorumSystem
    from repro.serve import AsyncioDriver, AsyncioSubstrate
    from repro.sim import ops
    from repro.sim.registers import Register

    reg = Register("x", 0)

    def client():
        yield reg.write(1)
        yield ops.delay(0.1)  # replicas idle-poll past max_time meanwhile
        return (yield reg.read())

    async def body():
        substrate = AsyncioSubstrate(4, bound=0.004)
        await substrate.start()
        try:
            system = QuorumSystem(
                clients=1, replicas=3, substrate=substrate, max_time=0.02
            )
            assert system.lifetime == math.inf
            driver = AsyncioDriver(substrate)
            for rpid in system.replica_pids:
                driver.spawn(system.replica(rpid), pid=rpid)
            driver.spawn(system.emulate_registers(0, client()), pid=0)
            try:
                returns = await asyncio.wait_for(driver.wait(), 10.0)
            finally:
                await driver.cancel()
            assert returns[0] == 1
        finally:
            await substrate.close()

    asyncio.run(body())


def test_service_validates_construction():
    with pytest.raises(ValueError):
        _service(shards=0)
    with pytest.raises(ValueError):
        _service(replicas=0)  # rejected by QuorumSystem construction


def test_percentile_nearest_rank():
    values = sorted(float(v) for v in range(1, 101))
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile(values, 100) == 100.0
    assert percentile([], 50) is None
    with pytest.raises(ValueError):
        percentile(values, 0)
