"""The lease service's front door: per-key FIFO handoff over real sockets.

Every test checks outcomes and order, never wall-clock intervals, and
ends with a clean audit.
"""

import asyncio

import pytest

from repro.serve import LeaseService


def _service(**kwargs):
    defaults = dict(shards=1, keepers_per_shard=1, replicas=3,
                    bound=0.01, seed=0, block=64)
    defaults.update(kwargs)
    return LeaseService(**defaults)


def _run(body, **kwargs):
    async def main():
        service = _service(**kwargs)
        await service.start()
        try:
            await asyncio.wait_for(body(service), 20.0)
        finally:
            await service.close()
        assert service.verify() == []

    asyncio.run(main())


async def _queue(service, key, holders, timeout=10.0):
    """One parked ``acquire`` per holder, in this arrival order."""
    tasks = []
    for holder in holders:
        tasks.append(asyncio.ensure_future(
            service.acquire(key, ttl=5.0, timeout=timeout, holder=holder)))
        await asyncio.sleep(0)  # the caller reaches its queue before the next
    return tasks


def test_queued_acquirers_are_granted_in_arrival_order():
    async def body(service):
        lease = await service.acquire("k", ttl=5.0, holder="first")
        tasks = await _queue(service, "k", ["a", "b", "c"])
        order = []
        for task in tasks:
            assert service.release("k", lease.token)
            lease = await task
            order.append(lease.holder)
        assert order == ["a", "b", "c"]
        assert service.release("k", lease.token)
        assert service.summary()["front_door"] == {
            "handoffs": 3, "max_queue_depth": 3}

    _run(body)


def test_acquire_right_after_release_does_not_overtake_the_queue():
    async def body(service):
        lease = await service.acquire("k", ttl=5.0, holder="first")
        (queued,) = await _queue(service, "k", ["queued"])
        assert service.release("k", lease.token)
        # The release already granted the queue's head, so a caller that
        # arrives now finds the key taken.
        (late,) = await _queue(service, "k", ["late"])
        handed = await queued
        assert handed.holder == "queued" and not late.done()
        assert service.release("k", handed.token)
        assert (await late).holder == "late"

    _run(body)


def test_timed_out_waiter_leaves_the_queue():
    async def body(service):
        lease = await service.acquire("k", ttl=5.0, holder="first")
        impatient = asyncio.ensure_future(
            service.acquire("k", ttl=5.0, timeout=0.05, holder="impatient"))
        await asyncio.sleep(0)
        (patient,) = await _queue(service, "k", ["patient"])
        assert await impatient is None
        assert service.timeouts == 1
        assert [w.holder for w in service.states[0].queues["k"]] == ["patient"]
        assert service.release("k", lease.token)
        assert (await patient).holder == "patient"

    _run(body)


def test_waiter_cancelled_after_the_handoff_passes_the_key_on():
    async def body(service):
        lease = await service.acquire("k", ttl=5.0, holder="first")
        doomed, nxt = await _queue(service, "k", ["doomed", "next"])
        assert service.release("k", lease.token)  # hands the key to doomed
        doomed.cancel()  # before doomed's task runs again
        with pytest.raises(asyncio.CancelledError):
            await doomed
        handed = await nxt
        assert handed.holder == "next"
        assert handed.token == lease.token + 2  # doomed's grant came between
        counters = service.summary()["counters"]
        assert counters["released"] == 2 and counters["expired"] == 0

    _run(body)


@pytest.mark.parametrize("path", ["ttl", "sweep"])
def test_expired_key_goes_to_its_queue_head(path):
    async def body(service):
        state = service.states[0]
        stalled = await service.acquire("k", ttl=0.2, holder="stalled")
        first, second = await _queue(service, "k", ["first", "second"])
        if path == "sweep":  # only the sweep is left to free the key
            state.timers.pop("k")[1].cancel()
        handed = await first
        assert handed.holder == "first" and handed.token > stalled.token
        assert not second.done()
        assert service.summary()["counters"]["expired"] == 1
        assert service.release("k", handed.token)
        assert (await second).holder == "second"

    sweep_interval = 0.05 if path == "sweep" else 60.0
    _run(body, sweep_interval=sweep_interval)


def test_release_on_a_dry_pool_moves_the_queue_to_the_pool():
    async def body(service):
        state = service.states[0]
        lease = await service.acquire("k", ttl=5.0, holder="first")
        a, b = await _queue(service, "k", ["a", "b"])
        others = []
        while state.core.tokens_available:
            others.append(await service.acquire(f"x{len(others)}", ttl=5.0))
        assert service.release("k", lease.token)  # no token to hand over
        assert [w.holder for w in state.pool] == ["a", "b"]
        assert "k" not in state.queues
        handed = await a
        assert handed.token >= service.block  # from the refill
        assert service.release("k", handed.token)
        assert (await b).holder == "b"
        assert service.timeouts == 0

    # low_water=0: the keeper refills only once the pool is empty.
    _run(body, block=4, low_water=0)


def test_hot_keys_cost_one_busy_attempt_per_grant_at_most():
    # A shard-wide wake-up herd, where every release wakes every waiter
    # and each re-runs the grant, costs about ten busy attempts per grant
    # on this load.
    async def body(service):
        stop = False

        async def client(index):
            while not stop:
                key = f"hot{index % 2}"
                lease = await service.acquire(key, ttl=5.0, timeout=10.0)
                assert lease is not None
                await asyncio.sleep(0.001)
                assert service.release(key, lease.token)

        tasks = [asyncio.ensure_future(client(i)) for i in range(16)]
        await asyncio.sleep(1.0)
        stop = True
        await asyncio.gather(*tasks)
        counters = service.summary()["counters"]
        assert counters["granted"] > 100
        assert counters["busy"] / counters["granted"] <= 1.5

    _run(body, shards=2, block=1024)
