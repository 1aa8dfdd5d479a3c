"""End-to-end over real sockets: the lease service doing its job."""

import asyncio
import gc
import logging
import math

import pytest

from repro.net.faults import DelaySpike, MessageLoss, NetFaultPlan
from repro.net.omega import HeartbeatMonitor
from repro.obs.tracer import Tracer
from repro.serve import AsyncioSubstrate, LeaseService, LoadGenerator, percentile
from repro.serve.lease import shard_for
from repro.serve.service import _LiveFeed


def _service(**kwargs):
    defaults = dict(shards=2, keepers_per_shard=1, replicas=3,
                    bound=0.05, seed=0, block=64)
    defaults.update(kwargs)
    return LeaseService(**defaults)


async def _closed_loop(service, clients, seconds):
    """``clients`` callers acquiring and releasing private keys."""
    stop = False

    async def client(index):
        while not stop:
            lease = await service.acquire(f"c{index}", ttl=5.0, timeout=10.0)
            assert lease is not None
            await asyncio.sleep(0)  # a grant from a stocked pool never yields
            assert service.release(f"c{index}", lease.token)

    tasks = [asyncio.ensure_future(client(i)) for i in range(clients)]
    await asyncio.sleep(seconds)
    stop = True
    await asyncio.gather(*tasks)


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


def test_load_generator_retrieves_failed_sessions():
    # Each session counts its error and re-raises; the generator must
    # retrieve the exception, or asyncio logs "never retrieved" for it.
    async def body():
        reported = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: reported.append(context))
        service = _service()  # not started: acquire rejects the ttl first
        load = LoadGenerator(service, clients=5, duration=0.05, ttl=-1.0)
        report = await load.run()
        gc.collect()
        assert report["errors"] == 5 and report["cancelled"] == 0
        assert reported == []

    asyncio.run(body())


def _count_acquires(monkeypatch):
    """Wrap ``LeaseService.acquire`` as a tracer would; count the calls."""
    calls = []
    original = LeaseService.acquire

    async def acquire(self, key, *args, **kwargs):
        calls.append(key)
        return await original(self, key, *args, **kwargs)

    monkeypatch.setattr(LeaseService, "acquire", acquire)
    return calls


def test_open_loop_sessions_that_never_wait_run_without_a_task(monkeypatch):
    # A hold-0 session on a free key with tokens in the pool never
    # suspends, so the pump runs it whole: the run creates no Task.
    # Every session still goes through acquire.
    calls = _count_acquires(monkeypatch)

    async def body():
        service = _service(block=4096)
        await service.start()
        loop = asyncio.get_running_loop()
        created = []

        def factory(loop, coro, **kwargs):
            created.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        loop.set_task_factory(factory)
        try:
            load = LoadGenerator(service, clients=300, duration=0.3, seed=0,
                                 keyspace=1 << 20, timeout=5.0)
            report = await load.run()
        finally:
            loop.set_task_factory(None)
            await service.close()
        assert report["granted"] == report["released"] == 300
        assert len(calls) == 300
        assert created == []
        assert service.verify() == []

    asyncio.run(body())


def test_session_cancelled_before_its_task_runs_leaves_no_waiter():
    # The Task that takes over a suspended session forwards a
    # cancellation that lands before its first step into the session,
    # so acquire takes its waiter out of the key's queue.
    async def body():
        service = _service()
        await service.start()
        try:
            load = LoadGenerator(service, clients=1, duration=1.0, timeout=5.0)
            key = load.key_for(0)
            held = await service.acquire(key, ttl=5.0)
            load._spawn(0, service.substrate.clock.now)
            (task,) = load._tasks
            state = service.states[shard_for(key, service.shards)]
            assert len(state.queues[key]) == 1
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            assert key not in state.queues
            assert load._inflight == 0 and load.errors == 0
            assert service.release(key, held.token)
            assert service.verify() == []
        finally:
            await service.close()

    asyncio.run(body())


def _count_calls(monkeypatch, owner, name, who):
    """Wrap ``owner.name``; record ``who(self, *args)`` for every call."""
    seen = []
    original = getattr(owner, name)

    def wrapper(self, *args):
        seen.append(who(self, *args))
        return original(self, *args)

    monkeypatch.setattr(owner, name, wrapper)
    return seen


async def _idle_window(service, seen):
    """Start ``service``, let it settle, count ``seen`` over 0.3 s of no load."""
    await service.start()
    try:
        await asyncio.sleep(0.2)  # the keepers leave the warm-up's mutex
        del seen[:]
        await asyncio.sleep(0.3)
        return list(seen)
    finally:
        await service.close()


def test_idle_service_does_not_wake_its_replicas(monkeypatch):
    # A live replica's lifetime is unbounded, so it naps until a message
    # arrives: with no load it takes no step.  A replica polling every
    # 5 ms enters about 60 naps in the window.
    entered = _count_calls(monkeypatch, AsyncioSubstrate, "wait_for_message",
                           lambda substrate, dst, timeout: dst)
    service = _service(bound=0.02)
    entered = asyncio.run(_idle_window(service, entered))
    for rpid in service.system.replica_pids:
        assert entered.count(rpid) <= 1, (rpid, entered.count(rpid))


@pytest.mark.parametrize("keepers", [1, 2])
def test_idle_service_does_not_wake_its_keepers(monkeypatch, keepers):
    # A keeper whose pool is stocked naps until the front door rings it,
    # standbys included: with no load each looks at the pool at most
    # once.  A keeper polling every 5 ms looked about 60 times.
    looked = _count_calls(monkeypatch, _LiveFeed, "wants_refill",
                          lambda feed: feed.monitor.pid)
    service = _service(bound=0.02, keepers_per_shard=keepers)
    looked = asyncio.run(_idle_window(service, looked))
    for pid in service.system.client_pids:
        assert looked.count(pid) <= 1, (pid, looked.count(pid))


async def _until(condition, timeout=5.0):
    async def poll():
        while not condition():
            await asyncio.sleep(0.005)

    await asyncio.wait_for(poll(), timeout)


def test_a_grant_that_crosses_low_water_starts_a_refill():
    async def body():
        service = _service(shards=1, bound=0.01, block=16)  # low_water 8
        await service.start()
        state = service.states[0]
        (feed,) = state.feeds
        try:
            await _until(lambda: feed.napping)
            for i in range(7):  # 16 -> 9 tokens, still above low_water
                assert await service.acquire(f"k{i}", ttl=5.0) is not None
            await asyncio.sleep(0.1)
            assert state.core.refills == 1 and feed.napping
            assert await service.acquire("k7", ttl=5.0) is not None
            await _until(lambda: state.core.refills == 2)
        finally:
            await service.close()
        assert service.verify() == []

    asyncio.run(body())


def test_ring_never_wakes_a_keeper_inside_a_quorum_phase(monkeypatch):
    # A wake-up inside a quorum phase ends a polling nap early, and ten
    # such polls make the phase retransmit.  Ring the shard on every
    # loop turn through a few refills: every wait a ring ends must be a
    # keeper's idle nap, the only one without a timeout.
    timeouts = {}  # pid -> timeout of the wait it is parked in
    woken = []  # the timeout of every wait a ring ended
    wait = AsyncioSubstrate.wait_for_message
    wake = AsyncioSubstrate.wake

    async def wait_for_message(self, dst, timeout):
        timeouts[dst] = timeout
        try:
            return await wait(self, dst, timeout)
        finally:
            del timeouts[dst]

    def ring(self, dst):
        parked = self._parked[dst]
        if parked is not None and not parked.done():
            woken.append(timeouts[dst])
        wake(self, dst)

    monkeypatch.setattr(AsyncioSubstrate, "wait_for_message", wait_for_message)
    monkeypatch.setattr(AsyncioSubstrate, "wake", ring)

    async def body():
        service = _service(shards=1, bound=0.01, block=16)
        await service.start()
        state = service.states[0]
        stop = False

        async def hammer():
            while not stop:
                service._ring(state)
                await asyncio.sleep(0)

        ringer = asyncio.ensure_future(hammer())
        try:
            for i in range(40):
                lease = await service.acquire(f"k{i}", ttl=5.0, timeout=10.0)
                assert lease is not None
                assert service.release(f"k{i}", lease.token)
            await _until(lambda: state.feeds[0].napping)
        finally:
            stop = True
            await ringer
            await service.close()
        assert state.core.refills >= 3
        assert woken and all(timeout == math.inf for timeout in woken), woken
        assert service.verify() == []

    asyncio.run(body())


def test_cancelling_the_load_generator_cancels_its_pump():
    # The pump is a chain of loop timers: cancelling the run must
    # cancel the armed one, or sessions keep starting after it.
    async def body():
        service = _service(block=256)
        await service.start()
        try:
            load = LoadGenerator(service, clients=200, duration=1.0, seed=0,
                                 timeout=5.0)
            started = []
            spawn = load._spawn

            def counted(index, scheduled):
                started.append(index)
                spawn(index, scheduled)

            load._spawn = counted
            run = asyncio.ensure_future(load.run())
            await asyncio.sleep(0.2)
            timer = load._timer
            run.cancel()
            with pytest.raises(asyncio.CancelledError):
                await run
            assert timer is not None and timer.cancelled()
            before = len(started)
            assert 0 < before < load.clients
            await asyncio.sleep(1.0)  # past the schedule's last arrival
            assert len(started) == before
            assert started == list(range(before))
        finally:
            await service.close()
        assert service.verify() == []

    asyncio.run(body())


@pytest.mark.parametrize("shape", [
    dict(keyspace=1024, hold=0.0),
    dict(keyspace=1024, hold=0.02),
    dict(keyspace=2, hold=0.05, timeout=0.1),
], ids=["hold-0", "hold", "hot-key-timeouts"])
def test_every_session_is_accounted_for(shape):
    async def body():
        service = _service(block=256)
        await service.start()
        try:
            settings = dict(timeout=5.0, seed=0)
            settings.update(shape)
            load = LoadGenerator(service, clients=150, duration=0.5, **settings)
            report = await load.run()
        finally:
            await service.close()
        outcomes = ("granted", "timeouts", "shed", "cancelled", "errors")
        assert sum(report[name] for name in outcomes) == report["clients"]
        assert report["errors"] == 0
        if shape["keyspace"] == 2:
            assert report["timeouts"] > 0
        assert service.verify() == []

    asyncio.run(body())


def test_an_open_loop_pays_one_refill_per_block():
    # A slow open loop never empties a pool, so every refill lands while
    # the pool still has tokens: each block extends it, and no token is
    # skipped.  Moving the pool to the new block's base dropped the
    # unspent half and paid about one refill per block / 2 grants.
    async def body():
        service = _service(bound=0.01, block=64)
        await service.start()
        try:
            load = LoadGenerator(service, clients=500, duration=1.5,
                                 seed=0, timeout=5.0)
            report = await load.run()
        finally:
            await service.close()
        assert report["granted"] == 500
        counters = service.summary()["counters"]
        assert counters["granted"] >= 3 * service.block * service.shards
        assert counters["refills"] <= (
            math.ceil(counters["granted"] / service.block) + service.shards)
        for state in service.states:
            core = state.core
            assert core.tokens_reserved - core.tokens_available == core.granted
        assert service.verify() == []

    asyncio.run(body())


@pytest.mark.parametrize("hold", [-1.0, math.inf, math.nan])
def test_load_generator_rejects_a_hold_that_never_ends(hold):
    with pytest.raises(ValueError, match="hold must be non-negative"):
        LoadGenerator(_service(), clients=1, duration=1.0, hold=hold)


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
            assert service.substrate.delayed > 0
            net = service.summary()["net"]
            assert net["messages_dropped"] == service.substrate.dropped
        finally:
            await service.close()

    asyncio.run(body())


def test_close_cancels_the_sends_a_spike_still_holds(caplog):
    # Every frame to or from replica 3 is held 0.3 s.  Those still held
    # when close() returns are cancelled: nothing is counted or written
    # into the aborted links afterwards.
    async def body():
        tracer = Tracer()
        plan = NetFaultPlan(
            spikes=(DelaySpike(start=0.0, end=math.inf, extra=0.3, pids=(3,)),))
        service = _service(shards=1, block=16, fault_plan=plan, tracer=tracer)
        await service.start()
        try:
            await _closed_loop(service, clients=4, seconds=0.3)
        finally:
            await service.close()
        net = service.summary()["net"]
        await asyncio.sleep(0.3)
        assert service.summary()["net"] == net
        landed = [r for r in tracer.records
                  if r["kind"] == "send" and 3 in (r["src"], r["dst"])]
        assert service.substrate.delayed > len(landed)  # some held at close
        assert service.verify() == []
        assert service.base is service.substrate  # one fabric, two names

    with caplog.at_level(logging.WARNING, logger="asyncio"):
        asyncio.run(body())
    assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []


def test_timing_failures_are_counted_as_they_land():
    # Replica 3's links run 20 ms over a 5 ms bound; the other two
    # replicas still answer every quorum phase in time.
    async def body():
        tracer = Tracer()
        plan = NetFaultPlan(
            spikes=(DelaySpike(start=0.0, end=math.inf, extra=0.02, pids=(3,)),))
        service = _service(shards=1, bound=0.005, block=16, fault_plan=plan,
                           tracer=tracer)
        await service.start()
        try:
            await _closed_loop(service, clients=4, seconds=0.3)
        finally:
            await service.close()
        late = service.summary()["timing_failures"]
        wire = [r["arrive"] - r["t"] for r in tracer.records if r["kind"] == "send"]
        bound = service.substrate.bound
        over = [delay for delay in wire if delay > bound]
        assert late["count"] == len(over) > 0
        assert late["worst_excess_s"] == pytest.approx(max(over) - bound)
        assert sum(late["by_link"].values()) == late["count"]
        assert late["by_link"].get("0->3", 0) > 0  # the keeper to replica 3
        assert service.summary()["bad_frames"] == 0
        assert service.verify() == []

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


def _fake_clock_feeds(service, now):
    """Shard 0's keeper feeds wired as ``start`` does, on a settable clock."""
    service._now = lambda: now[0]
    state = service.states[0]
    feeds = []
    for pid in range(service.keepers_per_shard):
        monitor = HeartbeatMonitor(pid, set(range(pid)), initial_timeout=1.0)
        feeds.append(_LiveFeed(service, state, monitor))
    state.feeds.extend(feeds)
    return state, feeds


def test_standby_suspects_only_a_keeper_silent_under_demand():
    async def body():
        service = _service(shards=1, keepers_per_shard=2, block=64)
        now = [0.0]
        state, (active, standby) = _fake_clock_feeds(service, now)
        active.deliver(0, 64)
        # A stocked pool: the active keeper's silence is idleness.
        now[0] = 50.0
        assert not active.wants_refill() and not standby.wants_refill()
        for i in range(40):  # 24 tokens left: at or below low_water
            state.core.grant(f"k{i}", ttl=100.0)
        now[0] = 50.9
        assert active.wants_refill() and not standby.wants_refill()
        now[0] = 51.1  # dry for longer than the timeout: suspect, take over
        assert standby.wants_refill()
        assert standby.monitor.suspected == {0}
        # The suspected keeper delivers after all: a false suspicion.
        active.deliver(64, 128)
        assert standby.monitor.suspected == set()
        assert standby.monitor.timeout[0] == 1.5
        assert not standby.wants_refill()

    asyncio.run(body())


def test_a_standby_rung_after_a_long_nap_suspects_only_after_its_timeout():
    # A stocked pool puts the standby to sleep until rung.  However long
    # it slept, the active keeper's silence counts from the ring, when
    # demand began, not from when the nap started.
    async def body():
        service = _service(shards=1, keepers_per_shard=2, block=64)
        now = [0.0]
        state, (active, standby) = _fake_clock_feeds(service, now)
        active.deliver(0, 64)
        assert not standby.wants_refill()
        assert standby.idle_for(0.005) == math.inf and standby.napping
        now[0] = 50.0  # rung 50 s later: 40 grants leave 24 tokens
        for i in range(40):
            state.core.grant(f"k{i}", ttl=100.0)
        assert not standby.wants_refill() and not standby.napping
        assert standby.idle_for(0.005) == 0.005  # polls while under demand
        now[0] = 50.9
        assert not standby.wants_refill()
        now[0] = 51.1
        assert standby.wants_refill()
        assert standby.monitor.suspected == {0}

    asyncio.run(body())


def test_keeper_refills_back_to_back_while_supply_is_behind():
    async def body():
        service = _service(shards=1, block=64)
        state, (keeper,) = _fake_clock_feeds(service, [0.0])
        keeper.deliver(0, 64)
        assert not keeper.wants_refill()  # nobody was waiting on the pool
        for i in range(64):
            state.core.grant(f"k{i}", ttl=100.0)
        # An acquirer parked on the empty pool.
        waiter = asyncio.ensure_future(service.acquire("w", ttl=100.0))
        await asyncio.sleep(0)
        assert len(state.pool) == 1
        keeper.deliver(64, 128)
        assert (await waiter).token == 64  # the delivery's first token
        assert state.core.tokens_available > service.low_water
        assert keeper.wants_refill()
        assert not keeper.wants_refill()  # one refill, then demand as usual

    asyncio.run(body())


def test_standby_keeper_sends_nothing_while_the_active_one_serves():
    # Two keepers per shard cost what one does: about 37 quorum phases
    # per refill.  A standby that spun through Algorithm 3's doorway
    # alongside the active keeper cost ~330.
    async def body():
        service = _service(keepers_per_shard=2, bound=0.01, block=16)
        await service.start()
        try:
            await _closed_loop(service, clients=16, seconds=1.5)
        finally:
            await service.close()
        counters = service.summary()["counters"]
        refills = counters["refills"] + counters["stale_refills"]
        assert refills >= 8
        assert service.summary()["net"]["quorum_rtts"] / refills <= 45
        assert service.verify() == []

    asyncio.run(body())


def test_standby_takes_over_from_a_dead_keeper():
    async def body():
        service = _service(shards=1, keepers_per_shard=2, bound=0.005,
                           block=256)
        await service.start()
        try:
            state = service.states[0]
            standby = state.feeds[1].monitor
            # The active keeper idles in its demand poll, holding no lock.
            assert state.core.tokens_available > service.low_water
            service.driver.tasks[0].cancel()
            dry_at = None
            leases = []
            for i in range(3 * service.block):
                if dry_at is None and (
                        state.core.tokens_available <= service.low_water):
                    dry_at = service.substrate.clock.now
                lease = await service.acquire(f"k{i}", ttl=5.0, timeout=10.0)
                assert lease is not None
                assert service.release(f"k{i}", lease.token)
                leases.append(lease)
            tokens = [lease.token for lease in leases]
            assert all(a < b for a, b in zip(tokens, tokens[1:]))
            assert state.core.refills >= 3
            assert standby.suspected == {0}
            # The takeover waited out the standby's timeout, no longer.
            first_new = next(l for l in leases if l.token >= service.block)
            assert first_new.granted_at - dry_at >= standby.timeout[0]
            assert service.verify() == []
        finally:
            await asyncio.wait_for(service.close(), 10.0)

    asyncio.run(body())


def test_delay_spike_on_the_active_keeper_is_a_false_suspicion():
    # Keeper 0's links stall far past the standby's timeout (≈ 0.12 s):
    # the standby suspects it and contends, Algorithm 3 serialises the
    # two, and keeper 0's late delivery grows the standby's timeout.
    async def body():
        plan = NetFaultPlan(
            spikes=(DelaySpike(0.4, 1.2, extra=0.03, pids=(0,)),))
        service = _service(shards=1, keepers_per_shard=2, bound=0.005,
                           block=16, fault_plan=plan)
        await service.start()
        standby = service.states[0].feeds[1].monitor
        initial = standby.timeout[0]
        try:
            await _closed_loop(service, clients=8, seconds=2.0)
        finally:
            await service.close()
        assert service.driver.returns[1]["refills"] >= 1
        assert standby.false_suspicions >= 1
        assert standby.timeout[0] > initial
        assert service.verify() == []

    asyncio.run(body())


@pytest.mark.parametrize("death", ["cancelled", "raised"])
def test_close_after_a_keeper_died(death):
    async def body():
        service = _service(shards=1, bound=0.005)
        await service.start()
        keeper = service.driver.tasks[0]
        if death == "cancelled":
            keeper.cancel()
        else:
            def broken(base, limit):
                raise RuntimeError("keeper broke")

            service.states[0].core.refill = broken
            # Demand a refill now: the grant leaves the pool at or below
            # low_water, which rings the idle keeper.
            service.low_water = service.block
            assert await service.acquire("k", ttl=5.0) is not None
        while not keeper.done():
            await asyncio.sleep(0.01)
        if death == "raised":
            with pytest.raises(RuntimeError, match="keeper broke"):
                await asyncio.wait_for(service.close(), 5.0)
        else:
            await asyncio.wait_for(service.close(), 5.0)
        assert service.substrate._closed
        assert all(task.done() for task in service.driver.tasks.values())

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
