"""The lease service: Algorithm 3 + emulated registers, serving real clients.

Architecture — Chubby-shaped, paper-powered.  A lock service that took
one quorum round trip per client request would top out near
``1 / (quorum RTT)`` operations per second; instead the expensive
machinery runs at *shard* granularity and client requests are local:

* Each shard ``s`` owns a register namespace ``("serve", s)`` holding a
  :func:`~repro.core.mutex.default_time_resilient_mutex` (Algorithm 3:
  Fischer doorway around a fast starvation-free lock) and one ``hwm``
  register — the fencing-token high-water mark.  All of them live in the
  same ABD quorum emulation, so every shard survives a replica minority
  crashing and every timing failure leaves safety intact.
* A *keeper* process per shard reserves fencing tokens in blocks: lock
  the shard mutex, ``base = read(hwm)``, ``write(hwm, base + block)``,
  unlock, hand ``[base, base+block)`` to the local
  :class:`LeaseCore`.  Because reservations are serialized by Algorithm
  3 and ``hwm`` is an atomic register, blocks are disjoint and
  increasing — fencing tokens stay monotonic across keeper handoffs and
  service restarts *by construction*, and :class:`LeaseCore` checks the
  invariant anyway and records a violation if reality disagrees.
* Client ``acquire``/``release`` touch only the in-memory lease table:
  a grant is a dict insert stamped with the next token from the
  reserved block, a TTL, and the holder.  That is what lets one
  process serve 10⁵ open-loop clients while the quorum fabric idles.

The keeper's program is a plain generator over :mod:`repro.sim.ops` —
the *same* function runs under the discrete-event
:class:`~repro.sim.engine.Engine` (see
:func:`repro.serve.workload.lease_churn_sim`) and under the live
:class:`~repro.serve.driver.AsyncioDriver`, which is the substrate
seam's whole argument.  That asyncio-free half (:class:`LeaseCore`,
:func:`verify_lease_events`, :func:`keeper_program`, :func:`shard_for`)
lives in :mod:`repro.serve.lease`; this module is the asyncio front door.

Lease semantics, stated precisely:

* a lease on ``key`` is exclusive until released or expired; a grant
  over a still-valid lease returns ``None`` (busy);
* expiry is *lazy* (checked at the next grant on that key, plus a
  periodic sweep) — a stalled client's lease dies at its TTL without
  the client's cooperation;
* ``release`` requires the exact fencing token; a release with a stale
  token (expired and re-granted, or plain wrong) is *fenced*: refused
  and counted, never corrupting the current holder.
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from typing import Any, Deque, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.core.mutex import default_time_resilient_mutex
from repro.net.faults import NetFaultPlan
from repro.net.omega import HeartbeatMonitor
from repro.net.quorum import QuorumSystem
from repro.obs.tracer import Tracer
from repro.sim.registers import Register, RegisterNamespace

from .driver import AsyncioDriver
from .lease import (
    Lease,
    LeaseCore,
    LeaseHistory,
    TokensExhausted,
    keeper_program,
    shard_for,
    verify_lease_events,
)
from .substrate import AsyncioSubstrate

__all__ = [
    "Lease",
    "LeaseCore",
    "LeaseHistory",
    "LeaseService",
    "TokensExhausted",
    "keeper_program",
    "shard_for",
    "verify_lease_events",
]


class _LiveFeed:
    """The live keeper environment: demand-driven, feeds the pool queue.

    Demand is the pool at or below ``low_water``, or a delivery that
    found the pool empty under waiting acquirers.  A delivery grants the
    new tokens to the heads of the shard's pool queue.  Each keeper's
    ``monitor`` watches the shard's keepers with smaller pids, and a
    keeper refills only while it is the smallest unsuspected one (the Ω
    rule), so the first keeper is active and every later one is a
    passive standby that stays out of Algorithm 3, and off the quorum,
    until it suspects every keeper before it.  A peer's delivery is its
    heartbeat; silence counts only while the pool is dry, since an idle
    keeper has nothing to deliver.  A suspected peer's next delivery
    grows that peer's timeout.  A wrong suspicion is a timing failure:
    both keepers contend and Algorithm 3 serialises them.

    An idle keeper takes no step while the pool is stocked: it naps
    until the front door rings it (:meth:`LeaseService._ring`), which
    happens when a grant leaves the pool at or below ``low_water`` or
    finds it dry, and at ``close()``.  ``napping`` marks that nap, so a
    ring never reaches a keeper inside a quorum phase, where an early
    wake-up would count toward the phase's retransmit.  A standby that
    sees demand but is not the leader still polls every ``idle_poll``,
    so its suspicion timing does not depend on rings.
    """

    def __init__(
        self, service: "LeaseService", state: "_ShardState", monitor: HeartbeatMonitor
    ) -> None:
        self.service = service
        self.state = state
        self.monitor = monitor
        self.behind = False
        self.napping = False  # parked until rung, see idle_for

    def finished(self) -> bool:
        return self.service._closing

    def _stocked(self) -> bool:
        return (
            not self.behind
            and self.state.core.tokens_available > self.service.low_water
        )

    def wants_refill(self) -> bool:
        monitor, service = self.monitor, self.service
        now = service._now()
        if self.napping:
            # Demand rings a napping keeper the moment it appears, so
            # until now the peers had nothing to deliver: idle, not slow.
            self.napping = False
            monitor.excuse(now)
        if self._stocked():
            monitor.excuse(now)
            return False
        self.behind = False
        monitor.update_suspicions(now)
        return monitor.leader() == monitor.pid

    def idle_for(self, poll: float) -> float:
        """How long a keeper that wants no refill naps before it looks again.

        Until rung (``math.inf``) while the pool is stocked; ``poll`` for
        a standby under demand; 0 if demand or closing came while the
        keeper drained its inbox.
        """
        if self.finished():
            return 0.0
        if not self._stocked():
            monitor = self.monitor
            return 0.0 if monitor.leader() == monitor.pid else poll
        self.napping = True
        return math.inf

    def deliver(self, base: int, limit: int) -> None:
        state = self.state
        # An empty pool with acquirers waiting means supply is behind:
        # reserve the next block at once, not after a demand poll (the
        # keeper's next look finds this block still full).  A contending
        # standby used to hide that pause by taking the lock the moment
        # this keeper released it.
        self.behind = state.core.tokens_available == 0 and bool(state.pool)
        state.core.refill(base, limit)
        pid, now = self.monitor.pid, self.service._now()
        for feed in state.feeds:
            if pid in feed.monitor.timeout:
                feed.monitor.observe_heartbeat(pid, now)
        self.service._serve_pool(state)


class _Waiter:
    """An acquirer parked in a FIFO queue: its request and its future."""

    __slots__ = ("future", "key", "ttl", "holder", "queue")

    def __init__(
        self, future: "asyncio.Future[Optional[Lease]]", key: Hashable,
        ttl: float, holder: Optional[str],
    ) -> None:
        self.future = future
        self.key = key
        self.ttl = ttl
        self.holder = holder
        self.queue: Optional[Deque[_Waiter]] = None  # the queue it sits in


def _head(queue: Deque[_Waiter]) -> Optional[_Waiter]:
    """The queue's first live waiter, past any whose task was cancelled.

    A cancelled task's future is cancelled at once, but the task leaves
    its queue only when it next runs; a handoff in between skips it.
    """
    while queue and queue[0].future.done():
        queue.popleft().queue = None
    return queue[0] if queue else None


class _ShardState:
    __slots__ = ("core", "lock", "hwm", "queues", "pool", "timers", "feeds")

    def __init__(self, core: LeaseCore, lock: Any, hwm: Register) -> None:
        self.core = core
        self.lock = lock
        self.hwm = hwm
        # Waiters for a held key, per key; a queue exists only while its
        # key has a lease in ``core.leases``.
        self.queues: Dict[Hashable, Deque[_Waiter]] = {}
        self.pool: Deque[_Waiter] = deque()  # waiters for a fencing token
        # Per queued key: (instant, timer) armed at or before its lease's
        # expiry, so the queue's head gets the key when the TTL frees it.
        self.timers: Dict[Hashable, Tuple[float, asyncio.TimerHandle]] = {}
        self.feeds: List[_LiveFeed] = []  # one per keeper, by rank


class LeaseService:
    """The asyncio front door: sharded leases over the live substrate.

    Construction wires the whole stack — an ``AsyncioSubstrate``, a
    :class:`~repro.net.quorum.QuorumSystem` bound to it, one Algorithm
    3 mutex + ``hwm`` register + :class:`LeaseCore` per shard, and an
    :class:`~repro.serve.driver.AsyncioDriver` to run the keeper and
    replica generators.  Nothing runs until :meth:`start`.

    The front door is FIFO per key.  A caller that finds its key held
    parks a future at the tail of that key's queue.  Whoever frees the
    key — :meth:`release`, the holder's TTL, or the sweep — grants it to
    the queue's head in the same loop slice and wakes nobody else.  So
    an ``acquire`` that arrives just after a release finds the key taken
    and queues behind the others: nobody barges, and a waiter is
    overtaken by no caller that arrived after it (bounded bypass).  A
    caller that finds the token pool dry waits in the shard's pool
    queue, and a keeper's delivery grants the new tokens to its heads in
    order.  A handoff that finds the pool dry moves the key's waiters to
    the pool queue, so none waits on a key that nobody holds.

    Parameters
    ----------
    shards:
        Lease namespaces served in parallel; keys route by
        :func:`shard_for`.
    keepers_per_shard:
        Keeper processes per shard: one active keeper and
        ``keepers_per_shard - 1`` passive standbys.  A standby sends
        nothing and stays out of Algorithm 3 until the pool has sat at
        or below ``low_water`` for longer than its timeout with no
        delivery from the keepers before it; then it takes over.  The
        timeout starts at ``4 · Δ_net`` (0.52 s at the default bound)
        and grows ×1.5 on every false suspicion
        (:class:`~repro.net.omega.HeartbeatMonitor`).  A keeper killed
        inside its doorway or critical section still wedges its shard:
        Algorithm 3 is not crash-tolerant.
    block / low_water:
        Fencing tokens reserved per quorum round trip, and the pool
        level that triggers a proactive refill (default ``block // 2``).
        A block that lands while the pool still holds tokens extends it
        (:meth:`LeaseCore.refill`), so an open loop that never empties
        the pool pays one refill per ``block`` grants.
        Supply math worth doing out loud: one refill is one Algorithm 3
        acquisition around a read and a write of ``hwm`` — a single
        doorway ``delay(Δ_net)`` (112 ms at the default 20 ms bound with
        one keeper, 130 ms with four) plus about 37 quorum phases, each
        one wire round trip (≈ 0.4 ms on loopback) because a phase's
        polling pause is a ``Nap`` that ends when the ack arrives.  A
        standby adds nothing to that: it sends no message while the
        active keeper delivers, so a shard costs 37 phases per refill
        whatever ``keepers_per_shard`` is.  While acquirers wait on an
        empty pool the keeper starts the next refill as soon as it
        delivers.  The ledger's ``live_refill`` then measures a
        ≈ 156 ms refill cycle, so a shard sustains about ``6.4 · block``
        grants per second and the doorway delay is ≈ 83 % of the cycle
        (130 of 156 ms); when every phase instead slept out a 5 ms polling
        quantum a cycle took 380 ms (``2.6 · block``).  Size ``block``
        for the offered load (the load CLI does this automatically); an
        undersized block does not break safety, it just queues
        acquirers on the refill.
    fault_plan / fault_seed:
        A :class:`~repro.net.faults.NetFaultPlan` the substrate applies
        to every send, and the seed of its loss draws — the chaos path.
    """

    def __init__(
        self,
        shards: int = 1,
        keepers_per_shard: int = 1,
        replicas: int = 3,
        bound: float = 0.02,
        seed: Any = 0,
        block: int = 1024,
        low_water: Optional[int] = None,
        default_ttl: float = 5.0,
        sweep_interval: float = 0.25,
        fault_plan: Optional[NetFaultPlan] = None,
        fault_seed: Any = 0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        if keepers_per_shard < 1:
            raise ValueError(
                f"need at least one keeper per shard, got {keepers_per_shard}"
            )
        if block < 1:
            raise ValueError(f"token block must be positive, got {block}")
        self.shards = shards
        self.keepers_per_shard = keepers_per_shard
        self.block = block
        self.low_water = max(1, block // 2) if low_water is None else low_water
        self.default_ttl = default_ttl
        self.sweep_interval = sweep_interval
        clients = shards * keepers_per_shard
        self.substrate = AsyncioSubstrate(
            clients + replicas, bound=bound, tracer=tracer,
            faults=fault_plan, seed=fault_seed,
        )
        self.base = self.substrate  # the same object under its older name
        self.system = QuorumSystem(
            clients=clients, replicas=replicas, substrate=self.substrate, seed=seed
        )
        self.driver = AsyncioDriver(self.substrate, tracer=tracer)
        self.timeouts = 0
        self.handoffs = 0  # grants made to a parked waiter
        self.max_queue_depth = 0  # longest key or pool queue seen
        self._closing = False
        self._started = False
        self._closed = False
        self._sweeper: Optional["asyncio.Task"] = None
        self.states: List[_ShardState] = []
        for shard in range(shards):
            ns = RegisterNamespace(("serve", shard))
            lock = default_time_resilient_mutex(
                clients, delta=self.system.delta, namespace=ns.child("lock")
            )
            hwm = ns.register("hwm", 0)
            core = LeaseCore(shard, clock=self._now)
            self.states.append(_ShardState(core, lock, hwm))

    def _now(self) -> float:
        return self.substrate.clock.now

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Open the sockets, spawn replicas and keepers, fill the pools.

        Returns only once every shard has tokens to grant — the keepers'
        first mutex acquisition and quorum round trip are real work, and
        an un-warmed service would charge that startup cost to the first
        clients' latency.  Raises ``RuntimeError`` if the pools are still
        empty after 30 s.
        """
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        await self.substrate.start()
        for rpid in self.system.replica_pids:
            self.driver.spawn(
                self.system.replica(rpid), pid=rpid, name=f"replica{rpid}"
            )
        # A fault-free refill cycle is a little over Δ_net, so a standby
        # sits out about three missed cycles before it contends.
        timeout = 4 * self.system.delta
        for shard, state in enumerate(self.states):
            first = shard * self.keepers_per_shard
            pids = range(first, first + self.keepers_per_shard)
            for k, pid in enumerate(pids):
                monitor = HeartbeatMonitor(pid, set(pids[:k]), initial_timeout=timeout)
                feed = _LiveFeed(self, state, monitor)
                state.feeds.append(feed)
                program = keeper_program(
                    state.lock,
                    state.hwm,
                    pid,
                    shard,
                    feed,
                    self.block,
                    self.system.poll,
                )
                self.driver.spawn(
                    self.system.emulate_registers(pid, program),
                    pid=pid,
                    name=f"keeper{shard}.{k}",
                )
        self._sweeper = asyncio.get_running_loop().create_task(self._sweep_loop())
        deadline = self._now() + 30.0
        while any(state.core.tokens_available == 0 for state in self.states):
            if self._now() > deadline:
                raise RuntimeError(
                    "warmup timed out: keepers never filled the token pools"
                )
            await asyncio.sleep(0.005)

    async def close(self, drain_timeout: float = 10.0) -> None:
        """Retire keepers (and with them the replicas), close the sockets.

        Keepers are rung out of their idle naps, observe the closing flag,
        return, and their register facades broadcast goodbyes; replicas retire
        once every client has said goodbye.  Whatever still runs after
        ``drain_timeout`` (a wedged program — not expected) is cancelled
        rather than waited on.  A keeper that died (cancelled, or raised)
        never says goodbye, so then the replicas are cancelled as soon
        as the other keepers are done.  The sockets close in every case;
        after that, the first exception a program raised propagates.
        """
        if not self._started or self._closed:
            self._closed = True
            return
        self._closed = True
        self._closing = True
        for state in self.states:
            self._ring(state)
        try:
            if self._sweeper is not None:
                self._sweeper.cancel()
                try:
                    await self._sweeper
                except asyncio.CancelledError:
                    pass
            await self._drain(drain_timeout)
        finally:
            await self.driver.cancel()
            await self.substrate.close()
        for task in self.driver.tasks.values():
            error = None if task.cancelled() else task.exception()
            if error is not None:
                raise error

    async def _drain(self, timeout: float) -> None:
        """Let keepers, then replicas, retire on their own within ``timeout``."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        tasks = self.driver.tasks
        for pids in (self.system.client_pids, self.system.replica_pids):
            group = [tasks[pid] for pid in pids if pid in tasks]
            if group:
                await asyncio.wait(group, timeout=max(0.0, deadline - loop.time()))
            if not all(
                t.done() and not t.cancelled() and t.exception() is None for t in group
            ):
                return

    async def _sweep_loop(self) -> None:
        while not self._closing:
            await asyncio.sleep(self.sweep_interval)
            for state in self.states:
                if state.core.sweep():
                    for key in list(state.queues):
                        self._handoff(state, key)

    # -- the front door: FIFO handoff ----------------------------------------

    def _ring(self, state: _ShardState) -> None:
        """Wake the shard's keepers that nap until the pool needs them."""
        for feed in state.feeds:
            if feed.napping:
                self.substrate.wake(feed.monitor.pid)

    def _grant(
        self, state: _ShardState, key: Hashable, ttl: float, holder: Optional[str]
    ) -> Optional[Lease]:
        """``LeaseCore.grant``; on a dry pool the key's queue joins the pool's.

        A grant on an expired lease ends that lease before it finds the
        pool empty, and a grant for the head of a freed key's queue finds
        no token: either way nobody holds the key, and its waiters now
        wait for a token.  A grant that leaves the pool at or below
        ``low_water``, or finds it dry, rings the shard's idle keepers.
        """
        core = state.core
        try:
            lease = core.grant(key, ttl, holder)
        except TokensExhausted:
            self._ring(state)
            stranded = state.queues.pop(key, None)
            if stranded:
                self._park(state.pool, stranded)
            raise
        if core.tokens_available <= self.low_water:
            self._ring(state)
        return lease

    def _park(self, queue: Deque[_Waiter], waiters: Iterable[_Waiter]) -> None:
        for waiter in waiters:
            waiter.queue = queue
            queue.append(waiter)
        if len(queue) > self.max_queue_depth:
            self.max_queue_depth = len(queue)

    def _unpark(self, state: _ShardState, waiter: _Waiter) -> None:
        queue = waiter.queue
        assert queue is not None
        waiter.queue = None
        queue.remove(waiter)
        if not queue and queue is not state.pool:
            del state.queues[waiter.key]

    def _queue_for_key(self, state: _ShardState, waiter: _Waiter) -> None:
        queue = state.queues.get(waiter.key)
        if queue is None:
            queue = state.queues[waiter.key] = deque()
        self._park(queue, (waiter,))
        self._watch(state, waiter.key, state.core.leases[waiter.key].expires_at)

    def _resolve(self, waiter: _Waiter, lease: Lease) -> None:
        waiter.queue = None
        self.handoffs += 1
        waiter.future.set_result(lease)

    def _watch(self, state: _ShardState, key: Hashable, expires_at: float) -> None:
        """Make sure a timer runs the key's handoff by ``expires_at``."""
        armed = state.timers.get(key)
        if armed is not None:
            if armed[0] <= expires_at:
                return
            armed[1].cancel()
        handle = asyncio.get_running_loop().call_later(
            expires_at - self._now(), self._expired, state, key
        )
        state.timers[key] = (expires_at, handle)

    def _expired(self, state: _ShardState, key: Hashable) -> None:
        del state.timers[key]
        self._handoff(state, key)

    def _handoff(self, state: _ShardState, key: Hashable) -> None:
        """If nobody holds ``key``, grant it to the head of its queue."""
        queue = state.queues.get(key)
        if queue is None:
            return
        held = state.core.leases.get(key)
        if held is not None and held.expires_at > self._now():
            self._watch(state, key, held.expires_at)
            return
        waiter = _head(queue)
        if waiter is None:
            del state.queues[key]
            return
        try:
            lease = self._grant(state, key, waiter.ttl, waiter.holder)
        except TokensExhausted:
            return
        assert lease is not None  # the key was free
        queue.popleft()
        if queue:
            self._watch(state, key, lease.expires_at)
        else:
            del state.queues[key]
        self._resolve(waiter, lease)

    def _serve_pool(self, state: _ShardState) -> None:
        """Grant the pool's tokens to the pool queue's heads, in order."""
        pool = state.pool
        while True:
            waiter = _head(pool)
            if waiter is None:
                return
            try:
                lease = self._grant(state, waiter.key, waiter.ttl, waiter.holder)
            except TokensExhausted:
                return
            pool.popleft()
            if lease is None:  # an earlier waiter in the pool took its key
                self._queue_for_key(state, waiter)
            else:
                self._resolve(waiter, lease)

    def _give_up(self, state: _ShardState, waiter: _Waiter) -> None:
        if not waiter.future.done():
            self._unpark(state, waiter)
            waiter.future.set_result(None)

    # -- the client API ------------------------------------------------------

    async def acquire(
        self,
        key: Hashable,
        ttl: Optional[float] = None,
        timeout: Optional[float] = None,
        holder: Optional[str] = None,
    ) -> Optional[Lease]:
        """Acquire ``key``, waiting while it is held or tokens are out.

        Returns the :class:`Lease` (carry its ``token`` to every
        downstream resource — that is the fencing discipline), or
        ``None`` once ``timeout`` elapses without a grant.

        A free key with a token in the pool is granted at once.  A held
        key queues the caller behind that key's earlier waiters, and a
        dry pool queues it behind the shard's earlier pool waiters; the
        caller then waits on its own future, granted by whoever frees
        the resource (see the class docstring).  ``ttl`` is checked
        before the caller queues, so a handoff never raises into the
        releasing caller.  A caller cancelled after it was handed a
        lease releases it, so the key passes on at once.
        """
        if ttl is None:
            ttl = self.default_ttl
        if ttl <= 0:
            raise ValueError(f"lease ttl must be positive, got {ttl}")
        state = self.states[shard_for(key, self.shards)]
        if key in state.queues:
            # The holder's TTL may have run out before its timer fired:
            # the queue's head takes the key before this caller tries.
            self._handoff(state, key)
        try:
            lease = self._grant(state, key, ttl, holder)
        except TokensExhausted:
            dry = True
        else:
            if lease is not None:
                return lease
            dry = False
        if timeout is not None and timeout <= 0:
            self.timeouts += 1
            return None
        loop = asyncio.get_running_loop()
        waiter = _Waiter(loop.create_future(), key, ttl, holder)
        if dry:
            self._park(state.pool, (waiter,))
        else:
            self._queue_for_key(state, waiter)
        deadline = (
            None if timeout is None
            else loop.call_later(timeout, self._give_up, state, waiter)
        )
        try:
            lease = await waiter.future
        except asyncio.CancelledError:
            future = waiter.future
            if waiter.queue is not None:
                self._unpark(state, waiter)
            elif not future.cancelled() and future.result() is not None:
                self.release(key, future.result().token)
            raise
        finally:
            if deadline is not None:
                deadline.cancel()
        if lease is None:
            self.timeouts += 1
        return lease

    def release(self, key: Hashable, token: int) -> bool:
        """Release ``key`` under ``token``; stale tokens are fenced off.

        The key's longest waiter, if any, is granted it before this
        returns.
        """
        state = self.states[shard_for(key, self.shards)]
        ok = state.core.release(key, token)
        if key in state.queues:
            self._handoff(state, key)
        return ok

    # -- observation ---------------------------------------------------------

    def verify(self) -> List[str]:
        """Every violation the cores recorded plus a full history audit."""
        found: List[str] = []
        for state in self.states:
            found.extend(state.core.violations)
            if state.core.events is not None:
                found.extend(verify_lease_events(state.core.events))
        return found

    def summary(self) -> Dict[str, Any]:
        cores = [state.core for state in self.states]
        totals: Dict[str, int] = {}
        for core in cores:
            for name, value in core.counters().items():
                totals[name] = totals.get(name, 0) + value
        return {
            "shards": self.shards,
            "keepers_per_shard": self.keepers_per_shard,
            "replicas": self.system.replicas,
            "bound": self.substrate.bound,
            "timeouts": self.timeouts,
            "counters": totals,
            "front_door": {
                "handoffs": self.handoffs,
                "max_queue_depth": self.max_queue_depth,
            },
            "net": self.substrate.stats.snapshot(),
            "timing_failures": self.substrate.timing_failures.snapshot(),
            "bad_frames": self.substrate.bad_frames,
        }

    def __repr__(self) -> str:
        return (
            f"LeaseService(shards={self.shards}, "
            f"keepers_per_shard={self.keepers_per_shard}, "
            f"replicas={self.system.replicas})"
        )
