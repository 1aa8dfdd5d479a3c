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
seam's whole argument.

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
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.core.mutex import default_time_resilient_mutex
from repro.net.faults import NetFaultPlan
from repro.net.quorum import QuorumSystem
from repro.obs.tracer import Tracer
from repro.sim import ops
from repro.sim.process import Program
from repro.sim.registers import Register, RegisterNamespace

from .chaosproxy import FaultProxySubstrate
from .driver import AsyncioDriver
from .substrate import AsyncioSubstrate

__all__ = [
    "Lease",
    "LeaseCore",
    "LeaseService",
    "TokensExhausted",
    "keeper_program",
    "shard_for",
    "verify_lease_events",
]


def shard_for(key: Hashable, shards: int) -> int:
    """Route ``key`` to a shard — stable across processes and restarts.

    Uses CRC-32 of the key's text, *not* :func:`hash`: Python string
    hashing is salted per process (``PYTHONHASHSEED``), and a lock
    service that re-routed keys on restart would hand two clients the
    same key on different shards.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    data = key if isinstance(key, bytes) else str(key).encode("utf-8")
    return zlib.crc32(data) % shards


class TokensExhausted(Exception):
    """The shard's reserved fencing-token block is empty.

    Not an error in the protocol — the keeper refills the pool through
    the quorum; callers wait for the refill (the service does this
    internally) rather than minting tokens locally, which would forfeit
    monotonicity.
    """


@dataclass
class Lease:
    """One granted lease: ``key`` held by ``holder`` until ``expires_at``."""

    key: Hashable
    holder: Optional[str]
    token: int
    granted_at: float
    expires_at: float

    def remaining(self, now: float) -> float:
        return self.expires_at - now


class LeaseCore:
    """The per-shard lease table: pure bookkeeping, injected clock.

    Deliberately free of asyncio so the same class backs the simulated
    churn workload (logical clock) and the live service (wall clock).
    All safety-relevant checks live here:

    * fencing tokens are only ever handed out from blocks delivered by
      :meth:`refill`; a block that *overlaps* already-reserved tokens is
      recorded in :attr:`violations` (it would mean the shard mutex or
      the ``hwm`` register atomicity failed);
    * a grant whose token is not strictly above the key's previous token
      is recorded as a violation (fencing monotonicity);
    * an expired lease is removed before any re-grant, and a release
      carrying a stale token is fenced off.

    When ``record_history`` is true every grant/release/expire lands in
    :attr:`events`, which :func:`verify_lease_events` audits
    independently — the checker trusts nothing this class believes.
    """

    def __init__(
        self,
        shard: int,
        clock: Callable[[], float],
        record_history: bool = True,
    ) -> None:
        self.shard = shard
        self._clock = clock
        self.leases: Dict[Hashable, Lease] = {}
        self.last_token: Dict[Hashable, int] = {}
        self._next_token = 0
        self._limit = 0
        self.granted = 0
        self.released = 0
        self.expired = 0
        self.busy = 0
        self.fenced = 0
        self.refills = 0
        self.stale_refills = 0
        self.violations: List[str] = []
        self.events: Optional[List[Tuple[str, Hashable, int, float, float]]] = (
            [] if record_history else None
        )

    # -- token pool ----------------------------------------------------------

    @property
    def tokens_available(self) -> int:
        return self._limit - self._next_token

    @property
    def tokens_reserved(self) -> int:
        """High-water mark of this core's reservations (== last block limit)."""
        return self._limit

    def refill(self, base: int, limit: int) -> None:
        """Accept the token block ``[base, limit)`` reserved by a keeper.

        Blocks may arrive out of order when keepers hand off (reserver A
        can be slow delivering after reserver B): a block entirely below
        the current limit is *stale* — superseded, dropped, its tokens
        wasted harmlessly as a gap.  A block that overlaps the reserved
        range is impossible under mutual exclusion + register atomicity,
        so it is recorded as a violation rather than silently merged.
        """
        if limit <= base:
            raise ValueError(f"empty token block [{base}, {limit})")
        if limit <= self._limit:
            self.stale_refills += 1
            return
        if base < self._limit:
            self.violations.append(
                f"shard {self.shard}: token block [{base}, {limit}) overlaps "
                f"already-reserved tokens below {self._limit} — mutex or "
                f"register atomicity failed"
            )
        self._next_token = max(self._next_token, base)
        self._limit = limit
        self.refills += 1

    # -- lease operations ----------------------------------------------------

    def grant(
        self,
        key: Hashable,
        ttl: float,
        holder: Optional[str] = None,
    ) -> Optional[Lease]:
        """Grant ``key`` for ``ttl`` seconds, or return ``None`` if held.

        Raises :class:`TokensExhausted` when the reserved block is empty
        — the caller must wait for a keeper refill, never mint locally.
        """
        if ttl <= 0:
            raise ValueError(f"lease ttl must be positive, got {ttl}")
        now = self._clock()
        current = self.leases.get(key)
        if current is not None:
            if current.expires_at > now:
                self.busy += 1
                return None
            self._expire(current, now)
        if self._next_token >= self._limit:
            raise TokensExhausted(
                f"shard {self.shard}: token pool empty at {self._limit}"
            )
        token = self._next_token
        self._next_token += 1
        last = self.last_token.get(key)
        if last is not None and token <= last:
            self.violations.append(
                f"shard {self.shard}: fencing token regressed on {key!r}: "
                f"granted {token} after {last}"
            )
        self.last_token[key] = token
        lease = Lease(key, holder, token, now, now + ttl)
        self.leases[key] = lease
        self.granted += 1
        if self.events is not None:
            self.events.append(("grant", key, token, now, lease.expires_at))
        return lease

    def release(self, key: Hashable, token: int) -> bool:
        """Release ``key`` if ``token`` is the *current* lease's token.

        A stale token — the lease expired (and was possibly re-granted),
        or the caller never held it — is fenced: counted, refused, and
        harmless to the actual holder.
        """
        now = self._clock()
        lease = self.leases.get(key)
        if lease is None or lease.token != token:
            self.fenced += 1
            return False
        if lease.expires_at <= now:
            self._expire(lease, now)
            self.fenced += 1
            return False
        del self.leases[key]
        self.released += 1
        if self.events is not None:
            self.events.append(("release", key, token, now, lease.expires_at))
        return True

    def sweep(self, now: Optional[float] = None) -> int:
        """Expire every lease past its TTL; return how many died.

        Grants already expire lazily per key; the sweep exists so leases
        on *quiet* keys do not linger in memory, and so waiters parked on
        a stalled client's key wake at the TTL, not at the next grant.
        """
        if now is None:
            now = self._clock()
        doomed = [lease for lease in self.leases.values() if lease.expires_at <= now]
        for lease in doomed:
            self._expire(lease, now)
        return len(doomed)

    def _expire(self, lease: Lease, now: float) -> None:
        del self.leases[lease.key]
        self.expired += 1
        if self.events is not None:
            self.events.append(
                ("expire", lease.key, lease.token, now, lease.expires_at)
            )

    def counters(self) -> Dict[str, int]:
        return {
            "granted": self.granted,
            "released": self.released,
            "expired": self.expired,
            "busy": self.busy,
            "fenced": self.fenced,
            "refills": self.refills,
            "stale_refills": self.stale_refills,
            "tokens_reserved": self._limit,
            "violations": len(self.violations),
        }

    def __repr__(self) -> str:
        return (
            f"LeaseCore(shard={self.shard}, active={len(self.leases)}, "
            f"tokens={self._next_token}/{self._limit})"
        )


def verify_lease_events(
    events: List[Tuple[str, Hashable, int, float, float]],
) -> List[str]:
    """Audit a lease event history; return every violation found.

    The independent checker behind the acceptance criterion's "zero
    mutual-exclusion/fencing violations": it replays the
    grant/release/expire stream and re-derives the two invariants from
    scratch —

    * **fencing monotonicity**: per key, grant tokens strictly increase;
    * **exclusion**: a key is never granted while a previous lease on it
      is still valid (not released, not expired, TTL not yet passed).
    """
    violations: List[str] = []
    last_token: Dict[Hashable, int] = {}
    active: Dict[Hashable, Tuple[int, float]] = {}
    for kind, key, token, at, expires_at in events:
        if kind == "grant":
            prev = last_token.get(key)
            if prev is not None and token <= prev:
                violations.append(
                    f"fencing token regressed on {key!r}: {token} after {prev}"
                )
            last_token[key] = token
            held = active.get(key)
            if held is not None and held[1] > at:
                violations.append(
                    f"overlapping leases on {key!r}: token {token} granted at "
                    f"{at:.6f} while token {held[0]} valid until {held[1]:.6f}"
                )
            active[key] = (token, expires_at)
        else:  # release / expire both end the key's current occupancy
            held = active.get(key)
            if held is not None and held[0] == token:
                del active[key]
    return violations


def keeper_program(
    lock: Any,
    hwm: Register,
    pid: int,
    shard: int,
    feed: Any,
    block: int,
    idle_poll: float,
) -> Program:
    """The shard keeper: reserve fencing-token blocks under Algorithm 3.

    A generator over :mod:`repro.sim.ops` — *identical* on the sim and
    live substrates; only the driver differs.  ``feed`` is the keeper's
    environment (duck-typed):

    * ``finished()`` — stop serving and retire;
    * ``wants_refill()`` — does the shard need more tokens?
    * ``deliver(base, limit)`` — hand a reserved block over (the live
      feed refills the shard's :class:`LeaseCore` and wakes waiters; the
      sim feed refills and immediately churns grants through the block).

    Two keepers of one shard may both decide to refill and serialize on
    the mutex — the loser reserves a block that may arrive stale at the
    core, which drops it (see :meth:`LeaseCore.refill`).  Correctness
    never depends on the demand check being mutual-exclusion-protected.

    The critical section is labelled with the standard ``CS_ENTER`` /
    ``CS_EXIT`` marks, so the mutual-exclusion spec checker audits
    keeper handoffs on the sim substrate exactly like any other mutex
    user (filter intervals per shard — distinct shards legitimately
    overlap).
    """
    refills = 0
    while not feed.finished():
        if not feed.wants_refill():
            yield ops.delay(idle_poll)
            continue
        yield from lock.entry(pid)
        yield ops.label(ops.CS_ENTER, shard)
        base = yield hwm.read()
        yield hwm.write(base + block)
        yield ops.label(ops.CS_EXIT, shard)
        yield from lock.exit(pid)
        feed.deliver(base, base + block)
        refills += 1
    return {"shard": shard, "pid": pid, "refills": refills}


class _LiveFeed:
    """The live keeper environment: demand-driven, wakes shard waiters."""

    def __init__(self, service: "LeaseService", state: "_ShardState") -> None:
        self.service = service
        self.state = state

    def finished(self) -> bool:
        return self.service._closing

    def wants_refill(self) -> bool:
        return self.state.core.tokens_available <= self.service.low_water

    def deliver(self, base: int, limit: int) -> None:
        self.state.core.refill(base, limit)
        self.service._notify(self.state)


class _ShardState:
    __slots__ = ("core", "lock", "hwm", "wake", "waiters")

    def __init__(self, core: LeaseCore, lock: Any, hwm: Register) -> None:
        self.core = core
        self.lock = lock
        self.hwm = hwm
        self.wake: Optional[asyncio.Event] = None
        self.waiters = 0


class LeaseService:
    """The asyncio front door: sharded leases over the live substrate.

    Construction wires the whole stack — ``AsyncioSubstrate`` (optionally
    wrapped in a :class:`~repro.serve.chaosproxy.FaultProxySubstrate`),
    a :class:`~repro.net.quorum.QuorumSystem` bound to it, one Algorithm
    3 mutex + ``hwm`` register + :class:`LeaseCore` per shard, and an
    :class:`~repro.serve.driver.AsyncioDriver` to run the keeper and
    replica generators.  Nothing runs until :meth:`start`.

    Parameters
    ----------
    shards:
        Lease namespaces served in parallel; keys route by
        :func:`shard_for`.
    keepers_per_shard:
        Keeper processes contending for each shard's mutex.  One is
        enough; more exercises Algorithm 3 handoffs under load.
    block / low_water:
        Fencing tokens reserved per quorum round trip, and the pool
        level that triggers a proactive refill (default ``block // 2``).
        Supply math worth doing out loud: one refill is one Algorithm 3
        acquisition around a read and a write of ``hwm`` — a single
        doorway ``delay(Δ_net)`` (112 ms at the default 20 ms bound with
        one keeper, 130 ms with four) plus about 37 quorum phases, each
        one wire round trip (≈ 0.4 ms on loopback) because a phase's
        polling pause is a ``Nap`` that ends when the ack arrives.  The
        ledger's ``live_refill`` measures a ≈ 165 ms refill cycle, so a
        shard sustains about ``6 · block`` grants per second and the
        doorway delay is four fifths of the cycle; when every phase
        instead slept out a 5 ms polling quantum the same cycle took
        380 ms (``2.6 · block``).  Size ``block`` for the offered load
        (the load CLI does this automatically); an undersized block does
        not break safety, it just queues acquirers on the refill.
    fault_plan:
        A :class:`~repro.net.faults.NetFaultPlan` injected between the
        service and the sockets — the chaos path.
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
        record_history: bool = True,
        time_scale: float = 1.0,
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
        self.base = AsyncioSubstrate(clients + replicas, bound=bound, tracer=tracer)
        if fault_plan is not None:
            self.substrate: Any = FaultProxySubstrate(
                self.base, fault_plan, seed=fault_seed
            )
        else:
            self.substrate = self.base
        self.system = QuorumSystem(
            clients=clients, replicas=replicas, substrate=self.substrate, seed=seed
        )
        self.driver = AsyncioDriver(
            self.substrate, time_scale=time_scale, tracer=tracer
        )
        self.timeouts = 0
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
            core = LeaseCore(shard, clock=self._now, record_history=record_history)
            self.states.append(_ShardState(core, lock, hwm))

    def _now(self) -> float:
        return self.base.clock.now

    # -- lifecycle -----------------------------------------------------------

    async def start(self, warmup: bool = True, warmup_timeout: float = 30.0) -> None:
        """Open the sockets, spawn replicas and keepers, fill the pools.

        With ``warmup`` (default) this returns only once every shard has
        tokens to grant — the keepers' first mutex acquisition and
        quorum round trip are real work, and an un-warmed service would
        charge that startup cost to the first clients' latency.
        """
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        await self.base.start()
        for state in self.states:
            state.wake = asyncio.Event()
        for rpid in self.system.replica_pids:
            self.driver.spawn(
                self.system.replica(rpid), pid=rpid, name=f"replica{rpid}"
            )
        for shard, state in enumerate(self.states):
            for k in range(self.keepers_per_shard):
                pid = shard * self.keepers_per_shard + k
                program = keeper_program(
                    state.lock,
                    state.hwm,
                    pid,
                    shard,
                    _LiveFeed(self, state),
                    self.block,
                    self.system.poll,
                )
                self.driver.spawn(
                    self.system.emulate_registers(pid, program),
                    pid=pid,
                    name=f"keeper{shard}.{k}",
                )
        self._sweeper = asyncio.get_running_loop().create_task(self._sweep_loop())
        if warmup:
            deadline = self._now() + warmup_timeout
            while any(state.core.tokens_available == 0 for state in self.states):
                if self._now() > deadline:
                    raise RuntimeError(
                        "warmup timed out: keepers never filled the token pools"
                    )
                await asyncio.sleep(0.005)

    async def close(self, drain_timeout: float = 10.0) -> None:
        """Retire keepers (and with them the replicas), close the sockets.

        Keepers observe the closing flag at their next loop turn, return,
        and their register facades broadcast goodbyes; replicas retire
        once every client has said goodbye.  If the drain outlasts
        ``drain_timeout`` (a wedged program — not expected), the driver
        cancels outright rather than hang.
        """
        if not self._started or self._closed:
            self._closed = True
            return
        self._closed = True
        self._closing = True
        if self._sweeper is not None:
            self._sweeper.cancel()
            try:
                await self._sweeper
            except asyncio.CancelledError:
                pass
        try:
            await asyncio.wait_for(self.driver.wait(), drain_timeout)
        except asyncio.TimeoutError:
            await self.driver.cancel()
        await self.base.close()

    async def _sweep_loop(self) -> None:
        while not self._closing:
            await asyncio.sleep(self.sweep_interval)
            for state in self.states:
                if state.core.sweep():
                    self._notify(state)

    def _notify(self, state: _ShardState) -> None:
        # Broadcast-and-replace: waiters hold a reference to the old
        # event, which fires exactly once; new waiters park on the fresh
        # one.  No wakeup is ever lost to a clear() race.  Skipping when
        # nobody waits keeps the uncontended release path allocation-free;
        # a waiter that registers a moment later re-checks within its
        # bounded pause anyway.
        if state.waiters == 0:
            return
        old = state.wake
        state.wake = asyncio.Event()
        if old is not None:
            old.set()

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

        Waiters park on the shard's wake event, not on a poll loop: at
        10⁴+ arrivals per second a fixed retry cadence becomes a
        thundering herd that starves the event loop — including the
        keeper's own quorum round trips, which is exactly the death
        spiral (dry pool → herd → slower refill → drier pool).  The
        waiter registers *before* re-checking the grant, so a release or
        refill landing between the check and the park is never missed.
        """
        if ttl is None:
            ttl = self.default_ttl
        state = self.states[shard_for(key, self.shards)]
        deadline = None if timeout is None else self._now() + timeout
        while True:
            wake = state.wake
            assert wake is not None, "service not started"
            state.waiters += 1
            try:
                try:
                    lease = state.core.grant(key, ttl, holder)
                except TokensExhausted:
                    # Refill is in flight (or imminent: the keeper polls
                    # demand every few ms) — wake on pool refill.
                    wait_until = None
                else:
                    if lease is not None:
                        return lease
                    held = state.core.leases.get(key)
                    wait_until = held.expires_at if held is not None else None
                now = self._now()
                if deadline is not None and now >= deadline:
                    self.timeouts += 1
                    return None
                pause = None
                if wait_until is not None:
                    pause = wait_until - now
                if deadline is not None:
                    remaining = deadline - now
                    pause = remaining if pause is None else min(pause, remaining)
                try:
                    if pause is None:
                        await wake.wait()
                    else:
                        await asyncio.wait_for(wake.wait(), max(pause, 0.0005))
                except asyncio.TimeoutError:
                    pass
            finally:
                state.waiters -= 1

    def release(self, key: Hashable, token: int) -> bool:
        """Release ``key`` under ``token``; stale tokens are fenced off."""
        state = self.states[shard_for(key, self.shards)]
        ok = state.core.release(key, token)
        if ok:
            self._notify(state)
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
            "bound": self.base.bound,
            "timeouts": self.timeouts,
            "counters": totals,
            "net": self.substrate.stats.snapshot(),
        }

    def __repr__(self) -> str:
        return (
            f"LeaseService(shards={self.shards}, "
            f"keepers_per_shard={self.keepers_per_shard}, "
            f"replicas={self.system.replicas})"
        )
