"""The asyncio-free half of the lease service: lease table, audit, keeper.

Everything here runs unchanged on both substrates: the simulated churn
(:func:`repro.serve.workload.lease_churn_sim`, logical clock) and the
live :class:`~repro.serve.service.LeaseService` (wall clock).  Nothing
in this module imports asyncio, so the sim side loads no event loop
or socket substrate.

* :func:`shard_for` — stable key-to-shard routing;
* :class:`LeaseCore` — the per-shard lease table with fencing tokens,
  its audit history (:class:`LeaseHistory`) and the independent audit
  :func:`verify_lease_events`;
* :func:`keeper_program` — the shard keeper that reserves token blocks
  under Algorithm 3.
"""

from __future__ import annotations

import zlib
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional, Tuple

from repro.sim import ops
from repro.sim.process import Program
from repro.sim.registers import Register

__all__ = [
    "Lease",
    "LeaseCore",
    "LeaseHistory",
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


class LeaseHistory:
    """The append-only audit history of one :class:`LeaseCore`.

    One record per grant, release or expiry, stored in five packed
    ``array`` columns — kind code, key id, token (``'q'``), ``at`` and
    ``expires_at`` (``'d'``) — with each distinct key kept once in a
    per-history key table: about 29 bytes a record instead of a boxed
    5-tuple (≈ 166 bytes with its boxed token and floats).  Iterating
    yields the ``(kind, key, token, at, expires_at)`` tuples
    :func:`verify_lease_events` reads, built by C-level ``zip``/``map``.
    """

    GRANT, RELEASE, EXPIRE = range(3)
    # A list, not a tuple: a list's bound ``__getitem__`` is a C method,
    # a tuple's a slower slot wrapper, and ``__iter__`` maps it per record.
    _KINDS = ["grant", "release", "expire"]

    __slots__ = ("_kinds", "_key_ids", "_tokens", "_at", "_expires_at", "_ids", "_keys")

    def __init__(self) -> None:
        self._kinds = array("b")
        self._key_ids = array("I")
        self._tokens = array("q")
        self._at = array("d")
        self._expires_at = array("d")
        self._ids: Dict[Hashable, int] = {}
        self._keys: List[Hashable] = []

    def append(
        self, kind: int, key: Hashable, token: int, at: float, expires_at: float
    ) -> None:
        key_id = self._ids.get(key)
        if key_id is None:
            key_id = self._ids[key] = len(self._keys)
            self._keys.append(key)
        self._kinds.append(kind)
        self._key_ids.append(key_id)
        self._tokens.append(token)
        self._at.append(at)
        self._expires_at.append(expires_at)

    def __len__(self) -> int:
        return len(self._kinds)

    def __iter__(self) -> Iterator[Tuple[str, Hashable, int, float, float]]:
        return zip(
            map(self._KINDS.__getitem__, self._kinds),
            map(self._keys.__getitem__, self._key_ids),
            self._tokens,
            self._at,
            self._expires_at,
        )


class LeaseCore:
    """The per-shard lease table: pure bookkeeping, injected clock.

    Deliberately free of asyncio so the same class backs the simulated
    churn workload (logical clock) and the live service (wall clock).
    All safety-relevant checks live here:

    * fencing tokens are only ever handed out, in ascending order, from
      blocks delivered by :meth:`refill`; a block contiguous with the
      pool extends it, and one that *overlaps* already-reserved tokens is
      recorded in :attr:`violations` (it would mean the shard mutex or
      the ``hwm`` register atomicity failed);
    * a grant whose token is not strictly above the key's previous token
      is recorded as a violation (fencing monotonicity);
    * an expired lease is removed before any re-grant, and a release
      carrying a stale token is fenced off.

    When ``record_history`` is true every grant/release/expire lands in
    :attr:`events`, a :class:`LeaseHistory` (packed columns, one distinct
    key stored once; iterating it yields ``(kind, key, token, at,
    expires_at)`` tuples), which :func:`verify_lease_events` audits
    independently — the checker trusts nothing this class believes.  With
    ``record_history=False`` :attr:`events` is ``None``.
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
        self.events: Optional[LeaseHistory] = (
            LeaseHistory() if record_history else None
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

        A block that starts at the current limit (``base ==
        tokens_reserved``) *extends* the pool: the tokens still unspent
        below it stay grantable.  That is every block a single active
        keeper reserves, because it advances ``hwm`` by its block size, so
        a refill that lands before the pool runs dry wastes nothing.  A
        block above the limit leaves a gap (another reserver took the
        tokens between): the pool jumps to its base, and the unspent
        tokens below are skipped.  Either way the pool still grants in
        ascending order, so fencing stays monotonic per key.

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
        if base != self._limit:
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
            self.events.append(LeaseHistory.GRANT, key, token, now, lease.expires_at)
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
            self.events.append(LeaseHistory.RELEASE, key, token, now, lease.expires_at)
        return True

    def sweep(self) -> int:
        """Expire every lease past its TTL; return how many died.

        Grants already expire lazily per key; the sweep exists so leases
        on *quiet* keys do not linger in memory, and so waiters parked on
        a stalled client's key wake at the TTL, not at the next grant.
        """
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
                LeaseHistory.EXPIRE, lease.key, lease.token, now, lease.expires_at
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
    * ``idle_for(idle_poll)`` — asked only when ``wants_refill()`` said
      no: how long to nap before asking again.  The live feed answers
      ``math.inf`` while the pool is stocked (the front door rings the
      keeper through :meth:`~repro.serve.substrate.AsyncioSubstrate.wake`
      when it needs tokens), ``idle_poll`` to a standby watching the
      keepers before it, and 0 when demand or closing came meanwhile.
      The sim feed always wants a refill, so it never gets here;
    * ``deliver(base, limit)`` — hand a reserved block over (the live
      feed refills the shard's :class:`LeaseCore` and wakes waiters; the
      sim feed refills and immediately churns grants through the block).

    An idle keeper first drains its inbox: all it can hold is late acks
    of finished quorum phases, and a nap with mail waiting ends at once.

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
            yield ops.recv()
            yield ops.nap(feed.idle_for(idle_poll))
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
