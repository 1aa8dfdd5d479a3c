"""Deterministic in-simulation message transport.

One :class:`Transport` carries all messages of one
:class:`~repro.sim.engine.Engine` run.  It is *not* an executor: the
engine linearizes each ``Send`` at its completion instant and hands the
message here; the transport decides the message's fate (delivered when?
dropped?) and parks it in the destination's delivery queue until a
``Recv`` collects it.

The delivery-bound contract — the heart of the networked model — is:

* every link ``(src, dst)`` has a known *delivery bound* ``b``;
* a fault-free message sent at time ``t`` is deliverable by ``t + b``
  (the actual delay is drawn uniformly from ``[min_factor·b, b]``);
* during a :class:`~repro.net.faults.DelaySpike` the delay may exceed
  ``b`` — the networked timing failure — and losses/partitions may drop
  the message entirely.

Determinism: delays and loss decisions come from one ``random.Random``
seeded at construction, consumed in engine order, so a (programs, timing
seed, transport seed, fault plan) tuple reproduces bit-for-bit — the
same property the shared-memory engine guarantees, extended to the wire.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.tracer import active_tracer

from .faults import NetFaultPlan

__all__ = ["NetStats", "Transport"]


class NetStats:
    """Deterministic message counters for one transport (cf. EngineProbe).

    ``messages_sent`` counts every message handed to the transport (one
    per destination for broadcasts); each then either shows up in
    ``messages_dropped`` (loss/partition), ``messages_delivered`` (some
    ``Recv`` collected it) or stays in flight when the run ends.
    ``quorum_rtts`` is incremented by :mod:`repro.net.quorum` whenever a
    client completes a majority phase.
    """

    __slots__ = (
        "messages_sent",
        "messages_delivered",
        "messages_dropped",
        "quorum_rtts",
    )

    def __init__(self) -> None:
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.quorum_rtts = 0

    def snapshot(self) -> Dict[str, int]:
        """The counters as a plain dict, in declaration order."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return (
            f"NetStats(sent={self.messages_sent}, "
            f"delivered={self.messages_delivered}, "
            f"dropped={self.messages_dropped}, rtts={self.quorum_rtts})"
        )


class Transport:
    """Message fabric for ``n`` endpoints (pids ``0..n-1``).

    Parameters
    ----------
    n:
        Number of endpoints; must match the pids spawned on the engine.
    bound:
        Default per-link delivery bound (the networked ``Δ``).
    seed:
        Seeds the delay/loss RNG; same seed, same fates.
    faults:
        Optional :class:`NetFaultPlan`; defaults to a fault-free network.
    link_bounds:
        Optional per-link overrides, ``{(src, dst): bound}`` — the
        timeliness-graph view where links differ in quality.
    min_factor:
        Lower edge of the nominal delay range as a fraction of the bound.

    The ``tracer`` attribute (default: the ambient
    :func:`~repro.obs.tracer.trace_scope` tracer, i.e. usually ``None``)
    receives message-lifecycle records — send with scheduled arrival,
    drop, collect — and quorum phase markers from
    :mod:`repro.net.quorum`.  Tracing never touches the RNG or the
    queues: a traced run is bit-identical to an untraced one.
    """

    __slots__ = (
        "n",
        "bound",
        "faults",
        "stats",
        "min_factor",
        "tracer",
        "_link_bounds",
        "_rng",
        "_queues",
        "_seq",
    )

    def __init__(
        self,
        n: int,
        bound: float = 1.0,
        seed: Any = 0,
        faults: Optional[NetFaultPlan] = None,
        link_bounds: Optional[Dict[Tuple[int, int], float]] = None,
        min_factor: float = 0.1,
    ) -> None:
        if n < 1:
            raise ValueError(f"transport needs at least one endpoint, got {n}")
        if bound <= 0:
            raise ValueError(f"delivery bound must be positive, got {bound}")
        if not 0.0 <= min_factor <= 1.0:
            raise ValueError(f"min_factor must be in [0, 1], got {min_factor}")
        self.n = n
        self.bound = float(bound)
        self.faults = faults if faults is not None else NetFaultPlan.none()
        self.stats = NetStats()
        self.min_factor = min_factor
        self.tracer = active_tracer()
        self._link_bounds = dict(link_bounds or {})
        self._rng = random.Random(seed)
        self._queues: List[List[Tuple[float, int, int, Any]]] = [[] for _ in range(n)]
        self._seq = itertools.count()

    # -- topology ------------------------------------------------------------

    def peers(self, pid: int) -> Tuple[int, ...]:
        """Every endpoint except ``pid`` (the default broadcast audience)."""
        return tuple(p for p in range(self.n) if p != pid)

    def link_bound(self, src: int, dst: int) -> float:
        return self._link_bounds.get((src, dst), self.bound)

    # -- engine-facing -------------------------------------------------------

    def send(self, src: int, dst: int, payload: Any, now: float) -> None:
        """Accept one message at time ``now`` and decide its fate."""
        if not 0 <= dst < self.n:
            raise ValueError(f"destination pid {dst} outside transport 0..{self.n - 1}")
        if dst == src:
            raise ValueError(f"pid {src} sent a message to itself")
        self.stats.messages_sent += 1
        if self.faults.drops(src, dst, now, self._rng):
            self.stats.messages_dropped += 1
            if self.tracer is not None:
                self.tracer.msg_drop(src, dst, now)
            return
        bound = self.link_bound(src, dst)
        nominal = self._rng.uniform(self.min_factor * bound, bound)
        delay = self.faults.delivery_delay(src, dst, now, nominal)
        seq = next(self._seq)
        heapq.heappush(self._queues[dst], (now + delay, seq, src, payload))
        if self.tracer is not None:
            self.tracer.msg_send(seq, src, dst, now, now + delay)

    def collect(self, dst: int, now: float) -> List[Tuple[int, Any]]:
        """Pop every message deliverable to ``dst`` by time ``now``.

        Returns ``(sender, payload)`` pairs in delivery order (ties by
        send sequence) — what a ``Recv`` hands back to the process.
        """
        queue = self._queues[dst]
        tracer = self.tracer
        out: List[Tuple[int, Any]] = []
        while queue and queue[0][0] <= now:
            arrive, seq, src, payload = heapq.heappop(queue)
            out.append((src, payload))
            if tracer is not None:
                tracer.msg_recv(seq, src, dst, now, arrive)
        self.stats.messages_delivered += len(out)
        return out

    # -- introspection -------------------------------------------------------

    def in_flight(self, dst: Optional[int] = None) -> int:
        """Messages accepted but not yet collected (undelivered ≠ dropped)."""
        if dst is not None:
            return len(self._queues[dst])
        return sum(len(q) for q in self._queues)

    def __repr__(self) -> str:
        return (
            f"Transport(n={self.n}, bound={self.bound}, "
            f"in_flight={self.in_flight()})"
        )
