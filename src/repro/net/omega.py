"""A heartbeat failure detector and Ω-style leader election over messages.

This is the paper's resilience recipe transplanted to message passing
(Discussion, §4): assume a delivery bound (the transport's, playing the
role of ``Δ``), run with an *optimistic* timeout, and recover
automatically when the timing constraints are violated:

* every process broadcasts heartbeats with period ``heartbeat_period``;
* a process suspects a peer whose heartbeat is overdue by the current
  ``timeout``; a heartbeat from a suspected peer *unsuspects* it and
  grows the timeout (the adaptive rule of Chandra–Toueg, which is the
  AIMD-style optimistic(Δ) tuning in disguise);
* the leader is the smallest unsuspected pid — the Ω pattern: during
  timing failures different processes may disagree about the leader
  (that is allowed: Ω's contract is *eventual* agreement), and once
  failures stop and timeouts have adapted, everyone converges on the
  smallest live pid and stays there.

It speaks ``broadcast``/``recv`` on an ``Engine(transport=...)``; a stall
is a :class:`~repro.net.faults.DelaySpike` on the stalled node's links.
On the simulator the whole behaviour — suspicion churn during failure
windows, convergence after — is deterministic and testable.

:class:`HeartbeatMonitor` also runs in production: the live lease
service (:mod:`repro.serve.service`) keeps one per keeper, with a peer
keeper's token-block delivery as its heartbeat, so a shard's standby
keepers stay off the quorum until they suspect every keeper before
them.  There heartbeats are the peers' useful work, and
:meth:`HeartbeatMonitor.excuse` keeps an idle stretch from counting as
silence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..sim import ops
from ..sim.process import Program

__all__ = ["HeartbeatMonitor", "OmegaElection", "LeaderSample", "eventual_agreement"]

_HEARTBEAT = "hb"


@dataclass(frozen=True)
class LeaderSample:
    """One observation: who ``pid`` believed was leader at ``time``."""

    pid: int
    time: float
    leader: int
    suspected: Tuple[int, ...]


class HeartbeatMonitor:
    """Per-process heartbeat bookkeeping with an adaptive timeout."""

    def __init__(
        self,
        pid: int,
        peers: Set[int],
        initial_timeout: float,
        timeout_growth: float = 1.5,
    ) -> None:
        if initial_timeout <= 0:
            raise ValueError(f"initial_timeout must be positive, got {initial_timeout}")
        if timeout_growth <= 1.0:
            raise ValueError(f"timeout_growth must be > 1, got {timeout_growth}")
        self.pid = pid
        self.timeout: Dict[int, float] = {p: initial_timeout for p in peers}
        self.last_heartbeat: Dict[int, float] = {p: 0.0 for p in peers}
        self.suspected: Set[int] = set()
        self.timeout_growth = timeout_growth
        self.false_suspicions = 0

    def observe_heartbeat(self, sender: int, now: float) -> None:
        self.last_heartbeat[sender] = now
        if sender in self.suspected:
            # A premature suspicion: the peer was alive all along.  Adapt
            # (grow the timeout) so the same delay no longer fools us —
            # the optimistic(Δ) increase rule.
            self.suspected.discard(sender)
            self.timeout[sender] *= self.timeout_growth
            self.false_suspicions += 1

    def excuse(self, now: float) -> None:
        """Restart every unsuspected peer's silence at ``now``.

        For heartbeats that are the peers' useful work: while there is no
        work to do a quiet peer is an idle one, not a slow one.  Suspected
        peers stay suspected until they are heard from.
        """
        for peer in self.last_heartbeat:
            if peer not in self.suspected:
                self.last_heartbeat[peer] = now

    def update_suspicions(self, now: float) -> None:
        for peer, last in self.last_heartbeat.items():
            if peer in self.suspected:
                continue
            if now - last > self.timeout[peer]:
                self.suspected.add(peer)

    def leader(self) -> int:
        """The smallest unsuspected pid (including self)."""
        candidates = [self.pid] + [
            p for p in self.last_heartbeat if p not in self.suspected
        ]
        return min(candidates)


class OmegaElection:
    """The complete Ω protocol: heartbeats + adaptive suspicion + min-id.

    ``run(pid, duration)`` is a simulator program that broadcasts
    heartbeats, polls the network, tracks suspicions, and samples its
    leader belief once per period; it returns the list of
    :class:`LeaderSample` observations (the raw material for the
    eventual-agreement checks).
    """

    def __init__(
        self,
        n: int,
        heartbeat_period: float,
        initial_timeout: float,
        timeout_growth: float = 1.5,
    ) -> None:
        if heartbeat_period <= 0:
            raise ValueError(
                f"heartbeat_period must be positive, got {heartbeat_period}"
            )
        self.n = n
        self.heartbeat_period = heartbeat_period
        self.initial_timeout = initial_timeout
        self.timeout_growth = timeout_growth

    def run(self, pid: int, rounds: int) -> Program:
        """Participate for ``rounds`` heartbeat periods; returns samples."""
        peers = tuple(p for p in range(self.n) if p != pid)
        monitor = HeartbeatMonitor(
            pid,
            peers=set(peers),
            initial_timeout=self.initial_timeout,
            timeout_growth=self.timeout_growth,
        )
        samples: List[LeaderSample] = []
        # A clock surrogate: processes cannot read the engine clock, so
        # each tracks time locally by counting its own periods.  For
        # sampling purposes that is enough (samples carry local time).
        now = 0.0
        for _ in range(rounds):
            yield ops.broadcast((_HEARTBEAT, pid), dests=peers)
            for sender, message in (yield ops.recv()):
                if message[0] == _HEARTBEAT:
                    monitor.observe_heartbeat(sender, now)
            monitor.update_suspicions(now)
            leader = monitor.leader()
            samples.append(
                LeaderSample(
                    pid=pid,
                    time=now,
                    leader=leader,
                    suspected=tuple(sorted(monitor.suspected)),
                )
            )
            yield ops.label("leader_sample", (pid, leader))
            yield ops.delay(self.heartbeat_period)
            now += self.heartbeat_period
        return samples

    def __repr__(self) -> str:
        return (
            f"OmegaElection(n={self.n}, period={self.heartbeat_period}, "
            f"timeout0={self.initial_timeout})"
        )


def eventual_agreement(
    all_samples: Dict[int, List[LeaderSample]], tail_fraction: float = 0.25
) -> Optional[int]:
    """The common leader in the final ``tail_fraction`` of every process's
    samples, or ``None`` if they never converged."""
    leaders: Set[int] = set()
    for samples in all_samples.values():
        if not samples:
            return None
        tail = samples[-max(1, int(len(samples) * tail_fraction)):]
        leaders.update(s.leader for s in tail)
    return leaders.pop() if len(leaders) == 1 else None
