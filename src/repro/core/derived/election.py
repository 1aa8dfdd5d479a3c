"""Wait-free leader election, resilient to timing failures.

§1.4 of the paper: "Using the consensus algorithm as a building block, it
is easy to design ... wait-free leader election".  Here the construction
is a direct multivalued consensus on the candidates' pids: every
participant proposes itself, the decision is the leader.

All properties are inherited: safety (a unique leader, which is a
participant) holds under arbitrary timing failures; once the timing
constraints hold, every nonfaulty candidate learns the leader within
``O(Δ·log n)`` regardless of crashes.
"""

from __future__ import annotations

from typing import Optional

from ...sim import ops
from ...sim.process import Program
from ...sim.registers import RegisterNamespace
from .multivalued import MultivaluedConsensus

__all__ = ["LeaderElection"]


class LeaderElection:
    """One-shot n-process leader election (pids ``0..n-1``)."""

    name = "leader_election"

    def __init__(
        self,
        n: int,
        delta: float,
        namespace: Optional[RegisterNamespace] = None,
        max_rounds: Optional[int] = None,
    ) -> None:
        ns = namespace if namespace is not None else RegisterNamespace.unique("election")
        self._consensus = MultivaluedConsensus(
            n=n, delta=delta, namespace=ns, max_rounds=max_rounds
        )
        self.n = n

    def elect(self, pid: int) -> Program:
        """Participate; the generator returns the elected leader's pid.

        Emits a ``DECIDED`` label carrying the leader, so election traces
        can be checked with the consensus spec checker (inputs = pids).
        """
        # Announce-and-tournament; proposing `pid` makes "the decided value
        # is some participant" exactly the validity property.
        leader = yield from self._consensus.propose(pid, pid)
        yield ops.label(ops.DECIDED, leader)
        return leader

    def __repr__(self) -> str:
        return f"LeaderElection(n={self.n})"
