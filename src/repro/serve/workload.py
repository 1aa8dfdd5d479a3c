"""The lease workload on the *sim* substrate — same keeper, virtual time.

:func:`lease_churn_sim` runs the exact
:func:`~repro.serve.service.keeper_program` generator that the live
service spawns, but under the deterministic
:class:`~repro.sim.engine.Engine` via
:meth:`~repro.net.quorum.QuorumSystem.run` — the acceptance criterion's
"identical lease workload on the sim substrate through the same
Substrate protocol with no algorithm-code changes", and the body behind
the ``serve/lease_churn`` bench scenario.

Because virtual time is discrete and seeded, every run with the same
parameters produces the same counters — so the function *asserts* its
own safety properties (per-shard keeper mutual exclusion from the trace,
zero fencing violations from the history audit) and returns plain
integer counters the bench runner can diff across repeats and commits.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Hashable, List, Tuple

from repro.core.mutex import default_time_resilient_mutex
from repro.net.quorum import QuorumSystem
from repro.sim.registers import RegisterNamespace

from .service import LeaseCore, keeper_program, verify_lease_events

__all__ = ["ChurnFeed", "lease_churn_sim"]


class ChurnFeed:
    """Sim keeper environment: each block immediately backs a burst of
    grant/release pairs on the shard's shared :class:`LeaseCore`.

    One feed per keeper, one core per shard — two keepers of a shard
    interleave refills through the mutex, which is precisely the fencing
    handoff the history audit then checks.
    """

    def __init__(
        self,
        core: LeaseCore,
        keys: List[Hashable],
        cycles: int,
        grants_per_cycle: int,
    ) -> None:
        self.core = core
        self.keys = keys
        self.cycles = cycles
        self.grants_per_cycle = grants_per_cycle
        self.done = 0

    def finished(self) -> bool:
        return self.done >= self.cycles

    def wants_refill(self) -> bool:
        return not self.finished()

    def deliver(self, base: int, limit: int) -> None:
        self.core.refill(base, limit)
        for i in range(self.grants_per_cycle):
            key = self.keys[i % len(self.keys)]
            lease = self.core.grant(key, ttl=math.inf)
            # Immediate release: with an infinite ttl and no concurrent
            # granter (deliver runs between engine steps, atomically),
            # the grant can only fail if the token pool is dry — and the
            # caller sizes blocks so it never is.
            assert lease is not None, f"unexpected busy grant on {key!r}"
            self.core.release(key, lease.token)
        self.done += 1


def _shard_cs_overlaps(trace: Any, shards: int, keepers_per_shard: int) -> int:
    """Count overlapping critical sections *within* each shard.

    Keepers of different shards hold different mutexes and legitimately
    overlap, so the global spec checker does not apply; this groups the
    trace's CS intervals by owning shard (pid // keepers_per_shard) and
    sweeps each group independently.
    """
    by_shard: Dict[int, List[Tuple[float, float]]] = {s: [] for s in range(shards)}
    for interval in trace.cs_intervals():
        shard = interval.pid // keepers_per_shard
        by_shard[shard].append((interval.enter, interval.exit))
    overlaps = 0
    for spans in by_shard.values():
        spans.sort()
        for (_, prev_exit), (nxt_enter, _) in zip(spans, spans[1:]):
            if nxt_enter < prev_exit:
                overlaps += 1
    return overlaps


def lease_churn_sim(
    shards: int = 2,
    keepers_per_shard: int = 2,
    replicas: int = 3,
    cycles: int = 2,
    grants_per_cycle: int = 4,
    keys_per_shard: int = 3,
    block: int = 0,
    bound: float = 1.0,
    seed: Any = 0,
    max_time: float = 20_000.0,
) -> Dict[str, int]:
    """Run the keeper churn on the sim substrate; return integer counters.

    ``block=0`` (the default) sizes token blocks so the pool can never
    run dry even in the worst reordering case where every block but the
    last is dropped as stale.

    Raises ``AssertionError`` if the run fails to complete, any keeper
    mutual exclusion is violated within a shard, or the fencing-token
    history audit finds a violation — a deterministic safety harness,
    not just a benchmark body.
    """
    clients = shards * keepers_per_shard
    if block <= 0:
        block = keepers_per_shard * cycles * grants_per_cycle
    system = QuorumSystem(
        clients=clients,
        replicas=replicas,
        bound=bound,
        seed=seed,
        max_time=max_time,
    )
    cores: List[LeaseCore] = []
    programs = []
    for shard in range(shards):
        ns = RegisterNamespace(("serve", shard))
        lock = default_time_resilient_mutex(
            clients, delta=system.delta, namespace=ns.child("lock")
        )
        hwm = ns.register("hwm", 0)
        core = LeaseCore(shard, clock=lambda: 0.0)
        cores.append(core)
        keys = [f"shard{shard}-key{i}" for i in range(keys_per_shard)]
        for k in range(keepers_per_shard):
            pid = shard * keepers_per_shard + k
            feed = ChurnFeed(core, keys, cycles, grants_per_cycle)
            programs.append(
                keeper_program(lock, hwm, pid, shard, feed, block, system.poll)
            )
    result = system.run(programs)
    assert result.completed, f"churn run did not complete: {result.status}"
    finished = [
        ret for pid, ret in result.returns.items() if pid < clients and ret is not None
    ]
    assert len(finished) == clients, (
        f"only {len(finished)}/{clients} keepers retired cleanly"
    )
    overlaps = _shard_cs_overlaps(result.trace, shards, keepers_per_shard)
    assert overlaps == 0, f"{overlaps} overlapping keeper critical sections"
    violations: List[str] = []
    for core in cores:
        violations.extend(core.violations)
        if core.events is not None:
            violations.extend(verify_lease_events(core.events))
    assert not violations, f"lease safety violations: {violations}"
    return {
        "granted": sum(core.granted for core in cores),
        "released": sum(core.released for core in cores),
        "refills": sum(core.refills for core in cores),
        "stale_refills": sum(core.stale_refills for core in cores),
        "tokens_reserved": sum(core.tokens_reserved for core in cores),
        "keeper_cs": len(result.trace.cs_intervals()),
        "lease_violations": len(violations),
    }
