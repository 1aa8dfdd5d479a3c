"""Ω-style leader election over messages, with optimistic timeouts.

Run::

    python examples/failure_detector.py

The paper's recipe — exploit timing when it holds, survive it when it
does not, adapt the optimistic bound online — applied to a
message-passing failure detector (§4's suggested extension):

* five nodes heartbeat each other over the deterministic message
  transport (so the whole run is reproducible);
* node 0 (the rightful leader) suffers a long stall — a delay spike on
  its links, the networked timing failure: its heartbeats blow through
  everyone's optimistic timeout, it gets suspected, and leadership
  churns to node 1;
* when the stall ends, node 0's heartbeats return; the detectors
  *unsuspect* it and grow their timeouts (the adaptive rule), and the
  group converges back to leader 0 — and stays there, because the grown
  timeouts now absorb stalls of that size.
"""

from repro.net import (
    DelaySpike,
    NetFaultPlan,
    OmegaElection,
    Transport,
    eventual_agreement,
)
from repro.sim import ConstantTiming, Engine

N = 5
ROUNDS = 60


def main() -> None:
    omega = OmegaElection(
        n=N, heartbeat_period=1.0, initial_timeout=2.5, timeout_growth=2.0
    )
    stall = DelaySpike(start=8.0, end=20.0, extra=12.0, pids=(0,))
    transport = Transport(N, bound=0.5, seed=0, faults=NetFaultPlan(spikes=(stall,)))
    engine = Engine(
        delta=1.0, timing=ConstantTiming(0.05), max_time=10_000.0,
        transport=transport,
    )
    for pid in range(N):
        engine.spawn(omega.run(pid, ROUNDS), pid=pid)
    result = engine.run()

    samples = dict(result.returns)
    print(f"run status       : {result.status.value}")
    print(f"messages sent    : {transport.stats.messages_sent}")

    # Show node 1's view of leadership over time.
    view = samples[1]
    changes = []
    current = None
    for sample in view:
        if sample.leader != current:
            changes.append((sample.time, sample.leader))
            current = sample.leader
    print("node 1's leadership view (time -> leader):")
    for at, leader in changes:
        print(f"  t={at:5.1f}  leader = node {leader}")

    leader = eventual_agreement(samples, tail_fraction=0.2)
    print(f"eventual agreement: leader = node {leader}")
    assert leader == 0, "the group must converge back to node 0"
    print("churned during the stall, converged after — the Ω contract, "
          "delivered by the paper's optimistic-timing recipe")


if __name__ == "__main__":
    main()
