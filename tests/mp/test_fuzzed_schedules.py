"""Property tests: fuzzed delivery schedules for the message layer.

The fixed-schedule tests in ``test_channels.py`` pin one transport per
property; these fuzz the schedule space instead — random link bounds,
random jitter, random delay spikes, random workload shapes — and assert
the invariants that must survive *any* timing behaviour:

* **no loss / no duplication**: on a loss-free fault plan every message
  sent is received exactly once, however late a spike makes it;
* **FIFO**: a link whose deliveries all take the same time hands
  messages over in send order (the transport orders by delivery instant,
  ties by send sequence); jitter and spikes give that up, by design.

Every draw derives from ``random.Random(seed)`` with the seed in the test
id, so a failure replays exactly.
"""

import random

import pytest

from repro.net import (
    DelaySpike,
    NetFaultPlan,
    OmegaElection,
    Transport,
    eventual_agreement,
)
from repro.sim import ConstantTiming, CrashSchedule, Engine, RunStatus, ops

CHANNEL_SEEDS = range(20)
OMEGA_SEEDS = range(5)


def _fuzzed_spikes(rng, pids):
    """One or two delay spikes on random victims' links."""
    spikes = []
    start = rng.uniform(0.0, 4.0)
    for _ in range(rng.randrange(1, 3)):
        end = start + rng.uniform(1.0, 8.0)
        victims = rng.sample(pids, rng.randrange(1, len(pids) + 1))
        spikes.append(
            DelaySpike(start, end, stretch=rng.uniform(5.0, 40.0),
                       pids=tuple(victims))
        )
        start = end + rng.uniform(0.0, 3.0)
    return tuple(spikes)


@pytest.mark.parametrize("seed", CHANNEL_SEEDS)
def test_channels_fifo_no_loss_under_fuzzed_schedules(seed):
    rng = random.Random(f"net-channels:{seed}")
    senders = rng.randrange(1, 4)
    receiver = senders  # pids 0..senders-1 send, the last pid receives
    n = senders + 1
    counts = {pid: rng.randrange(1, 8) for pid in range(senders)}
    pauses = {pid: rng.uniform(0.0, 0.5) for pid in range(senders)}
    steady = rng.random() < 0.5
    if steady:
        # Every delivery on a link takes exactly that link's bound.
        transport = Transport(
            n, seed=seed, min_factor=1.0,
            link_bounds={(pid, receiver): rng.uniform(0.2, 3.0)
                         for pid in range(senders)},
        )
    else:
        transport = Transport(
            n, bound=rng.uniform(0.2, 3.0), seed=seed,
            min_factor=rng.uniform(0.0, 0.9),
            faults=NetFaultPlan(spikes=_fuzzed_spikes(rng, list(range(n)))),
        )

    def sender(pid):
        for i in range(counts[pid]):
            yield ops.send(receiver, (pid, i))
            yield ops.delay(pauses[pid])

    def sink():
        got = []
        while len(got) < sum(counts.values()):
            got.extend((yield ops.recv()))
            yield ops.delay(0.1)
        return got

    engine = Engine(delta=1.0, timing=ConstantTiming(0.1), max_time=50_000.0,
                    transport=transport)
    for pid in range(senders):
        engine.spawn(sender(pid), pid=pid)
    engine.spawn(sink(), pid=receiver)
    result = engine.run()

    assert result.status is RunStatus.COMPLETED
    assert transport.stats.messages_dropped == 0
    inbox = result.returns[receiver]
    for pid in range(senders):
        from_pid = [message for sender_pid, message in inbox
                    if sender_pid == pid]
        sent = [(pid, i) for i in range(counts[pid])]
        # Equality of the sorted lists carries no-loss and no-duplication.
        assert sorted(from_pid) == sent
        if steady:
            assert from_pid == sent  # and FIFO, where delays are equal


@pytest.mark.parametrize("seed", OMEGA_SEEDS)
def test_omega_converges_after_fuzzed_failure_injection(seed):
    """Ω's contract under combined crash + timing-failure injection: the
    survivors eventually agree on the smallest live pid, however the
    window parameters fall."""
    rng = random.Random(f"net-omega:{seed}")
    n = 3
    rounds = 50
    omega = OmegaElection(n, heartbeat_period=1.0, initial_timeout=2.5,
                          timeout_growth=2.0)
    crash_at = rng.uniform(3.0, 8.0)
    stall = DelaySpike(
        crash_at + rng.uniform(1.0, 4.0),
        crash_at + rng.uniform(6.0, 12.0),
        stretch=rng.uniform(20.0, 60.0),
        pids=(1,),
    )
    engine = Engine(
        delta=1.0,
        timing=ConstantTiming(0.1),
        crashes=CrashSchedule(at_time={0: crash_at}),
        max_time=50_000.0,
        transport=Transport(n, bound=0.5, seed=seed,
                            faults=NetFaultPlan(spikes=(stall,))),
    )
    for pid in range(n):
        engine.spawn(omega.run(pid, rounds), pid=pid)
    result = engine.run()

    survivors = {pid: samples for pid, samples in result.returns.items()
                 if pid != 0}
    assert set(survivors) == {1, 2}
    # After the crash of pid 0 and the close of the spike on pid 1's
    # links, adaptive timeouts settle and both survivors elect pid 1.
    assert eventual_agreement(survivors, tail_fraction=0.2) == 1
