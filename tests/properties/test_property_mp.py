"""Property-based tests for the message-passing layer."""

from hypothesis import given, settings, strategies as st

from repro.net import (
    DelaySpike,
    NetFaultPlan,
    OmegaElection,
    Transport,
    eventual_agreement,
)
from repro.sim import ConstantTiming, Engine, RandomTieBreak, UniformTiming, ops
from repro.sim.registers import Register

MAX_EXAMPLES = 25


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    messages=st.lists(st.integers(0, 99), min_size=1, max_size=12),
)
def test_channels_fifo_and_lossless(seed, messages):
    """Over a link whose deliveries all take the same time, every message
    arrives, exactly once, in send order — regardless of step jitter and
    linearization order."""
    pace = Register("pace", 0)

    def sender():
        for m in messages:
            yield pace.read()  # a jittered step between sends
            yield ops.send(1, m)

    def receiver():
        got = []
        while len(got) < len(messages):
            got.extend(m for _, m in (yield ops.recv()))
            yield ops.delay(0.1)
        return got

    eng = Engine(delta=1.0, timing=UniformTiming(0.05, 1.0, seed=seed),
                 tie_break=RandomTieBreak(seed), max_time=100_000.0,
                 transport=Transport(2, seed=seed, min_factor=1.0))
    eng.spawn(sender(), pid=0)
    eng.spawn(receiver(), pid=1)
    res = eng.run()
    assert res.returns[1] == messages


def _omega_engine(n, seed, spikes=()):
    transport = Transport(n, bound=0.5, seed=seed,
                          faults=NetFaultPlan(spikes=tuple(spikes)))
    return Engine(delta=1.0, timing=ConstantTiming(0.1),
                  tie_break=RandomTieBreak(seed), max_time=100_000.0,
                  transport=transport)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    n=st.integers(2, 4),
    seed=st.integers(0, 2**16),
)
def test_omega_agrees_without_failures(n, seed):
    omega = OmegaElection(n, heartbeat_period=1.0, initial_timeout=4.0)
    eng = _omega_engine(n, seed)
    for pid in range(n):
        eng.spawn(omega.run(pid, rounds=12), pid=pid)
    res = eng.run()
    leader = eventual_agreement(dict(res.returns))
    assert leader == 0


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    window_len=st.floats(2.0, 10.0),
)
def test_omega_reconverges_after_window(seed, window_len):
    n = 3
    omega = OmegaElection(n, heartbeat_period=1.0, initial_timeout=3.0,
                          timeout_growth=2.0)
    stall = DelaySpike(4.0, 4.0 + window_len, stretch=80.0, pids=(0,))
    eng = _omega_engine(n, seed, spikes=[stall])
    rounds = 40 + int(window_len * 4)
    for pid in range(n):
        eng.spawn(omega.run(pid, rounds=rounds), pid=pid)
    res = eng.run()
    leader = eventual_agreement(dict(res.returns), tail_fraction=0.15)
    assert leader == 0  # pid 0 never crashed; adaptation restores it
