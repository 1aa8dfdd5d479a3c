"""Lease semantics: TTL expiry, fencing tokens, the history audit."""

import tracemalloc

import pytest

from repro.serve import LeaseCore, TokensExhausted, verify_lease_events


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def core(clock):
    core = LeaseCore(0, clock)
    core.refill(0, 100)
    return core


def test_grant_release_round_trip(core):
    lease = core.grant("a", ttl=5.0, holder="c1")
    assert lease is not None and lease.token == 0
    assert core.grant("a", ttl=5.0) is None  # busy
    assert core.busy == 1
    assert core.release("a", lease.token)
    assert core.grant("a", ttl=5.0).token == 1  # freed, next token


def test_expiry_under_stalled_client(core, clock):
    # The satellite scenario: a client takes a lease and stalls forever.
    lease = core.grant("a", ttl=2.0, holder="stalled")
    clock.t = 1.9
    assert core.grant("a", ttl=2.0) is None  # still valid, still busy
    clock.t = 2.0
    fresh = core.grant("a", ttl=2.0, holder="next")
    assert fresh is not None and fresh.token > lease.token
    assert core.expired == 1
    # The stalled client's eventual release must be fenced, not honoured.
    assert not core.release("a", lease.token)
    assert core.fenced == 1
    assert core.violations == []
    assert verify_lease_events(core.events) == []


def test_sweep_expires_quiet_keys(core, clock):
    core.grant("a", ttl=1.0)
    core.grant("b", ttl=3.0)
    clock.t = 2.0
    assert core.sweep() == 1
    assert "a" not in core.leases and "b" in core.leases


def test_fencing_monotonic_across_refill_handoffs(clock):
    # Keeper handoff: a fresh block from a different keeper (or after a
    # restart) starts above everything granted before.
    core = LeaseCore(0, clock)
    core.refill(0, 2)
    first = core.grant("k", ttl=10.0)
    core.release("k", first.token)
    second = core.grant("k", ttl=10.0)
    core.release("k", second.token)
    with pytest.raises(TokensExhausted):
        core.grant("k", ttl=10.0)
    core.refill(2, 4)  # the next keeper's block
    third = core.grant("k", ttl=10.0)
    assert first.token < second.token < third.token
    assert core.violations == []
    assert verify_lease_events(core.events) == []


def test_contiguous_refill_extends_the_pool(clock):
    # A proactive refill lands while the pool still has tokens: the
    # unspent ones stay grantable, in order, and none is skipped.
    core = LeaseCore(0, clock)
    core.refill(0, 8)
    for i in range(4):
        core.release(f"k{i}", core.grant(f"k{i}", ttl=10.0).token)
    core.refill(8, 16)
    assert core.grant("next", ttl=10.0).token == 4
    assert core.tokens_reserved - core.tokens_available == core.granted == 5
    # A gap block still jumps: the tokens below it are skipped.
    core.refill(24, 32)
    assert core.grant("after-gap", ttl=10.0).token == 24
    assert core.violations == []
    assert verify_lease_events(core.events) == []


def test_refill_gap_is_fine_overlap_is_violation(clock):
    core = LeaseCore(0, clock)
    core.refill(0, 8)
    core.refill(16, 24)  # gap (another reserver took [8,16)) — legal
    assert core.violations == []
    core.refill(20, 32)  # overlaps reserved tokens — mutex must have failed
    assert len(core.violations) == 1
    assert "overlaps" in core.violations[0]


def test_stale_refill_dropped(clock):
    core = LeaseCore(0, clock)
    core.refill(8, 16)
    core.refill(0, 8)  # reordered older block: superseded, dropped
    assert core.stale_refills == 1
    assert core.tokens_available == 8
    assert core.violations == []


def test_release_with_wrong_token_is_fenced(core):
    lease = core.grant("a", ttl=5.0)
    assert not core.release("a", lease.token + 1)
    assert not core.release("missing", 0)
    assert core.fenced == 2
    assert "a" in core.leases  # the actual holder is untouched


def test_grant_validates_ttl(core):
    with pytest.raises(ValueError):
        core.grant("a", ttl=0.0)


def test_refill_validates_block(clock):
    with pytest.raises(ValueError):
        LeaseCore(0, clock).refill(5, 5)


def test_history_audit_catches_planted_violations():
    # Token regression on one key.
    assert verify_lease_events(
        [("grant", "k", 5, 0.0, 10.0), ("release", "k", 5, 1.0, 10.0),
         ("grant", "k", 3, 2.0, 12.0)]
    )
    # Overlapping grants: second issued while the first was still valid.
    assert verify_lease_events(
        [("grant", "k", 1, 0.0, 10.0), ("grant", "k", 2, 5.0, 15.0)]
    )
    # A clean handoff passes.
    assert not verify_lease_events(
        [("grant", "k", 1, 0.0, 2.0), ("expire", "k", 1, 2.0, 2.0),
         ("grant", "k", 2, 2.0, 4.0), ("release", "k", 2, 3.0, 4.0)]
    )


def test_history_recording_can_be_disabled(clock):
    core = LeaseCore(0, clock, record_history=False)
    core.refill(0, 10)
    core.grant("a", ttl=1.0)
    assert core.events is None


def test_history_round_trips_every_record_kind(clock):
    base = 2**40  # tokens far above 2**31
    core = LeaseCore(0, clock)
    core.refill(base, base + 100)
    a = core.grant("a", ttl=5.0)
    clock.t = 1.0
    seven = core.grant(7, ttl=2.0)
    clock.t = 1.5
    pair = core.grant(("k", 1), ttl=1.0)
    clock.t = 2.0
    assert core.release("a", a.token)
    assert not core.release(7, seven.token + 99)  # wrong token: fenced, unrecorded
    clock.t = 3.0
    assert core.sweep() == 2  # expiry by sweep
    again = core.grant("a", ttl=1.0)
    clock.t = 4.5
    last = core.grant("a", ttl=2.0)  # expiry by grant
    clock.t = 7.0
    assert not core.release("a", last.token)  # fenced after its TTL: expired
    assert (seven.token, pair.token, again.token) == (base + 1, base + 2, base + 3)
    assert list(core.events) == [
        ("grant", "a", base, 0.0, 5.0),
        ("grant", 7, base + 1, 1.0, 3.0),
        ("grant", ("k", 1), base + 2, 1.5, 2.5),
        ("release", "a", base, 2.0, 5.0),
        ("expire", 7, base + 1, 3.0, 3.0),
        ("expire", ("k", 1), base + 2, 3.0, 2.5),
        ("grant", "a", base + 3, 3.0, 4.0),
        ("expire", "a", base + 3, 4.5, 4.0),
        ("grant", "a", base + 4, 4.5, 6.5),
        ("expire", "a", base + 4, 7.0, 6.5),
    ]
    assert len(core.events) == 10
    assert list(core.events) == list(core.events)  # iterating does not consume
    assert verify_lease_events(core.events) == []


def test_history_truthiness_and_length(core):
    assert core.events is not None
    assert not core.events and len(core.events) == 0
    core.grant("a", ttl=1.0)
    assert core.events and len(core.events) == 1


def test_disabled_history_stays_none_on_every_path(clock):
    core = LeaseCore(0, clock, record_history=False)
    core.refill(0, 10)
    lease = core.grant("a", ttl=1.0)
    core.release("a", lease.token)
    core.grant("b", ttl=1.0)
    clock.t = 2.0
    core.sweep()
    assert core.events is None


def test_history_costs_at_most_48_bytes_a_record(clock):
    core = LeaseCore(0, clock)
    core.refill(0, 10**6)
    names = [f"key-{i}" for i in range(64)]
    for name in names:  # per-key tables fill once, not per record
        core.release(name, core.grant(name, ttl=1.0).token)
    pairs = 20_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(pairs):
            key = "".join(("key-", str(i % 64)))  # a fresh string every time
            core.release(key, core.grant(key, ttl=1.0).token)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(core.events) == 2 * (pairs + 64)
    assert grown / (2 * pairs) <= 48
