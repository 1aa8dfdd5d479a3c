"""The Substrate protocol and the live loopback implementation."""

import asyncio
import itertools
import json
import math
import pickle
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.faults import DelaySpike, MessageLoss, NetFaultPlan, Partition
from repro.net.transport import Transport
from repro.obs.tracer import Tracer
from repro.serve import AsyncioSubstrate, Substrate
from repro.serve.substrate import (
    MAX_FRAME_BYTES, READ_BUFFER_BYTES, _decode, _FrameReader,
)

# A wait that leaks a task or a never-retrieved future says so in a
# warning when the loop closes; make every one of those a failure.
pytestmark = pytest.mark.filterwarnings("error")


def test_transport_satisfies_substrate_protocol():
    # The tentpole claim: the sim fabric already speaks the protocol —
    # no adapter, no wrapper, structural conformance.
    assert isinstance(Transport(4, bound=1.0), Substrate)


def test_asyncio_substrate_satisfies_protocol():
    assert isinstance(AsyncioSubstrate(3), Substrate)


def test_substrate_validates_construction():
    with pytest.raises(ValueError):
        AsyncioSubstrate(0)
    with pytest.raises(ValueError):
        AsyncioSubstrate(3, bound=0.0)


def test_peers_excludes_self():
    substrate = AsyncioSubstrate(4)
    assert substrate.peers(2) == (0, 1, 3)


def test_send_before_start_raises():
    substrate = AsyncioSubstrate(2)
    with pytest.raises(RuntimeError):
        substrate.send(0, 1, "x", 0.0)


def test_live_round_trip_and_stats():
    async def body():
        substrate = AsyncioSubstrate(3, bound=0.05)
        await substrate.start()
        try:
            substrate.send(0, 1, ("hello", 42), substrate.clock.now)
            substrate.send(2, 1, ("also", 7), substrate.clock.now)
            assert await substrate.wait_for_message(1, timeout=2.0)
            # Delivery order between distinct senders is not promised;
            # payload fidelity and (src, payload) pairing are.
            got = {}
            deadline = substrate.clock.now + 2.0
            while len(got) < 2 and substrate.clock.now < deadline:
                for src, payload in substrate.collect(1, substrate.clock.now):
                    got[src] = payload
                await asyncio.sleep(0.005)
            assert got == {0: ("hello", 42), 2: ("also", 7)}
            assert substrate.stats.messages_sent == 2
            assert substrate.stats.messages_delivered == 2
            assert substrate.collect(1, substrate.clock.now) == []
        finally:
            await substrate.close()
            await substrate.close()  # idempotent

    asyncio.run(body())


def test_fault_decisions_match_the_plan_draw_for_draw():
    # The substrate consults its plan as the sim transport does: one
    # Random(seed), drops first, then the spike's extra delay.  The
    # sends pass their own instants, so every window is crossed.
    plan = NetFaultPlan(
        partitions=(Partition(1.0, 2.0, groups=((0,), (1, 2))),),
        losses=(MessageLoss(rate=0.3, start=0.0, end=4.0),),
        spikes=(DelaySpike(3.0, 6.0, extra=30.0, pids=(1,)),),
    )
    script = [(i % 3, (i + 1 + i // 3 % 2) % 3, 0.1 * i) for i in range(60)]
    rng = random.Random(7)
    fates = []
    for src, dst, now in script:
        if plan.drops(src, dst, now, rng):
            fates.append("drop")
        elif plan.delivery_delay(src, dst, now, 0.0) > 0:
            fates.append("hold")
        else:
            fates.append("send")
    assert set(fates) == {"drop", "hold", "send"}

    def fated(fate):
        return [i for i, f in enumerate(fates) if f == fate]

    async def body():
        tracer = Tracer()
        substrate = AsyncioSubstrate(3, bound=0.05, tracer=tracer, faults=plan, seed=7)
        await substrate.start()
        try:
            for i, (src, dst, now) in enumerate(script):
                substrate.send(src, dst, i, now)
            got = []
            for dst in range(3):
                due = [i for i in fated("send") if script[i][1] == dst]
                got += [i for _, i in await _delivered(substrate, len(due), dst)]
            assert sorted(got) == fated("send")
            assert substrate.delayed == len(substrate._held) == len(fated("hold"))
        finally:
            await substrate.close()
        assert substrate._held == {}
        drops = [(r["src"], r["dst"], r["t"]) for r in tracer.records if r["kind"] == "drop"]
        assert drops == [script[i] for i in fated("drop")]
        assert substrate.dropped == substrate.stats.messages_dropped == len(drops)
        assert substrate.stats.messages_sent == len(script)

    asyncio.run(body())


def test_bad_frames_close_their_connection_only():
    # An oversized length header and a body that does not unpickle each
    # close the offending connection and count as bad frames; the
    # reader raises nothing and every other link keeps delivering.
    async def body():
        loop = asyncio.get_running_loop()
        errors = []
        loop.set_exception_handler(lambda _loop, context: errors.append(context))
        substrate = AsyncioSubstrate(3, bound=0.05)
        await substrate.start()
        port = substrate._ports[1]
        try:
            for frame in (struct.pack("!I", MAX_FRAME_BYTES + 1),
                          struct.pack("!I", 12) + b"not a pickle"):
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(frame)
                assert await asyncio.wait_for(reader.read(), timeout=2.0) == b""
                writer.close()
                await writer.wait_closed()
            assert substrate.bad_frames == 2
            for src, dst in ((0, 1), (2, 1), (1, 0)):
                substrate.send(src, dst, ("still", src), substrate.clock.now)
            got = []
            deadline = substrate.clock.now + 2.0
            while len(got) < 3 and substrate.clock.now < deadline:
                for dst in (0, 1):
                    got += [(src, dst) for src, _ in
                            substrate.collect(dst, substrate.clock.now)]
                await asyncio.sleep(0.005)
            assert sorted(got) == [(0, 1), (1, 0), (2, 1)]
        finally:
            await substrate.close()
        assert errors == []

    asyncio.run(body())


def _frame(src, payload, seq=0, sent_at=0.0):
    """A frame as :meth:`AsyncioSubstrate.send` writes it."""
    body = pickle.dumps((src, seq, sent_at, payload))
    return struct.pack("!I", len(body)) + body


async def _on_connection(test, n=2):
    """Run ``test(substrate, reader, writer)`` on a raw connection into
    endpoint 1; return what the loop's exception handler saw."""
    loop = asyncio.get_running_loop()
    errors = []
    loop.set_exception_handler(lambda _loop, context: errors.append(context))
    substrate = AsyncioSubstrate(n, bound=0.05)
    await substrate.start()
    try:
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", substrate._ports[1])
        try:
            await test(substrate, reader, writer)
        finally:
            writer.close()
            await writer.wait_closed()
    finally:
        await substrate.close()
    return errors


async def _delivered(substrate, count, dst=1):
    """Collect until ``count`` payloads arrived at ``dst``, then a little
    longer, so a duplicate would show."""
    got = []
    deadline = substrate.clock.now + 2.0
    while len(got) < count and substrate.clock.now < deadline:
        got += substrate.collect(dst, substrate.clock.now)
        await asyncio.sleep(0.002)
    await asyncio.sleep(0.02)
    return got + substrate.collect(dst, substrate.clock.now)


@pytest.mark.parametrize("pieces", ["bytewise", "split-header"])
def test_a_frame_cut_across_reads_is_delivered_once(pieces, caplog):
    frame = _frame(0, ("cut", 1))

    async def test(substrate, reader, writer):
        cuts = range(1, len(frame)) if pieces == "bytewise" else (2,)
        start = 0
        for cut in (*cuts, len(frame)):
            writer.write(frame[start:cut])
            await writer.drain()
            await asyncio.sleep(0.001)  # let the reader see this piece alone
            start = cut
        assert await _delivered(substrate, 1) == [(0, ("cut", 1))]
        assert substrate.bad_frames == 0

    assert asyncio.run(_on_connection(test)) == []
    assert caplog.records == []


def test_two_frames_in_one_write_are_both_delivered():
    async def test(substrate, reader, writer):
        writer.write(_frame(0, "first", seq=1) + _frame(0, "second", seq=2))
        assert await _delivered(substrate, 2) == [(0, "first"), (0, "second")]

    assert asyncio.run(_on_connection(test)) == []


def test_oversized_header_after_a_good_frame_closes_the_connection():
    async def test(substrate, reader, writer):
        writer.write(_frame(0, "good") + struct.pack("!I", MAX_FRAME_BYTES + 1))
        assert await asyncio.wait_for(reader.read(), timeout=2.0) == b""
        assert await _delivered(substrate, 1) == [(0, "good")]
        assert substrate.bad_frames == 1

    assert asyncio.run(_on_connection(test)) == []


def test_eof_inside_a_frame_is_dropped_silently(caplog):
    async def test(substrate, reader, writer):
        frame = _frame(0, "half")
        writer.write(frame[: len(frame) // 2])
        writer.write_eof()
        # The reader closes its end on EOF, after handling every byte.
        assert await asyncio.wait_for(reader.read(), timeout=2.0) == b""
        assert substrate.collect(1, substrate.clock.now) == []
        assert substrate.bad_frames == 0

    assert asyncio.run(_on_connection(test)) == []
    assert caplog.records == []


@pytest.mark.parametrize("src", [1, 2, -1], ids=["self", "past-n", "negative"])
def test_a_frame_from_no_other_endpoint_closes_the_connection(src):
    # Endpoint 1 of two hears only from endpoint 0: a frame claiming to
    # come from itself or from a pid outside 0..n-1 is forged, and a
    # forged ack would count as one more replica toward a majority.
    async def test(substrate, reader, writer):
        writer.write(_frame(0, "good") + _frame(src, ("qr-ack", 1)))
        assert await asyncio.wait_for(reader.read(), timeout=2.0) == b""
        assert await _delivered(substrate, 1) == [(0, "good")]
        assert substrate.bad_frames == 1

    assert asyncio.run(_on_connection(test)) == []


@pytest.mark.parametrize("sent_at", [-math.inf, math.nan, math.inf])
def test_a_frame_with_a_non_finite_send_instant_closes_the_connection(sent_at):
    # -inf would make the worst excess infinite (strict JSON has no
    # Infinity), NaN would hide a late delivery and land in the trace.
    async def test(substrate, reader, writer):
        now = substrate.clock.now
        writer.write(_frame(0, "good", sent_at=now) + _frame(0, "bad", sent_at=sent_at))
        assert await asyncio.wait_for(reader.read(), timeout=2.0) == b""
        assert await _delivered(substrate, 1) == [(0, "good")]
        assert substrate.bad_frames == 1
        json.dumps(substrate.timing_failures.snapshot(), allow_nan=False)

    assert asyncio.run(_on_connection(test)) == []


def _padded_frame(size):
    """A well-formed frame whose body is exactly ``size`` bytes."""
    def body(pad):
        return pickle.dumps((0, 0, 0.0, b"x" * pad))

    pad = size - (len(body(1000)) - 1000)
    assert len(body(pad)) == size
    return struct.pack("!I", size) + body(pad), b"x" * pad


@pytest.mark.parametrize("cuts", ["whole", "header", "random"])
def test_a_large_frame_is_delivered_and_the_buffer_shrinks_back(cuts):
    # A 60 KiB frame is far past the reader's standing buffer: it gets
    # one of its own, and the reader goes back to the standing buffer
    # once the frame is parsed.
    frame, payload = _padded_frame(60 * 1024)
    points = {
        "whole": (),
        "header": (1, 2, 3, 4),
        "random": sorted(random.Random(0).sample(range(1, len(frame)), 8)),
    }[cuts]

    async def test(substrate, reader, writer):
        start = 0
        for cut in (*points, len(frame)):
            writer.write(frame[start:cut])
            await writer.drain()
            await asyncio.sleep(0.001)  # let the reader see this piece alone
            start = cut
        writer.write(_frame(0, "after"))
        assert await _delivered(substrate, 2) == [(0, payload), (0, "after")]
        assert substrate.bad_frames == 0
        sizes = [len(t.get_protocol().view) for t in substrate._readers]
        assert sizes == [READ_BUFFER_BYTES] * len(sizes)

    assert asyncio.run(_on_connection(test)) == []


def test_a_header_at_the_limit_is_accepted_one_past_is_refused():
    largest, payload = _padded_frame(MAX_FRAME_BYTES)
    # The header alone: a body left unread would reset the connection.
    too_large = struct.pack("!I", MAX_FRAME_BYTES + 1)

    async def test(substrate, reader, writer):
        writer.write(largest + too_large)
        assert await asyncio.wait_for(reader.read(), timeout=2.0) == b""
        assert await _delivered(substrate, 1) == [(0, payload)]
        assert substrate.bad_frames == 1

    assert asyncio.run(_on_connection(test)) == []


class _FakeTransport:
    closed = False

    def close(self):
        self.closed = True


def _feed(reader, data):
    """Hand ``data`` to ``reader`` as asyncio's selector transport does:
    read into :meth:`get_buffer`'s view, which stays exported while
    :meth:`buffer_updated` runs."""
    while data and not reader.transport.closed:
        view = reader.get_buffer(-1)
        assert len(view) > 0
        count = min(len(view), len(data))
        view[:count] = data[:count]
        reader.buffer_updated(count)
        data = data[count:]


def _well_formed_prefix(data):
    """The frames endpoint 1 of 2 must deliver from ``data``, and whether
    it must then refuse the connection.  Most generated frames come from
    endpoint 0; a frame from endpoint 1 itself or from the non-existent
    2 is the first bad one whenever the stream has one."""
    frames, start = [], 0
    while len(data) - start >= 4:
        (length,) = struct.unpack_from("!I", data, start)
        if length > MAX_FRAME_BYTES:
            return frames, True
        stop = start + 4 + length
        if stop > len(data):
            break
        try:
            src, _, _, payload = _decode(memoryview(data)[start + 4:stop], n=2, dst=1)
        except Exception:
            return frames, True
        frames.append((src, payload))
        start = stop
    return frames, False


_payloads = st.one_of(
    st.integers(), st.text(max_size=40), st.binary(max_size=3000),
    st.binary(min_size=4000, max_size=6000),
    st.tuples(st.sampled_from(["read", "write", "ack"]), st.integers(0, 9)),
)
# Endpoint 1 of 2 accepts frames from 0 only: eight senders in ten are
# 0, so streams of several good frames are common, and the rest are
# endpoint 1 itself or the non-existent 2, which the reader refuses.
_senders = st.integers(0, 9).map(lambda k: max(0, k - 7))


@settings(max_examples=200, deadline=None)
@given(
    frames=st.lists(st.tuples(_senders, _payloads), max_size=8),
    garbage=st.lists(st.tuples(st.integers(0, 2**20), st.binary(min_size=1, max_size=8)),
                     max_size=3),
    tail=st.binary(max_size=16),
    chunks=st.lists(st.integers(1, 9000), min_size=1, max_size=40),
)
def test_any_byte_stream_delivers_its_well_formed_prefix(frames, garbage, tail, chunks):
    # Good frames, then bytes overwritten at random offsets and random
    # bytes appended, fed in random chunk sizes: the reader delivers
    # exactly the frames a whole-stream parse finds before the first bad
    # one, refuses iff that parse meets a bad one, and never raises.
    data = bytearray(b"".join(
        _frame(src, payload, seq=i) for i, (src, payload) in enumerate(frames)))
    for offset, patch in garbage:
        if data:
            at = offset % len(data)
            data[at:at + len(patch)] = patch
    data = bytes(data + tail)
    expected, refused = _well_formed_prefix(data)

    substrate = AsyncioSubstrate(2)
    reader = _FrameReader(substrate, dst=1)
    reader.connection_made(_FakeTransport())
    start = 0
    for size in itertools.cycle(chunks):
        if start >= len(data) or reader.transport.closed:
            break
        _feed(reader, data[start:start + size])
        start += size
    delivered = substrate.collect(1, 0.0)
    assert repr(delivered) == repr(expected)
    assert reader.transport.closed == refused
    assert substrate.bad_frames == int(refused)


def test_start_leaves_no_task_behind():
    # Frames are parsed in the connection's read callback: a started
    # substrate runs no reader task per link, and no accept is pending.
    async def body():
        before = asyncio.all_tasks()
        substrate = AsyncioSubstrate(4)
        await substrate.start()
        try:
            assert asyncio.all_tasks() == before
            substrate.send(0, 3, "x", substrate.clock.now)
            assert await substrate.wait_for_message(3, timeout=2.0)
            assert asyncio.all_tasks() == before
        finally:
            await substrate.close()

    asyncio.run(body())


def test_infinite_wait_arms_no_timer():
    async def body():
        substrate = AsyncioSubstrate(2)
        await substrate.start()
        try:
            loop = asyncio.get_running_loop()
            waiter = loop.create_task(substrate.wait_for_message(0, math.inf))
            await asyncio.sleep(0.01)
            assert _live_timers(loop) == []
            substrate.send(1, 0, "wake", 0.0)
            assert await asyncio.wait_for(waiter, 2.0)
        finally:
            await substrate.close()

    asyncio.run(body())


def test_self_send_rejected():
    async def body():
        substrate = AsyncioSubstrate(2)
        await substrate.start()
        try:
            with pytest.raises(ValueError):
                substrate.send(0, 0, "x", 0.0)
            with pytest.raises(ValueError):
                substrate.send(0, 9, "x", 0.0)
        finally:
            await substrate.close()

    asyncio.run(body())


def _live_timers(loop):
    return [handle for handle in loop._scheduled if not handle.cancelled()]


def test_wait_for_message_times_out():
    async def body():
        substrate = AsyncioSubstrate(2)
        await substrate.start()
        try:
            loop = asyncio.get_running_loop()
            tasks = asyncio.all_tasks()
            assert not await substrate.wait_for_message(0, timeout=0.05)
            # Nothing outlives the wait: no helper task, no armed timer,
            # no parked future for a late message to resolve.
            assert asyncio.all_tasks() == tasks
            assert _live_timers(loop) == []
            assert substrate._parked[0] is None
        finally:
            await substrate.close()

    asyncio.run(body())


def test_two_waits_in_a_row_on_one_endpoint():
    async def body():
        substrate = AsyncioSubstrate(2)
        await substrate.start()
        try:
            loop = asyncio.get_running_loop()
            for payload in ("one", "two"):
                loop.call_later(0.01, substrate.send, 1, 0, payload, 0.0)
                started = loop.time()
                assert await substrate.wait_for_message(0, timeout=2.0)
                assert loop.time() - started < 1.0
                assert substrate.collect(0, 0.0) == [(1, payload)]
                # Woken by the message: the 2 s timer is disarmed.
                assert _live_timers(loop) == []
            assert not await substrate.wait_for_message(0, timeout=0.02)
        finally:
            await substrate.close()

    asyncio.run(body())


def test_message_already_waiting_returns_without_parking():
    async def body():
        substrate = AsyncioSubstrate(2)
        await substrate.start()
        try:
            loop = asyncio.get_running_loop()
            substrate.send(1, 0, "early", 0.0)
            while not substrate._inboxes[0]:
                await asyncio.sleep(0.001)
            waiting = substrate.wait_for_message(0, timeout=5.0)
            # Driven by hand: the coroutine finishes on its first step,
            # without ever handing the loop something to wait on.
            with pytest.raises(StopIteration) as done:
                waiting.send(None)
            assert done.value.value is True
            assert _live_timers(loop) == []
            assert substrate.collect(0, 0.0) == [(1, "early")]
        finally:
            await substrate.close()

    asyncio.run(body())


def test_cancelled_wait_disarms_its_timer():
    async def body():
        substrate = AsyncioSubstrate(2)
        await substrate.start()
        try:
            loop = asyncio.get_running_loop()
            waiter = loop.create_task(substrate.wait_for_message(0, timeout=5.0))
            await asyncio.sleep(0.01)
            assert substrate._parked[0] is not None
            with pytest.raises(RuntimeError, match="already has a parked waiter"):
                await substrate.wait_for_message(0, timeout=0.01)
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            assert _live_timers(loop) == []
            assert substrate._parked[0] is None
            # The endpoint is usable again, and a message after the
            # cancellation finds nobody to wake.
            substrate.send(1, 0, "late", 0.0)
            assert await substrate.wait_for_message(0, timeout=2.0)
        finally:
            await substrate.close()

    asyncio.run(body())


def test_wait_before_start_raises():
    async def body():
        with pytest.raises(RuntimeError, match="not started"):
            await AsyncioSubstrate(2).wait_for_message(0, timeout=0.01)

    asyncio.run(body())


def test_clock_is_run_relative():
    async def body():
        substrate = AsyncioSubstrate(2)
        assert substrate.clock.now == 0.0  # before start: the origin
        await substrate.start()
        try:
            first = substrate.clock.now
            await asyncio.sleep(0.01)
            assert substrate.clock.now > first >= 0.0
        finally:
            await substrate.close()

    asyncio.run(body())
