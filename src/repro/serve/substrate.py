"""The substrate seam: one message-fabric interface, two backends.

Every networked layer in this repo ultimately speaks to four verbs —
how many endpoints exist, who a pid's peers are, ``send`` a payload at a
time, ``collect`` what has arrived by a time — plus a delivery ``bound``
(the networked ``Δ``), a :class:`~repro.net.transport.NetStats` counter
block, and an optional :class:`~repro.obs.tracer.Tracer`.  The
:class:`Substrate` protocol names exactly that surface.

Two implementations satisfy it:

* :class:`repro.net.Transport` — the deterministic in-simulation fabric
  (it predates the protocol and satisfies it structurally, which is the
  point: the quorum phases never needed more than this surface);
* :class:`AsyncioSubstrate` (here) — real asyncio TCP streams on
  loopback, one listening server per endpoint, used by
  :mod:`repro.serve` to run the very same generator programs against
  actual sockets and wall-clock time.

Both take a :class:`~repro.net.faults.NetFaultPlan` as their own input
and consult it on each send, drawing from one ``random.Random(seed)``:
a partition or loss drops the message (``messages_dropped`` and a
tracer ``drop`` record), a delay spike stretches its delivery.  The sim
transport adds the spike to the message's scheduled arrival; the live
substrate holds the frame on a loop timer for the spike's extra delay,
stamped with the instant it was sent, so the reader measures the spike
as wire delay over the bound.  Window times are on the driving clock:
virtual time on the sim, run-relative seconds live.  Live fault
*decisions* are seeded and reproducible, but wall-clock arrival inside
a window is not: live chaos runs observe resilience, the sim replays.

What the protocol does **not** promise: that the bound holds.  On the
sim substrate the bound is enforced by construction (faults aside); on
the live substrate it is an *assumption* about loopback — the paper's
Δ stance exactly.  :class:`AsyncioSubstrate` counts every delivery that
broke it as the frame lands (:class:`TimingFailures`), and
:mod:`repro.obs.timeliness` mines the trace afterwards for the per-link
verdicts.

The live substrate keeps the sim trace vocabulary: each delivered frame
emits a ``send`` record whose ``arrive - t`` is the *measured* wire
delay (sender stamps ``t`` into the frame, the receiver stamps arrival),
and each ``collect`` emits ``recv`` records — so the timeliness miner
and the metrics registry consume live traces unchanged.

Payload framing is :mod:`pickle` over a length prefix.  The substrate
only ever listens on the loopback interface and carries this process's
own traffic between its own endpoints; frames never cross a machine
boundary.  Each connection's reader is an
:class:`asyncio.BufferedProtocol`: the socket is read straight into a
small per-connection buffer (``recv_into``, no fresh 256 KiB ``recv``
allocation per read), and the :meth:`~asyncio.BufferedProtocol.buffer_updated`
callback decodes every whole frame in place through a
:class:`memoryview` — no stream reader or task per connection and no
copy per frame, so a delivery costs the event loop nothing beyond the
socket's own read callback.  A frame cut across reads waits in the
buffer for its rest; EOF or a reset drops whatever part of a frame is
buffered.  A reader refuses two bad frames: a length header above
:data:`MAX_FRAME_BYTES` and a body that does not decode to a frame.
Either closes that one connection and counts into
:attr:`AsyncioSubstrate.bad_frames`; every other link keeps delivering.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import pickle
import random
import struct
from collections import deque
from typing import (
    Any, Deque, Dict, List, Optional, Protocol, Set, Tuple, runtime_checkable,
)

from repro.net.faults import NetFaultPlan
from repro.net.transport import NetStats
from repro.obs.tracer import Tracer, active_tracer

__all__ = ["Substrate", "AsyncioSubstrate", "SubstrateClock", "TimingFailures"]

# Frame layout: 4-byte big-endian payload length, then the header tuple
# (src pid, sequence number, send instant) and the payload, pickled
# together.  One connection carries one (src, dst) direction.
_LEN = struct.Struct("!I")
# The largest frame a reader accepts.  An ABD frame is a few hundred
# bytes; a header announcing more than this is a bad frame, refused
# before its body is read (the prefix alone could ask for 4 GiB).
MAX_FRAME_BYTES = 1 << 16
# A reader's standing buffer: a read takes in many ABD frames at once,
# and one connection holds this little whatever it has carried.
READ_BUFFER_BYTES = 1 << 12


@runtime_checkable
class Substrate(Protocol):
    """The minimal message-fabric surface the quorum emulation needs.

    Implementations carry four data members —

    * ``n`` — endpoint count (pids ``0..n-1``);
    * ``bound`` — the per-link delivery bound, the substrate's ``Δ``;
    * ``stats`` — a :class:`~repro.net.transport.NetStats` block;
    * ``tracer`` — a :class:`~repro.obs.tracer.Tracer` or ``None``;

    — and three methods.  ``send``/``collect`` take ``now`` from the
    caller because time is *owned by the driver*: the discrete-event
    engine passes its virtual clock, the asyncio driver passes the run's
    wall clock.  A substrate never advances time on its own.
    """

    n: int
    bound: float
    stats: NetStats
    tracer: Optional[Tracer]

    def peers(self, pid: int) -> Tuple[int, ...]:
        """Every endpoint except ``pid`` (the broadcast audience)."""
        ...

    def send(self, src: int, dst: int, payload: Any, now: float) -> None:
        """Hand one message to the fabric at time ``now``."""
        ...

    def collect(self, dst: int, now: float) -> List[Tuple[int, Any]]:
        """Pop every ``(sender, payload)`` delivered to ``dst`` by ``now``."""
        ...


class SubstrateClock:
    """A run-relative wall clock with the engine clock's ``.now`` shape.

    :meth:`Tracer.bind_clock` expects an object exposing ``now`` as an
    attribute; the sim engines bind their virtual clock, the live layers
    bind one of these.  Time starts at zero when the substrate starts,
    so live traces line up with sim traces at the origin.
    """

    __slots__ = ("_origin", "_loop")

    def __init__(self) -> None:
        self._origin: Optional[float] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._origin = self._loop.time()

    @property
    def now(self) -> float:
        if self._origin is None or self._loop is None:
            return 0.0
        return self._loop.time() - self._origin


class TimingFailures:
    """Deliveries that took longer than the bound, counted as they land.

    The networked timing failure is a message whose measured wire delay,
    ``arrive - sent``, exceeds the bound the service assumes.  The reader
    counts each one the moment it parses the frame: how many, by how much
    the worst one overshot, and on which ``(src, dst)`` links — what an
    operator needs while the service runs, without a trace.  It is kept
    out of :class:`~repro.net.transport.NetStats`, whose snapshot a
    simulated run reproduces exactly, run after run.
    """

    __slots__ = ("count", "worst_excess", "by_link")

    def __init__(self) -> None:
        self.count = 0
        self.worst_excess = 0.0  # seconds past the bound
        self.by_link: Dict[Tuple[int, int], int] = {}

    def record(self, src: int, dst: int, excess: float) -> None:
        """One delivery on ``src -> dst``, ``excess`` seconds over the bound."""
        self.count += 1
        if excess > self.worst_excess:
            self.worst_excess = excess
        link = (src, dst)
        self.by_link[link] = self.by_link.get(link, 0) + 1

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready copy: links are ``"src->dst"`` strings."""
        return {
            "count": self.count,
            "worst_excess_s": self.worst_excess,
            "by_link": {
                f"{src}->{dst}": count
                for (src, dst), count in sorted(self.by_link.items())
            },
        }


def _resolve(parked: Optional["asyncio.Future[bool]"], arrived: bool) -> None:
    """Wake a parked :meth:`AsyncioSubstrate.wait_for_message`, once."""
    if parked is not None and not parked.done():
        parked.set_result(arrived)


def _decode(body: memoryview) -> Tuple[int, int, float, Any]:
    """One frame body to ``(src, seq, sent_at, payload)``, or raise.

    The reader's whole view of the codec: :meth:`AsyncioSubstrate.send`
    encodes, this decodes, and nothing else looks inside a body.  Any
    exception marks a bad frame.
    """
    src, seq, sent_at, payload = pickle.loads(body)
    if type(src) is not int or type(seq) is not int or not isinstance(
        sent_at, (int, float)
    ):
        raise ValueError("frame header fields have the wrong types")
    return src, seq, sent_at, payload


class _FrameReader(asyncio.BufferedProtocol):
    """One accepted connection into endpoint ``dst``: frames parse where they land.

    asyncio reads the socket into :meth:`get_buffer`'s view of this
    reader's buffer, and :meth:`buffer_updated` decodes each whole frame
    from a slice of that view, without a copy.  Bytes
    ``[start, end)`` are received but unparsed: at most one cut frame,
    moved to the buffer's front when its rest would not fit behind it.
    A frame longer than the standing buffer gets a new buffer of its
    exact size, never a resized one — asyncio still holds the exported
    view during ``buffer_updated``, and a resize would raise
    :exc:`BufferError` — and once that frame is parsed the reader goes
    back to its standing :data:`READ_BUFFER_BYTES` buffer.
    """

    def __init__(self, substrate: "AsyncioSubstrate", dst: int) -> None:
        self.substrate = substrate
        self.dst = dst
        self.standing = memoryview(bytearray(READ_BUFFER_BYTES))
        self.view = self.standing  # the buffer asyncio reads into
        self.start = 0  # the first unparsed byte
        self.end = 0  # one past the last byte received
        self.transport: Optional[asyncio.Transport] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self.substrate._readers.add(transport)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # EOF or a reset: a partial frame left in the buffer is never read.
        self.substrate._readers.discard(self.transport)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.view[self.end:]

    def buffer_updated(self, nbytes: int) -> None:
        view = self.view
        deliver = self.substrate._deliver
        start, end = self.start, self.end + nbytes
        while end - start >= _LEN.size:
            (length,) = _LEN.unpack_from(view, start)
            if length > MAX_FRAME_BYTES:
                return self._refuse()
            stop = start + _LEN.size + length
            if stop > end:
                break
            try:
                src, seq, sent_at, payload = _decode(view[start + _LEN.size:stop])
            except Exception:  # any undecodable body is a bad frame
                return self._refuse()
            deliver(src, self.dst, seq, sent_at, payload)
            start = stop
        if start == end:
            self.view = self.standing
            self.start = self.end = 0
        else:
            self._keep(start, end)

    def _keep(self, start: int, end: int) -> None:
        """Make room behind the cut frame at ``[start, end)`` for its rest."""
        view = self.view
        need = _LEN.size
        if end - start >= need:
            need += _LEN.unpack_from(view, start)[0]
        if start + need <= len(view):
            self.start, self.end = start, end
            return
        standing = self.standing
        target = standing if need <= len(standing) else memoryview(bytearray(need))
        # memoryview slice assignment moves overlapping bytes correctly.
        target[:end - start] = view[start:end]
        self.view = target
        self.start, self.end = 0, end - start

    def _refuse(self) -> None:
        self.substrate.bad_frames += 1
        assert self.transport is not None
        self.transport.close()  # no buffer_updated follows


class AsyncioSubstrate:
    """Real loopback sockets behind the :class:`Substrate` surface.

    Each endpoint pid gets an asyncio TCP server on ``127.0.0.1`` (an
    OS-assigned port); :meth:`start` brings all servers up and
    pre-connects every ordered endpoint pair, so the synchronous
    :meth:`send` only ever writes to an established connection.  Incoming
    frames land in per-endpoint deques in the read callback that parses
    them; :meth:`collect` drains the deque — the same poll-don't-block
    contract :class:`~repro.sim.ops.Recv` has on the sim substrate.

    Parameters
    ----------
    n:
        Endpoint count.  Connections are pre-opened for all ``n·(n-1)``
        ordered pairs; this substrate is meant for service topologies
        (keepers + replicas), not for one endpoint per end client.
    bound:
        The assumed delivery bound in *real seconds*.  Nothing enforces
        it — loopback is far faster — but every derived cost (poll
        granularity, ``Δ_net``) scales from it, and the timeliness miner
        judges the run against it.
    tracer:
        Receives the message records; defaults to the ambient tracer.
    faults:
        Optional :class:`~repro.net.faults.NetFaultPlan`; defaults to a
        fault-free network.  :attr:`dropped` and :attr:`delayed` count
        the sends it dropped and held.
    seed:
        Seeds the loss RNG; same seed, same drop decisions.
    """

    def __init__(
        self,
        n: int,
        bound: float = 0.02,
        tracer: Optional[Tracer] = None,
        faults: Optional[NetFaultPlan] = None,
        seed: Any = 0,
    ) -> None:
        if n < 1:
            raise ValueError(f"substrate needs at least one endpoint, got {n}")
        if bound <= 0:
            raise ValueError(f"delivery bound must be positive, got {bound}")
        self.n = n
        self.bound = float(bound)
        self.stats = NetStats()
        self.timing_failures = TimingFailures()
        self.bad_frames = 0  # connections closed on a bad frame
        self.tracer = tracer if tracer is not None else active_tracer()
        self.faults = faults if faults is not None else NetFaultPlan.none()
        self.dropped = 0  # sends the plan dropped
        self.delayed = 0  # sends the plan held back
        self.clock = SubstrateClock()
        self._rng = random.Random(seed)
        # Each entry is (src, payload, seq, arrive-instant).
        self._inboxes: List[Deque[Tuple[int, Any, int, float]]] = [
            deque() for _ in range(n)
        ]
        # The future a napping endpoint is parked on, if any (one program
        # per pid, so at most one waiter per endpoint).
        self._parked: List[Optional["asyncio.Future[bool]"]] = [None] * n
        self._servers: List[asyncio.AbstractServer] = []
        self._ports: List[Optional[int]] = [None] * n
        # Outgoing transports by (src, dst); incoming ones as accepted.
        self._links: Dict[Tuple[int, int], asyncio.Transport] = {}
        self._readers: Set[asyncio.BaseTransport] = set()
        # Frames a delay spike holds back, by sequence number, until
        # their timer writes them.
        self._held: Dict[int, asyncio.TimerHandle] = {}
        self._seq = itertools.count()
        self._started = False
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bring up one loopback server per endpoint and pre-connect pairs.

        Returns once both ends of every link are up, so the accepting
        side has nothing left to do and the first :meth:`send` on any
        link is read at once.
        """
        if self._started:
            raise RuntimeError("substrate already started")
        self._started = True
        self.clock.start()
        loop = asyncio.get_running_loop()
        for pid in range(self.n):
            server = await loop.create_server(
                lambda dst=pid: _FrameReader(self, dst), host="127.0.0.1", port=0
            )
            self._servers.append(server)
            self._ports[pid] = server.sockets[0].getsockname()[1]
        for src in range(self.n):
            for dst in range(self.n):
                if src == dst:
                    continue
                transport, _ = await loop.create_connection(
                    asyncio.Protocol, "127.0.0.1", self._ports[dst]
                )
                self._links[(src, dst)] = transport
        # Wait out the servers' accepts; each one's task ends a turn after
        # its connection_made.
        while len(self._readers) < len(self._links):
            await asyncio.sleep(0)
        await asyncio.sleep(0)

    async def close(self) -> None:
        """Tear down every connection and server (idempotent).

        Both ends of every connection are this substrate's own, so it
        aborts them all — a frame still in flight has no reader left to
        want it — and gives the loop one turn to release their sockets.
        Frames a delay spike still holds are cancelled, never written.
        """
        if self._closed:
            return
        self._closed = True
        for timer in self._held.values():
            timer.cancel()
        self._held.clear()
        for transport in [*self._links.values(), *self._readers]:
            transport.abort()
        await asyncio.sleep(0)
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()

    def _deliver(self, src: int, dst: int, seq: int, sent_at: float, payload: Any) -> None:
        arrive = self.clock.now
        self._inboxes[dst].append((src, payload, seq, arrive))
        _resolve(self._parked[dst], True)
        delay = arrive - sent_at
        if delay > self.bound:
            self.timing_failures.record(src, dst, delay - self.bound)
        if self.tracer is not None:
            # The live "send" record is emitted at delivery, when arrive
            # is known: arrive - t is the wire delay the timeliness miner
            # judges against the bound, exactly as on the sim transport.
            self.tracer.msg_send(seq, src, dst, sent_at, arrive)

    # -- the Substrate surface ----------------------------------------------

    def peers(self, pid: int) -> Tuple[int, ...]:
        return tuple(p for p in range(self.n) if p != pid)

    def send(self, src: int, dst: int, payload: Any, now: float) -> None:
        if not 0 <= dst < self.n:
            raise ValueError(f"destination pid {dst} outside substrate 0..{self.n - 1}")
        if dst == src:
            raise ValueError(f"pid {src} sent a message to itself")
        link = self._links.get((src, dst))
        if link is None:
            raise RuntimeError("substrate not started — call `await start()` first")
        self.stats.messages_sent += 1
        faults = self.faults
        if faults.drops(src, dst, now, self._rng):
            self.dropped += 1
            self.stats.messages_dropped += 1
            if self.tracer is not None:
                self.tracer.msg_drop(src, dst, now)
            return
        extra = faults.delivery_delay(src, dst, now, 0.0)
        seq = next(self._seq)
        body = pickle.dumps((src, seq, now, payload), protocol=pickle.HIGHEST_PROTOCOL)
        frame = _LEN.pack(len(body)) + body
        if extra > 0:
            # The frame keeps its send instant, so the reader measures
            # the hold as wire delay.
            self.delayed += 1
            self._held[seq] = asyncio.get_running_loop().call_later(
                extra, self._release, seq, link, frame
            )
        else:
            link.write(frame)

    def _release(self, seq: int, link: asyncio.Transport, frame: bytes) -> None:
        del self._held[seq]
        link.write(frame)

    def collect(self, dst: int, now: float) -> List[Tuple[int, Any]]:
        inbox = self._inboxes[dst]
        tracer = self.tracer
        out: List[Tuple[int, Any]] = []
        while inbox:
            src, payload, seq, arrive = inbox.popleft()
            out.append((src, payload))
            if tracer is not None:
                tracer.msg_recv(seq, src, dst, now, arrive)
        self.stats.messages_delivered += len(out)
        return out

    # -- live-only conveniences ---------------------------------------------

    async def wait_for_message(self, dst: int, timeout: float) -> bool:
        """Park until something arrives for ``dst`` (or the timeout).

        This is what the live driver turns a :class:`~repro.sim.ops.Nap`
        into, so every quorum phase passes through here: the wait is one
        future per endpoint, resolved by the reader on arrival, by
        :meth:`wake`, or by a timer that is cancelled on wake-up — no
        task, no event.  An infinite ``timeout`` arms no timer: the wait
        ends only when a message arrives, :meth:`wake` rings, or the
        waiting task is cancelled.  A
        wake-up guarantees nothing beyond "collect may now return
        something".  With a message already waiting the call returns at
        once, without suspending: the caller's next ``collect`` is due,
        and a trip round the event loop first costs a busy service about
        a tenth of its refill rate.
        """
        if self._inboxes[dst]:
            return True
        if not self._started:
            raise RuntimeError("substrate not started — call `await start()` first")
        if self._parked[dst] is not None:
            raise RuntimeError(f"endpoint {dst} already has a parked waiter")
        loop = asyncio.get_running_loop()
        parked = self._parked[dst] = loop.create_future()
        timer = (
            loop.call_later(timeout, _resolve, parked, False)
            if timeout < math.inf else None
        )
        try:
            return await parked
        finally:
            if timer is not None:
                timer.cancel()
            self._parked[dst] = None

    def wake(self, dst: int) -> None:
        """End ``dst``'s parked :meth:`wait_for_message` now, with nothing arrived.

        The front door's doorbell: a keeper napping until the token pool
        needs it is woken this way, and the wait returns ``False`` as a
        timeout would.  A ``dst`` that is not parked is left alone.
        """
        _resolve(self._parked[dst], False)

    def __repr__(self) -> str:
        return f"AsyncioSubstrate(n={self.n}, bound={self.bound})"
