"""The substrate seam: one message-fabric interface, three backends.

Every networked layer in this repo ultimately speaks to four verbs —
how many endpoints exist, who a pid's peers are, ``send`` a payload at a
time, ``collect`` what has arrived by a time — plus a delivery ``bound``
(the networked ``Δ``), a :class:`~repro.net.transport.NetStats` counter
block, and an optional :class:`~repro.obs.tracer.Tracer`.  The
:class:`Substrate` protocol names exactly that surface.

Three implementations satisfy it:

* :class:`repro.net.Transport` — the deterministic in-simulation fabric
  (it predates the protocol and satisfies it structurally, which is the
  point: the quorum phases never needed more than this surface);
* :class:`AsyncioSubstrate` (here) — real asyncio TCP streams on
  loopback, one listening server per endpoint, used by
  :mod:`repro.serve` to run the very same generator programs against
  actual sockets and wall-clock time;
* :class:`repro.serve.chaosproxy.FaultProxySubstrate` — a proxy that
  wraps either of the above and applies a
  :class:`~repro.net.faults.NetFaultPlan` (drops, delay spikes,
  partitions) on the way through.

What the protocol does **not** promise: that the bound holds.  On the
sim substrate the bound is enforced by construction (faults aside); on
the live substrate it is an *assumption* about loopback — the paper's
Δ stance exactly — and :mod:`repro.obs.timeliness` mines the trace to
report whether reality honoured it.

The live substrate keeps the sim trace vocabulary: each delivered frame
emits a ``send`` record whose ``arrive - t`` is the *measured* wire
delay (sender stamps ``t`` into the frame, the receiver stamps arrival),
and each ``collect`` emits ``recv`` records — so the timeliness miner
and the metrics registry consume live traces unchanged.

Payload framing is :mod:`pickle` over a length prefix.  The substrate
only ever listens on the loopback interface and carries this process's
own traffic between its own endpoints; frames are trusted by design and
never cross a machine boundary.
"""

from __future__ import annotations

import asyncio
import itertools
import pickle
import struct
from collections import deque
from typing import Any, Deque, List, Optional, Tuple

try:  # pragma: no cover - version guard, exercised implicitly
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - Python < 3.8 has no Protocol
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[no-redef]
        return cls

from repro.net.transport import NetStats
from repro.obs.tracer import Tracer, active_tracer

__all__ = ["Substrate", "AsyncioSubstrate", "SubstrateClock"]

# Frame layout: 4-byte big-endian payload length, then the header tuple
# (src pid, sequence number, send instant) and the payload, pickled
# together.  One connection carries one (src, dst) direction.
_LEN = struct.Struct("!I")


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


def _resolve(parked: Optional["asyncio.Future[bool]"], arrived: bool) -> None:
    """Wake a parked :meth:`AsyncioSubstrate.wait_for_message`, once."""
    if parked is not None and not parked.done():
        parked.set_result(arrived)


class AsyncioSubstrate:
    """Real loopback sockets behind the :class:`Substrate` surface.

    Each endpoint pid gets an asyncio TCP server on ``127.0.0.1`` (an
    OS-assigned port); :meth:`start` brings all servers up and
    pre-connects every ordered endpoint pair, so the synchronous
    :meth:`send` only ever writes to an established stream.  Incoming
    frames land in per-endpoint deques the moment the reader task parses
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
    """

    def __init__(
        self,
        n: int,
        bound: float = 0.02,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if n < 1:
            raise ValueError(f"substrate needs at least one endpoint, got {n}")
        if bound <= 0:
            raise ValueError(f"delivery bound must be positive, got {bound}")
        self.n = n
        self.bound = float(bound)
        self.stats = NetStats()
        self.tracer = tracer if tracer is not None else active_tracer()
        self.clock = SubstrateClock()
        # Each entry is (src, payload, seq, arrive-instant).
        self._inboxes: List[Deque[Tuple[int, Any, int, float]]] = [
            deque() for _ in range(n)
        ]
        # The future a napping endpoint is parked on, if any (one program
        # per pid, so at most one waiter per endpoint).
        self._parked: List[Optional["asyncio.Future[bool]"]] = [None] * n
        self._servers: List[asyncio.AbstractServer] = []
        self._ports: List[Optional[int]] = [None] * n
        self._writers: dict = {}
        self._seq = itertools.count()
        self._started = False
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bring up one loopback server per endpoint and pre-connect pairs."""
        if self._started:
            raise RuntimeError("substrate already started")
        self._started = True
        self.clock.start()
        for pid in range(self.n):
            server = await asyncio.start_server(
                self._make_handler(pid), host="127.0.0.1", port=0
            )
            self._servers.append(server)
            self._ports[pid] = server.sockets[0].getsockname()[1]
        for src in range(self.n):
            for dst in range(self.n):
                if src == dst:
                    continue
                _, writer = await asyncio.open_connection(
                    "127.0.0.1", self._ports[dst]
                )
                self._writers[(src, dst)] = writer

    async def close(self) -> None:
        """Tear down every stream and server (idempotent).

        Waits for each outgoing stream to actually close so every
        handler sees EOF and exits *before* the event loop goes away —
        otherwise loop shutdown cancels handlers mid-read and the
        streams machinery logs spurious ``CancelledError`` noise.
        """
        if self._closed:
            return
        self._closed = True
        for writer in self._writers.values():
            writer.close()
        for writer in self._writers.values():
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()

    def _make_handler(self, dst: int):
        async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
            try:
                while True:
                    head = await reader.readexactly(_LEN.size)
                    (length,) = _LEN.unpack(head)
                    body = await reader.readexactly(length)
                    src, seq, sent_at, payload = pickle.loads(body)
                    arrive = self.clock.now
                    self._inboxes[dst].append((src, payload, seq, arrive))
                    _resolve(self._parked[dst], True)
                    if self.tracer is not None:
                        # The live "send" record is emitted at delivery,
                        # when arrive is known: arrive - t is the wire
                        # delay the timeliness miner judges against the
                        # bound, exactly as on the sim transport.
                        self.tracer.msg_send(seq, src, dst, sent_at, arrive)
            except (asyncio.IncompleteReadError, ConnectionResetError):
                pass
            except asyncio.CancelledError:
                # Loop teardown cancelled a parked read; the connection
                # is dead either way and nobody awaits this leaf task.
                pass
            finally:
                writer.close()

        return handle

    # -- the Substrate surface ----------------------------------------------

    def peers(self, pid: int) -> Tuple[int, ...]:
        return tuple(p for p in range(self.n) if p != pid)

    def send(self, src: int, dst: int, payload: Any, now: float) -> None:
        if not 0 <= dst < self.n:
            raise ValueError(f"destination pid {dst} outside substrate 0..{self.n - 1}")
        if dst == src:
            raise ValueError(f"pid {src} sent a message to itself")
        writer = self._writers.get((src, dst))
        if writer is None:
            raise RuntimeError("substrate not started — call `await start()` first")
        self.stats.messages_sent += 1
        seq = next(self._seq)
        body = pickle.dumps((src, seq, now, payload), protocol=pickle.HIGHEST_PROTOCOL)
        writer.write(_LEN.pack(len(body)) + body)

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
        future per endpoint, resolved by the reader on arrival or by a
        timer that is cancelled on wake-up — no task, no event.  A
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
        timer = loop.call_later(timeout, _resolve, parked, False)
        try:
            return await parked
        finally:
            timer.cancel()
            self._parked[dst] = None

    def __repr__(self) -> str:
        return f"AsyncioSubstrate(n={self.n}, bound={self.bound})"
