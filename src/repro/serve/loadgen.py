"""Seeded open-loop load against the lease service.

Open-loop means arrivals come from a pre-drawn Poisson schedule and do
*not* wait for earlier requests to finish — the generator models 10⁵–10⁶
independent clients, so a slow service accumulates queueing delay in the
measured latency instead of quietly throttling the offered load (the
coordinated-omission trap closed-loop generators fall into).

The pump is a chain of loop timers, not a task: each timer callback
starts the arrival it was armed for and every other one now due, then
arms the timer for the next arrival.  A session is a Task only once it
suspends.  The pump runs each session's coroutine itself, at its
arrival, up to its first suspension: a session on a free key with a
token in the pool acquires, releases and finishes right there, costing
no Task and no trip round the event loop.  One that waits — its key is
held, the token pool is dry, or it holds its lease for ``hold`` —
continues in a Task from where it stopped.

Determinism discipline, stated precisely: the *workload* is seeded and
exactly reproducible — the arrival schedule (``expovariate`` draws from
``random.Random(seed)``) and each session's key (CRC-32 of the session
index, never :func:`hash`) are identical across runs and machines.
The *measurements* (latencies, grant/timeout split under contention)
are wall-clock facts of the run; safety properties are audited by
:meth:`~repro.serve.service.LeaseService.verify`, not by expecting live
timings to replay.
"""

from __future__ import annotations

import asyncio
import math
import random
import zlib
from typing import Any, Coroutine, Dict, List, Optional, Sequence

from .service import LeaseService

__all__ = ["LoadGenerator", "percentile"]


def percentile(sorted_values: Sequence[float], q: float) -> Optional[float]:
    """Exact nearest-rank percentile of an ascending-sorted sequence."""
    if not sorted_values:
        return None
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


_HANDED_OVER = object()  # what a _Suspended holds once its Task took the future


class _Suspended:
    """The rest of a session whose first step suspended it, for a Task to run.

    A Task drives this exactly as it would drive the session coroutine
    from its start.  The first ``send`` hands back what the coroutine
    yielded when it suspended — the future it awaits, or ``None`` for a
    bare yield — so the Task waits on that.  Every later ``send`` and
    every ``throw`` (a result, an exception, cancellation, even a
    cancellation before the Task's first step) goes straight to the
    coroutine, so the Task finishes, fails or is cancelled as the
    session does.
    """

    __slots__ = ("_session", "_awaiting")

    def __init__(self, session: Coroutine[Any, Any, None], awaiting: Any) -> None:
        self._session = session
        self._awaiting = awaiting

    def send(self, value: Any) -> Any:
        awaiting = self._awaiting
        if awaiting is _HANDED_OVER:
            return self._session.send(value)
        self._awaiting = _HANDED_OVER
        return awaiting

    def throw(self, *exc: Any) -> Any:
        self._awaiting = _HANDED_OVER
        return self._session.throw(*exc)

    def close(self) -> None:
        self._session.close()

    def __await__(self) -> "_Suspended":
        return self

    def __next__(self) -> Any:
        return self.send(None)


class LoadGenerator:
    """Drive ``clients`` lease sessions through ``service`` in ``duration`` s.

    One session = acquire a key (seeded choice from ``keyspace``), hold
    it for ``hold`` seconds, release with the fencing token.  Latency is
    measured from the *scheduled* arrival instant to the grant, so pump
    lateness and queueing both count against the service — open-loop
    honesty.

    Pump lateness is most of a short grant's latency.  On the default
    (epoll) event loop on Linux, a timer armed 0.2–1 ms ahead fires
    1.1–1.4 ms after it was armed (measured on a 2-vCPU VM): the epoll
    selector rounds its timeout up to whole milliseconds, and the
    wake-up adds its own latency on top.  A session on a stocked pool
    starts about half of that delay late, and that lateness is nearly
    all of its grant latency: at 4 000 arrivals a second the median
    session started 571 µs late, with a median grant latency of about
    560 µs.

    ``max_inflight`` bounds concurrently-alive session tasks (sessions
    that suspended); arrivals beyond the bound are *shed* (counted, not
    silently dropped) so a wedged service cannot balloon task memory
    without saying so.
    """

    def __init__(
        self,
        service: LeaseService,
        clients: int,
        duration: float,
        seed: int = 0,
        keyspace: int = 1024,
        ttl: Optional[float] = None,
        hold: float = 0.0,
        timeout: float = 2.0,
        max_inflight: int = 50_000,
    ) -> None:
        if clients < 1:
            raise ValueError(f"need at least one client, got {clients}")
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if keyspace < 1:
            raise ValueError(f"keyspace must be positive, got {keyspace}")
        if not 0 <= hold < math.inf:
            raise ValueError(f"hold must be non-negative and finite, got {hold}")
        self.service = service
        self.clients = clients
        self.duration = float(duration)
        self.seed = seed
        self.keyspace = keyspace
        self.ttl = ttl
        self.hold = hold
        self.timeout = timeout
        self.max_inflight = max_inflight
        # The entire arrival schedule is drawn up front: rate λ = N/D,
        # inter-arrival gaps ~ Exp(λ).  Reproducible by construction.
        rng = random.Random(seed)
        rate = clients / self.duration
        t = 0.0
        self.arrivals: List[float] = []
        for _ in range(clients):
            t += rng.expovariate(rate)
            self.arrivals.append(t)
        self.granted = 0
        self.timeouts = 0
        self.shed = 0
        self.released = 0
        self.release_fenced = 0
        self.errors = 0
        self.latencies: List[float] = []
        self._inflight = 0
        self._tasks: set = set()
        self._origin = 0.0  # the service clock at the run's start
        self._start = 0.0  # the loop clock at the same instant
        self._timer: Optional[asyncio.TimerHandle] = None
        self._done: Optional["asyncio.Future[None]"] = None

    def key_for(self, index: int) -> str:
        """The session's key — CRC-routed, identical on every run."""
        slot = zlib.crc32(f"{self.seed}:{index}".encode("ascii")) % self.keyspace
        return f"key{slot}"

    def _now(self) -> float:
        return self.service.substrate.clock.now

    # -- sessions ------------------------------------------------------------

    async def _session(self, index: int, scheduled: float) -> None:
        try:
            key = self.key_for(index)
            lease = await self.service.acquire(
                key, ttl=self.ttl, timeout=self.timeout, holder=f"c{index}"
            )
            if lease is None:
                self.timeouts += 1
                return
            self.latencies.append(self._now() - scheduled)
            self.granted += 1
            if self.hold > 0:
                await asyncio.sleep(self.hold)
            if self.service.release(key, lease.token):
                self.released += 1
            else:
                self.release_fenced += 1
        except Exception:
            self.errors += 1
            raise

    def _spawn(self, index: int, scheduled: float) -> None:
        session = self._session(index, scheduled)
        try:
            awaiting = session.send(None)
        except Exception:  # StopIteration: done; else counted in ``errors``
            return
        task = asyncio.get_running_loop().create_task(_Suspended(session, awaiting))
        self._tasks.add(task)
        self._inflight += 1
        task.add_done_callback(self._retire)

    def _retire(self, task: "asyncio.Task") -> None:
        self._tasks.discard(task)
        self._inflight -= 1
        if not task.cancelled():
            task.exception()  # counted in ``errors`` by the session itself

    def _pump(self, index: int) -> None:
        """Timer callback: start arrival ``index`` and every one due after it.

        Then arm the timer for the next arrival.  The arrival the timer
        was armed for always starts, even when the loop runs the timer a
        hair before its instant (asyncio runs timers up to its clock
        resolution early).
        """
        done = self._done
        if done is None or done.done():  # the run was cancelled
            return
        arrivals, count = self.arrivals, len(self.arrivals)
        loop = done.get_loop()
        start = self._start
        while True:
            if self._inflight >= self.max_inflight:
                self.shed += 1
            else:
                self._spawn(index, self._origin + arrivals[index])
            index += 1
            if index == count:
                self._timer = None
                done.set_result(None)
                return
            when = start + arrivals[index]
            if when > loop.time():
                break
        self._timer = loop.call_at(when, self._pump, index)

    # -- the run -------------------------------------------------------------

    async def run(self) -> Dict[str, Any]:
        """Pump the schedule, drain the tail, return the report dict.

        Cancelling the run cancels the pump's armed timer: no session
        starts afterwards.
        """
        loop = asyncio.get_running_loop()
        self._origin = self._now()
        self._start = loop.time()
        self._done = loop.create_future()
        self._timer = loop.call_at(self._start + self.arrivals[0], self._pump, 0)
        try:
            await self._done
        finally:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
        if self._tasks:
            await asyncio.wait(set(self._tasks), timeout=self.timeout + self.hold + 1.0)
        cancelled = 0
        if self._tasks:
            stragglers = list(self._tasks)
            for task in stragglers:
                task.cancel()
            await asyncio.gather(*stragglers, return_exceptions=True)
            cancelled = len(stragglers)
        elapsed = self._now() - self._origin
        return self.report(elapsed, cancelled)

    def report(self, elapsed: float, cancelled: int = 0) -> Dict[str, Any]:
        lat = sorted(self.latencies)
        return {
            "clients": self.clients,
            "duration": self.duration,
            "seed": self.seed,
            "keyspace": self.keyspace,
            "elapsed": elapsed,
            "granted": self.granted,
            "timeouts": self.timeouts,
            "shed": self.shed,
            "cancelled": cancelled,
            "released": self.released,
            "release_fenced": self.release_fenced,
            "errors": self.errors,
            "throughput": (self.granted / elapsed) if elapsed > 0 else 0.0,
            "latency": {
                "count": len(lat),
                "mean": (sum(lat) / len(lat)) if lat else None,
                "p50": percentile(lat, 50),
                "p95": percentile(lat, 95),
                "p99": percentile(lat, 99),
                "max": lat[-1] if lat else None,
            },
        }
