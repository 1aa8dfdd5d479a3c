"""The live workloads: the lease service on loopback sockets, under load.

One process and one asyncio loop carry the service, its keepers and
replicas, and the load — as ``python -m repro.serve load`` does.  Four
workloads use the same ``acquire``/``release`` front door differently:

``live_open``    open loop (``repro.serve.LoadGenerator``), private-ish keys
``live_hot``     closed loop, 64 clients on 8 keys
``live_refill``  closed loop, token supply is the bottleneck
``live_faulty``  ``live_refill`` under delay spikes and loss that stop

A traced run splits its seconds into an untraced reference phase and a
traced phase on a fresh service each; the relative change of the
workload's primary metric between them is ``obs.trace_overhead_pct``.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro.serve.service as service_module
from repro.net.faults import DelaySpike, MessageLoss, NetFaultPlan
from repro.serve import LeaseService, LoadGenerator
from repro.serve.service import LeaseCore
from repro.serve.substrate import AsyncioSubstrate
from repro.sim import ops

from registry import E2E
from harness import Context, LoopLag, Observed, Outcome, observe, percentile
from spans import Recorder, Span
from workloads.sims import install_net_spans, net_layers

BOUND = 0.02  # the assumed delivery bound Δ, seconds
CLIENTS = 64  # closed-loop client count
ACQUIRE_TIMEOUT = 5.0


@dataclass(frozen=True)
class LiveSpec:
    shards: int
    keepers: int
    open_rate: int = 0  # sessions/s; 0 = closed loop
    block: int = 0  # 0 = sized for the offered rate, as the CLI does
    hot_keys: int = 0  # 0 = one private key per client
    hold: float = 0.0
    faulty: bool = False


SPECS: Dict[str, LiveSpec] = {
    "live_open": LiveSpec(shards=4, keepers=1, open_rate=4000),
    "live_hot": LiveSpec(shards=4, keepers=1, block=8192, hot_keys=8, hold=0.002),
    "live_refill": LiveSpec(shards=2, keepers=2, block=64),
    "live_faulty": LiveSpec(shards=2, keepers=2, block=64, faulty=True),
}


def offered_rate(spec: LiveSpec, ctx: Context) -> int:
    """Open-loop sessions per second (a quarter of it in a smoke run)."""
    return spec.open_rate // 4 if ctx.smoke else spec.open_rate


def fault_plan(seconds: float) -> NetFaultPlan:
    """Two spike windows (deliveries at 3Δ and 10Δ) and one loss window.

    Positions scale with the phase length (the issue's 2–4 s, 5–6 s and
    7–8 s of a 12 s run); times are on the service clock, which starts
    with the substrate, about 0.4 s of warm-up before the load does.
    """
    k = seconds / 12.0
    return NetFaultPlan(
        spikes=(
            DelaySpike(2 * k, 4 * k, extra=3 * BOUND),
            DelaySpike(7 * k, 8 * k, extra=10 * BOUND),
        ),
        losses=(MessageLoss(0.1, 5 * k, 6 * k),),
    )


# ---------------------------------------------------------------------------
# Load.
# ---------------------------------------------------------------------------


class OpenLoad:
    """``repro.serve.LoadGenerator``: a pre-drawn Poisson schedule."""

    def __init__(self, service: LeaseService, spec: LiveSpec, ctx: Context,
                 seconds: float) -> None:
        self.generator = LoadGenerator(
            service,
            clients=int(offered_rate(spec, ctx) * seconds),
            duration=seconds,
            seed=ctx.seed,
            keyspace=1024,
            hold=spec.hold,
            timeout=ACQUIRE_TIMEOUT,
        )
        self.origin = 0.0
        self.window_s = seconds
        self.report: Dict[str, Any] = {}
        self.cpu_us_per_grant = 0.0

    async def run(self) -> None:
        self.origin = self.generator.service.base.clock.now
        ticker = asyncio.get_running_loop().create_task(self._tick())
        cpu = time.process_time()
        self.report = await self.generator.run()
        cpu = time.process_time() - cpu
        self.window_s = self.report["elapsed"]  # pump plus drain, measured
        ticker.cancel()
        try:
            await ticker
        except asyncio.CancelledError:
            pass
        if not self.cpu_us_per_grant:  # a window shorter than one tick
            self.cpu_us_per_grant = 1e6 * cpu / max(1, self.generator.granted)

    async def _tick(self) -> None:
        """Processor time per grant, second by second; keep the median.

        One wake-up a second is the only thing the ledger adds to the
        loop during end-to-end timing.  A stall of the host inside one
        second moves that second's reading, not the median.
        """
        readings: List[float] = []
        cpu, granted = time.process_time(), self.generator.granted
        while True:
            await asyncio.sleep(1.0)
            now_cpu, now_granted = time.process_time(), self.generator.granted
            if now_granted > granted:
                readings.append(1e6 * (now_cpu - cpu) / (now_granted - granted))
                self.cpu_us_per_grant = statistics.median(readings)
            cpu, granted = now_cpu, now_granted

    @property
    def attempted(self) -> int:
        return self.generator.clients

    @property
    def failed(self) -> int:
        r = self.report
        return r["timeouts"] + r["shed"] + r["cancelled"] + r["errors"]

    @property
    def grants(self) -> int:
        return self.generator.granted

    @property
    def latencies(self) -> List[float]:
        return self.generator.latencies

    def due(self, holder: str) -> float:
        """Service-clock instant session ``holder`` was scheduled for."""
        return self.origin + self.generator.arrivals[int(holder[1:])]


class ClosedLoad:
    """``CLIENTS`` callers that each wait for a grant before the next."""

    def __init__(self, service: LeaseService, spec: LiveSpec, ctx: Context,
                 seconds: float) -> None:
        self.service = service
        self.spec = spec
        self.seed = ctx.seed
        self.seconds = seconds
        self.window_s = seconds
        self.origin = 0.0
        self.attempted = 0
        self.failed = 0
        self.grants = 0
        self.latencies: List[float] = []
        self.granted_at: List[float] = []  # service clock, inside the window
        self._stop = False

    async def _client(self, index: int) -> None:
        service = self.service
        clock = service.base.clock
        rng = random.Random(f"ledger:{self.seed}:{index}")
        hot = self.spec.hot_keys
        hold = self.spec.hold
        private = f"{self.seed}-c{index}"
        while not self._stop:
            key = f"hot{rng.randrange(hot)}" if hot else private
            self.attempted += 1
            issued = clock.now
            lease = await service.acquire(
                key, timeout=ACQUIRE_TIMEOUT, holder=f"c{index}"
            )
            if lease is None:
                self.failed += 1
                continue
            if not self._stop:  # grants after the window closes are not counted
                self.grants += 1
                now = clock.now
                self.granted_at.append(now)
                self.latencies.append(now - issued)
            await asyncio.sleep(hold)
            service.release(key, lease.token)

    async def run(self) -> None:
        self.origin = self.service.base.clock.now
        started = perf_counter()
        tasks = [
            asyncio.get_running_loop().create_task(self._client(i))
            for i in range(CLIENTS)
        ]
        await asyncio.sleep(self.seconds)
        self._stop = True
        self.window_s = perf_counter() - started
        for result in await asyncio.gather(*tasks, return_exceptions=True):
            if isinstance(result, BaseException):
                self.attempted += 1
                self.failed += 1

    def due(self, holder: str) -> None:
        return None  # a closed loop has no schedule to be late against

    def slice_rate(self) -> float:
        """Median grants per second over the window's whole seconds.

        A stall of the host inside one second moves that second's count,
        not the median.
        """
        whole = max(1, int(self.window_s))
        counts = [0] * whole
        for at in self.granted_at:
            index = int(at - self.origin)
            if index < whole:
                counts[index] += 1
        return float(statistics.median(counts))


# ---------------------------------------------------------------------------
# One service lifetime.
# ---------------------------------------------------------------------------


@dataclass
class Phase:
    e2e: Dict[str, float]
    layers: Dict[str, float]
    info: Dict[str, Any]
    window_s: float


async def run_phase(
    ctx: Context, out: Outcome, spec: LiveSpec, seconds: float, traced: bool
) -> Optional[Phase]:
    probe = _AcquireProbe()
    # The CLI's sizing: a block holds ~0.7 s of one shard's offered rate.
    block = spec.block or max(
        1024, int(0.7 * offered_rate(spec, ctx) / spec.shards) + 1
    )
    lag = LoopLag()
    with observe(traced) as seen:
        service = LeaseService(
            shards=spec.shards,
            keepers_per_shard=spec.keepers,
            replicas=3,
            bound=BOUND,
            seed=ctx.seed,
            block=block,
            fault_plan=fault_plan(seconds) if spec.faulty else None,
            fault_seed=ctx.seed,
            tracer=seen.tracer if seen is not None else None,
        )
        if seen is not None:
            _install_live_spans(seen.rec, probe, service.system.delta)
        started = perf_counter()
        await service.start()
        start_s = perf_counter() - started
        load = (OpenLoad if spec.open_rate else ClosedLoad)(service, spec, ctx, seconds)
        probe.load = load
        probe.clock = service.base.clock
        if ctx.ready():
            await service.close()
            return None
        if traced:
            lag.start()
        await load.run()
        await lag.stop()
        started = perf_counter()
        await service.close()
        close_s = perf_counter() - started
        violations = service.verify()

    out.attempted += load.attempted
    out.failed += load.failed
    out.check(not violations, f"lease safety violations: {violations[:3]}")
    out.check(load.grants > 0, "no grant completed inside the window")
    latencies = sorted(load.latencies)
    summary = service.summary()
    counters = summary["counters"]
    e2e: Dict[str, float] = {}
    if spec.open_rate:
        e2e["grant_p50_us"] = 1e6 * percentile(latencies, 50)
        e2e["cpu_us_per_grant"] = load.cpu_us_per_grant
    supply = _Supply(service, block)
    if not spec.open_rate:
        e2e["grant_p99_ms"] = 1e3 * percentile(latencies, 99)
        if spec.hot_keys:
            e2e["grants_per_s"] = load.slice_rate()
        else:
            e2e["grants_per_s"] = supply.rate()
    if spec.faulty:
        k = seconds / 12.0
        recoveries = supply.recoveries_s(first_fault=2 * k, closes=(4 * k, 8 * k))
        end = load.origin + load.window_s
        if recoveries is None:
            # Smoke runs are too short to see a clean cycle; a measuring
            # run that never converges is a failed run.
            out.check(ctx.smoke, "token supply did not converge after the faults")
            recoveries = [end - 8 * k]
        e2e["converge_s"] = statistics.median(recoveries)
        e2e["outage_max_s"] = supply.longest_gap_s() or (end - load.origin)
    info = {
        "grants": load.grants,
        "grants_per_window_s": load.grants / load.window_s,
        "grant_p50_ms": 1e3 * percentile(latencies, 50),
        "grant_p99_ms": 1e3 * percentile(latencies, 99),
        "grant_p999_ms": 1e3 * percentile(latencies, 99.9),
        "refills": counters["refills"],
        "busy_per_grant": counters["busy"] / max(1, counters["granted"]),
        "net": summary["net"],
    }
    if spec.faulty:
        info["recoveries_s"] = recoveries
    layers: Dict[str, float] = {}
    if seen is not None:
        layers = _live_layers(seen, probe, service, load, supply, latencies, seconds)
        layers.update({
            "serve.start_s": start_s,
            "serve.close_s": close_s,
            "host.loop_lag_p99_ms": lag.p99_ms(),
        })
    return Phase(e2e, layers, info, load.window_s)


class _Supply:
    """Token-block deliveries per shard, read from the lease history.

    A keeper hands ``LeaseCore.refill`` the block ``[base, base+block)``
    with ``base`` a multiple of ``block``; an accepted block moves the
    pool to ``base``, so its first grant carries ``token % block == 0``.
    When supply is the bottleneck waiters take that token within a
    millisecond of the delivery, so these grant instants are the delivery
    instants — read from the same public history the auditor reads, with
    no wrapper installed during end-to-end timing.
    """

    def __init__(self, service: LeaseService, block: int) -> None:
        self.grants: List[List[float]] = []  # per shard, every grant instant
        self.deliveries: List[List[float]] = []
        for state in service.states:
            granted = [
                (at, token) for kind, _key, token, at, _exp in state.core.events or ()
                if kind == "grant"
            ]
            self.grants.append([at for at, _token in granted])
            self.deliveries.append(
                [at for at, token in granted if token % block == 0]
            )

    def rate(self) -> float:
        """Grants per second when supply is the bottleneck.

        Every delivered block is drained before the next arrives, so
        grants come in bursts of a block and a plain count over the window
        is quantised by whole bursts (25, 26 or 27 per shard in ten
        seconds: 320, 333 or 346 grants/s on identical code).  Counting a
        shard's grants from its first delivery up to its last, over that
        time, and summing over shards gives the rate without the
        quantisation.
        """
        total = 0.0
        for grants, times in zip(self.grants, self.deliveries):
            if len(times) >= 2:
                first, last = times[0], times[-1]
                inside = sum(1 for at in grants if first <= at < last)
                total += inside / (last - first)
        return total

    def cycles_ms(self) -> List[float]:
        return sorted(
            1e3 * (b - a) for times in self.deliveries for a, b in zip(times, times[1:])
        )

    def longest_gap_s(self) -> float:
        return max(
            (b - a for times in self.deliveries for a, b in zip(times, times[1:])),
            default=0.0,
        )

    def recoveries_s(
        self, first_fault: float, closes: Sequence[float]
    ) -> Optional[List[float]]:
        """Per shard and timing-failure window: close → supply back to normal.

        "Back to normal" is the end of the first delivery cycle that
        *began* after the window closed and lasted at most 1.25 × the
        shard's own median pre-fault cycle.  ``None`` if some shard never
        got there.
        """
        found: List[float] = []
        for times in self.deliveries:
            before = [b - a for a, b in zip(times, times[1:]) if b < first_fault]
            if not before:
                return None
            limit = 1.25 * statistics.median(before)
            for close in closes:
                done = next(
                    (b for a, b in zip(times, times[1:])
                     if a >= close and b - a <= limit),
                    None,
                )
                if done is None:
                    return None
                found.append(done - close)
        return found


# ---------------------------------------------------------------------------
# Per-layer attribution (traced phase only).
# ---------------------------------------------------------------------------


class _AcquireProbe:
    """What the ``LeaseService.acquire`` wrapper observes."""

    def __init__(self) -> None:
        self.load: Any = None
        self.clock: Any = None
        self.inflight = 0
        self.inflight_max = 0
        self.late_us: List[float] = []
        self.doorway_s = 0.0


def _install_live_spans(rec: Recorder, probe: _AcquireProbe, doorway: float) -> None:
    rec.time("serve.core_grant", LeaseCore, "grant")
    rec.time("serve.release", LeaseService, "release", keep_samples=True)
    rec.time("serve.audit", service_module, "verify_lease_events")
    install_net_spans(rec, fabric=AsyncioSubstrate)
    acquire_span = rec.spans.setdefault("serve.acquire", Span(True))

    def wrap_acquire(original: Any) -> Any:
        async def acquire(self: Any, key: Any, *args: Any, **kwargs: Any) -> Any:
            due = probe.load.due(kwargs.get("holder") or "")
            if due is not None:
                probe.late_us.append(1e6 * (probe.clock.now - due))
            probe.inflight += 1
            probe.inflight_max = max(probe.inflight_max, probe.inflight)
            started = time.perf_counter_ns()
            try:
                return await original(self, key, *args, **kwargs)
            finally:
                acquire_span.add(time.perf_counter_ns() - started)
                probe.inflight -= 1

        return acquire

    rec.patch(LeaseService, "acquire", wrap_acquire)

    def wrap_delay(original: Any) -> Any:
        def delay(duration: float) -> Any:
            # Algorithm 3's doorway delay(Δ) is the only delay of at least
            # Δ_net; quorum polling naps are a fraction of the bound.
            if duration >= doorway:
                probe.doorway_s += duration
            return original(duration)

        return delay

    rec.patch(ops, "delay", wrap_delay)


def _live_layers(
    seen: Observed,
    probe: _AcquireProbe,
    service: LeaseService,
    load: Any,
    supply: _Supply,
    latencies: List[float],
    seconds: float,
) -> Dict[str, float]:
    rec, records = seen.rec, seen.tracer.records
    summary = service.summary()
    counters, net = summary["counters"], summary["net"]
    granted = max(1, counters["granted"])
    attempts = rec.calls("serve.core_grant")
    acquires = rec.calls("serve.acquire")
    refills = counters["refills"] + counters["stale_refills"]
    acquire_us = rec.samples_us("serve.acquire")
    release_us = rec.samples_us("serve.release")
    cycles = supply.cycles_ms()
    late = sorted(probe.late_us)
    layers: Dict[str, float] = {
        "serve.acquire_p50_us": percentile(acquire_us, 50),
        "serve.acquire_p99_us": percentile(acquire_us, 99),
        "serve.release_p50_us": percentile(release_us, 50),
        "serve.core_grant_us": rec.mean_us("serve.core_grant"),
        "serve.busy_per_grant": counters["busy"] / granted,
        # Attempts beyond the first of each acquire: one per wake-up.
        "serve.wakeups_per_grant": max(0, attempts - acquires) / granted,
        # Attempts that returned no lease: each parks the caller.
        "serve.waiter_parks": max(0, attempts - counters["granted"]),
        "serve.expired": counters["expired"],
        "serve.fenced": counters["fenced"],
        "serve.audit_s": rec.seconds("serve.audit"),
        "serve.refill_cycle_p50_ms": percentile(cycles, 50),
        "serve.refill_cycle_p99_ms": percentile(cycles, 99),
        "serve.refills": counters["refills"],
        "serve.stale_refills": counters["stale_refills"],
        "serve.rtts_per_refill": net["quorum_rtts"] / max(1, refills),
        "serve.msgs_per_refill": net["messages_sent"] / max(1, refills),
        "serve.substrate_send_us": rec.mean_us("net.transport_send"),
        "serve.substrate_collect_us": rec.mean_us("net.transport_collect"),
        "serve.proxy_dropped": getattr(service.substrate, "dropped", 0),
        "serve.proxy_delayed": getattr(service.substrate, "delayed", 0),
        "loadgen.late_p50_us": percentile(late, 50),
        "loadgen.late_p99_us": percentile(late, 99),
        "loadgen.grant_p99_ms": 1e3 * percentile(latencies, 99),
        "loadgen.grant_p999_ms": 1e3 * percentile(latencies, 99.9),
        "loadgen.inflight_max": probe.inflight_max,
        "loadgen.shed": getattr(load, "report", {}).get("shed", 0),
        "loadgen.timeouts": service.timeouts,
        # Share of keeper time inside Algorithm 3's delay(Δ).  The live
        # driver emits no op records for compute_metrics to fold, so the
        # requested doorway delays are summed by a wrapper on ops.delay.
        "core.delay_share": probe.doorway_s
        / (service.shards * service.keepers_per_shard * seconds),
    }
    layers.update({f"net.{name}": value for name, value in net.items()})
    layers.update(net_layers(rec, net, records, BOUND))
    layers.update(_trace_layers(records))
    layers.update(seen.host_layers())
    return layers


def _trace_layers(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """Keeper, quorum-phase and wire timings from the tracer's records."""
    wire_ms: List[float] = []
    phase_ms: List[float] = []
    entry_ms: List[float] = []
    cs_ms: List[float] = []
    open_phase: Dict[Tuple[int, str], float] = {}
    last_exit: Dict[int, float] = {}
    entered: Dict[int, float] = {}
    for record in records:
        kind = record["kind"]
        if kind == "send":
            wire_ms.append(1e3 * (record["arrive"] - record["t"]))
        elif kind == "phase":
            key = (record["pid"], record["phase"])
            if record["edge"] == "start":
                open_phase[key] = record["t"]
            elif key in open_phase:
                phase_ms.append(1e3 * (record["t"] - open_phase.pop(key)))
        elif kind == "label":
            pid = record["pid"]
            if record["label"] == ops.CS_ENTER:
                entered[pid] = record["t"]
                # keeper_program emits no ENTRY_START, so an entry runs
                # from the keeper's previous CS_EXIT: lock exit, delivery,
                # demand check and lock entry.
                if pid in last_exit:
                    entry_ms.append(1e3 * (record["t"] - last_exit[pid]))
            elif record["label"] == ops.CS_EXIT and pid in entered:
                cs_ms.append(1e3 * (record["t"] - entered.pop(pid)))
                last_exit[pid] = record["t"]
    wire_ms.sort()
    phase_ms.sort()
    return {
        "serve.keeper_entry_ms": statistics.median(entry_ms) if entry_ms else 0.0,
        "serve.keeper_cs_ms": statistics.median(cs_ms) if cs_ms else 0.0,
        "serve.phase_rtt_p50_ms": percentile(phase_ms, 50),
        "serve.phase_rtt_p99_ms": percentile(phase_ms, 99),
        "serve.wire_delay_p50_ms": percentile(wire_ms, 50),
        "serve.wire_delay_p99_ms": percentile(wire_ms, 99),
        "serve.over_bound_msgs": sum(1 for ms in wire_ms if ms > 1e3 * BOUND),
    }


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------


async def _run(ctx: Context, out: Outcome, name: str, primary: str) -> None:
    spec = SPECS[name]
    if not ctx.traced:
        phase = await run_phase(ctx, out, spec, ctx.seconds, traced=False)
        if phase is None:
            return
        out.e2e, out.info, out.window_s = phase.e2e, phase.info, phase.window_s
        return
    half = ctx.seconds / 2.0
    reference = await run_phase(ctx, out, spec, half, traced=False)
    if reference is None:
        return
    observed = await run_phase(ctx, out, spec, half, traced=True)
    assert observed is not None
    out.layers = observed.layers
    out.info = {"reference": reference.info, "traced": observed.info}
    out.window_s = reference.window_s + observed.window_s
    # Positive = the primary metric got worse under tracing.
    worse = observed.e2e[primary] / reference.e2e[primary]
    if E2E[primary].better == "higher":
        worse = 1.0 / worse
    out.layers["obs.trace_overhead_pct"] = 100.0 * (worse - 1.0)


def runner(name: str, primary: str) -> Callable[[Context, Outcome], None]:
    def run(ctx: Context, out: Outcome) -> None:
        asyncio.run(_run(ctx, out, name, primary))

    return run
