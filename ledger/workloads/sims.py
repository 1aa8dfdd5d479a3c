"""The simulator workloads: ``sim_registers`` and ``sim_net``.

Both run a fixed, seeded work list under the deterministic engines and
repeat it for as many passes as fit in the run's seconds (see
``harness.run_passes``).  ``EngineProbe`` is attached in every pass,
traced or not: ``events_per_s`` is its event count over the pass's time,
and the probe's cost is one ``is not None`` test per increment on both
sides of any comparison.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter
from typing import Any, Dict, List

import repro.core.consensus as consensus_module
import repro.serve.workload as churn_module
import repro.spec as spec
from repro.algorithms import mutex_session
from repro.core.consensus import run_consensus
from repro.core.mutex import default_time_resilient_mutex
from repro.net import QuorumSystem
from repro.net.transport import Transport
from repro.obs.metrics import compute_metrics
from repro.sim import ConstantTiming, Engine, RandomTieBreak, UniformTiming, ops
from repro.sim.instrument import EngineProbe, probe_scope
from repro.sim.registers import Memory, Register, RegisterNamespace
from repro.sim.trace import EventKind

from harness import Context, Observed, Outcome, Pass, observe, run_passes
from spans import Recorder, Span

DELTA = 1.0
_PROBE_LAYER = (
    "events", "heap_pushes", "ops_linearized", "shared_steps",
    "trace_events", "reads", "writes", "rmws",
)
_NET_LAYER = (
    "messages_sent", "messages_delivered", "messages_dropped", "quorum_rtts",
)


def install_sim_spans(rec: Recorder) -> None:
    """Wrap the engine, memory, timing-model and spec-checker boundaries."""
    rec.time("sim.engine_run", Engine, "run")
    rec.time("sim.spawn", Engine, "spawn")
    for method in ("read", "write", "rmw"):
        rec.time("sim.memory", Memory, method)
    for model in (UniformTiming, ConstantTiming):
        for method in ("shared_step_duration", "delay_duration", "local_duration"):
            rec.time("sim.timing", model, method)
    # run_consensus reaches the checker through its module's global.
    rec.time("spec.check", consensus_module, "check_consensus")
    rec.time("spec.check", spec, "check_mutex")
    rec.time("spec.check", churn_module, "verify_lease_events")


def install_net_spans(rec: Recorder, fabric: Any = Transport) -> None:
    """Wrap the message fabric and count register operations and quorum
    request broadcasts (``fabric`` is the substrate class in use)."""
    rec.time("net.transport_send", fabric, "send")
    rec.time("net.transport_collect", fabric, "collect")
    rec.time("net.register_op", QuorumSystem, "read")
    rec.time("net.register_op", QuorumSystem, "write")
    requests = rec.spans.setdefault("net.request_broadcast", Span(False))

    def make(original: Any) -> Any:
        def counted(payload: Any, dests: Any = None) -> Any:
            # ops.broadcast also carries each client's goodbye; only the
            # request kinds open or retry a quorum phase.
            if payload[0] in ("qr", "qw"):
                requests.calls += 1
            return original(payload, dests)

        return counted

    rec.patch(ops, "broadcast", make)


def sim_layers(seen: Observed, probe: EngineProbe, bound: float) -> Dict[str, float]:
    """The ``sim.*``/``spec.*``/``net.*`` numbers common to both workloads."""
    rec, records = seen.rec, seen.tracer.records
    snapshot = probe.snapshot()
    layers: Dict[str, float] = {f"sim.{k}": snapshot[k] for k in _PROBE_LAYER}
    layers.update({f"net.{k}": snapshot[k] for k in _NET_LAYER})
    layers["sim.engine_run_s"] = rec.seconds("sim.engine_run")
    layers["sim.spawn_s"] = rec.seconds("sim.spawn")
    layers["sim.memory_s"] = rec.seconds("sim.memory")
    layers["sim.memory_calls"] = rec.calls("sim.memory")
    layers["sim.timing_s"] = rec.seconds("sim.timing")
    layers["spec.check_s"] = rec.seconds("spec.check")
    layers["spec.checks"] = rec.calls("spec.check")
    layers.update(net_layers(rec, snapshot, records, bound))
    metrics = compute_metrics(records)
    occupancy = list(metrics["busy_wait_occupancy"].values())
    layers["core.delay_share"] = statistics.fmean(occupancy) if occupancy else 0.0
    layers.update(seen.host_layers())
    return layers


def net_layers(
    rec: Recorder, stats: Dict[str, int], records: List[Dict[str, Any]], bound: float
) -> Dict[str, float]:
    """Fabric time and per-register-operation ratios of the ABD emulation
    (sim or live).

    A register operation is one ``QuorumSystem.read``/``write``; its
    phases are the tracer's ``phase`` records.  A broadcast of a query or
    update request beyond one per phase is a retransmission.
    """
    register_ops = rec.calls("net.register_op")
    starts: Dict[Any, float] = {}
    spans: Dict[str, List[float]] = {"query": [], "update": []}
    phases = 0
    for record in records:
        if record["kind"] != "phase":
            continue
        key = (record["pid"], record["phase"])
        if record["edge"] == "start":
            phases += 1
            starts[key] = record["t"]
        elif key in starts:
            spans[record["phase"]].append(record["t"] - starts.pop(key))
    op_span = sum(statistics.fmean(v) for v in spans.values() if v)
    requests = rec.calls("net.request_broadcast")
    return {
        "net.msgs_per_register_op": (
            stats["messages_sent"] / register_ops if register_ops else 0.0
        ),
        "net.rtts_per_register_op": (
            stats["quorum_rtts"] / register_ops if register_ops else 0.0
        ),
        "net.register_op_deltas": op_span / bound,
        "net.retransmits": max(0, requests - phases),
        "net.transport_send_s": rec.seconds("net.transport_send"),
        "net.transport_collect_s": rec.seconds("net.transport_collect"),
        "net.transport_calls": (
            rec.calls("net.transport_send") + rec.calls("net.transport_collect")
        ),
    }


# ---------------------------------------------------------------------------
# sim_registers
# ---------------------------------------------------------------------------


def run_sim_registers(ctx: Context, out: Outcome) -> None:
    n = 8
    consensus_runs, sessions = (60, 12) if not ctx.smoke else (20, 4)
    rng = random.Random(f"ledger:sim_registers:{ctx.seed}")
    cases = [
        ([rng.randrange(2) for _ in range(n)], rng.getrandbits(32), rng.getrandbits(32))
        for _ in range(consensus_runs)
    ]
    mutex_seeds = (rng.getrandbits(32), rng.getrandbits(32))
    if ctx.ready():
        return

    def one_pass(traced: bool) -> Pass:
        probe = EngineProbe()
        errors: List[str] = []
        with probe_scope(probe), observe(traced) as seen:
            if seen is not None:
                install_sim_spans(seen.rec)
            started = perf_counter()
            results = [
                run_consensus(
                    inputs,
                    delta=DELTA,
                    timing=UniformTiming(0.2 * DELTA, DELTA, seed=timing_seed),
                    tie_break=RandomTieBreak(seed=tie_seed),
                )
                for inputs, timing_seed, tie_seed in cases
            ]
            lock = default_time_resilient_mutex(
                n, delta=DELTA, namespace=RegisterNamespace(("ledger", "alg3"))
            )
            engine = Engine(
                delta=DELTA,
                timing=UniformTiming(0.2 * DELTA, DELTA, seed=mutex_seeds[0]),
                tie_break=RandomTieBreak(seed=mutex_seeds[1]),
            )
            for pid in range(n):
                engine.spawn(
                    mutex_session(lock, pid, sessions=sessions,
                                  cs_duration=0.5 * DELTA, ncs_duration=0.5 * DELTA),
                    pid=pid,
                )
            mutex_run = engine.run()
            verdict = spec.check_mutex(mutex_run.trace)
            wall = perf_counter() - started
        for index, result in enumerate(results):
            if not (result.run.completed and result.verdict.ok):
                errors.append(f"consensus case {index}: {result.verdict!r}")
        if not (mutex_run.completed and verdict.ok):
            errors.append(f"algorithm 3: {mutex_run.status} {verdict!r}")
        counts = dict(probe.snapshot())
        layers: Dict[str, float] = {}
        if seen is not None:
            layers = sim_layers(seen, probe, DELTA)
            layers.update(_core_layers(results, mutex_run.trace))
        return Pass(wall, probe.events, counts, len(results) + 1, errors, layers)

    passes = run_passes(ctx, out, one_pass)
    _finish(out, passes)


def _core_layers(results: List[Any], mutex_trace: Any) -> Dict[str, float]:
    """Model-time statistics of Algorithms 1 and 3, in units of Δ."""
    decide = [
        max(t for t, _ in result.run.trace.decisions().values()) / DELTA
        for result in results
    ]
    entries = mutex_trace.entry_spans()
    delays: Dict[int, List[float]] = {}
    for event in mutex_trace:
        if event.kind == EventKind.DELAY:
            delays.setdefault(event.pid, []).append(event.issued)
    fast = 0
    for pid, start, end in entries:
        # The fast path crosses the doorway once: one delay(Δ) per entry.
        if sum(1 for t in delays.get(pid, ()) if start <= t < end) == 1:
            fast += 1
    return {
        "core.alg1_decide_deltas": statistics.fmean(decide),
        "core.alg3_entry_deltas": statistics.fmean(
            (end - start) / DELTA for _, start, end in entries
        ),
        "core.alg3_fastpath_share": fast / len(entries),
    }


# ---------------------------------------------------------------------------
# sim_net
# ---------------------------------------------------------------------------


def _abd_client(register: Register, pid: int, rounds: int) -> Any:
    """Write a value no other operation writes, then read; labelled for
    the linearizability checker."""
    for index in range(rounds):
        value = pid * 1_000_000 + index + 1
        yield ops.label(spec.INVOKE, (register.name, "write", (value,)))
        yield register.write(value)
        yield ops.label(spec.RESPOND, (register.name, None))
        yield ops.label(spec.INVOKE, (register.name, "read", ()))
        got = yield register.read()
        yield ops.label(spec.RESPOND, (register.name, got))


def run_sim_net(ctx: Context, out: Outcome) -> None:
    clients, replicas = 4, 5
    abd_runs, rounds, cycles, grants = (2, 25, 2, 50) if not ctx.smoke else (1, 8, 1, 8)
    rng = random.Random(f"ledger:sim_net:{ctx.seed}")
    abd_seeds = [rng.getrandbits(32) for _ in range(abd_runs)]
    churn_seed = rng.getrandbits(32)
    first_pass = True
    if ctx.ready():
        return

    def one_pass(traced: bool) -> Pass:
        nonlocal first_pass
        probe = EngineProbe()
        errors: List[str] = []
        with probe_scope(probe), observe(traced) as seen:
            if seen is not None:
                install_sim_spans(seen.rec)
                install_net_spans(seen.rec)
            started = perf_counter()
            abd = []
            for seed in abd_seeds:
                register = Register(("ledger", "abd"), 0)
                system = QuorumSystem(
                    clients=clients, replicas=replicas, bound=DELTA, seed=seed
                )
                result = system.run(
                    [_abd_client(register, pid, rounds) for pid in range(clients)]
                )
                abd.append((register, result))
            try:
                churn = churn_module.lease_churn_sim(
                    shards=4, keepers_per_shard=2, cycles=cycles,
                    grants_per_cycle=grants, seed=churn_seed,
                )
            except AssertionError as exc:  # the workload asserts its own safety
                churn = None
                errors.append(f"lease churn: {exc}")
            wall = perf_counter() - started
        for index, (register, result) in enumerate(abd):
            if not result.completed:
                errors.append(f"abd run {index}: {result.status}")
            elif first_pass:
                # Identical counters mean identical executions, so the
                # (superlinear) linearizability check runs on the first
                # pass only, outside every timed pass.
                history = spec.history_from_trace(result.trace, obj=register.name)
                check = spec.check_linearizability(
                    history, spec.RegisterModel(initial=register.initial)
                )
                if not check.ok:
                    errors.append(f"abd run {index}: history not linearizable")
        first_pass = False
        counts = dict(probe.snapshot())
        if churn is not None:
            counts.update({f"churn_{k}": v for k, v in churn.items()})
        layers: Dict[str, float] = {}
        if seen is not None:
            layers = sim_layers(seen, probe, DELTA)
        return Pass(wall, probe.events, counts, len(abd) + 1, errors, layers)

    passes = run_passes(ctx, out, one_pass)
    _finish(out, passes)


def _finish(out: Outcome, passes: Dict[str, List[Pass]]) -> None:
    plain = passes["plain"]
    out.e2e["events_per_s"] = statistics.median(p.units / p.norm_s for p in plain)
    out.info["events_per_wall_s"] = statistics.median(p.units / p.wall_s for p in plain)
    if passes["traced"]:
        out.layers["sim.ns_per_event"] = 1e9 / out.e2e["events_per_s"]
