"""CLI for the live lease service: ``python -m repro.serve <command>``.

Commands
--------

``demo``
    A narrated small run: start the service on loopback, push a burst of
    clients through it, print the lease ledger and the trace-mined
    metrics.  The live twin of ``examples/replicated_lock_service.py``.

``run``
    Start the service and let the keepers idle-serve for ``--duration``
    seconds (no generated load) — a lifecycle / warmup check.

``load``
    The acceptance workload: seeded open-loop Poisson load
    (``--clients`` sessions over ``--duration`` seconds) against a fresh
    service.  Prints a JSON document with the latency percentiles,
    throughput, lease counters, the timing failures the substrate counted
    as they happened (``service.timing_failures``: deliveries over the
    bound, the worst excess, per link), obs metrics registry and
    timeliness mining; exits non-zero if any mutual-exclusion / fencing
    violation was detected (always) or the p99 exceeds ``--max-p99``
    (when given).

``sim``
    The identical keeper workload on the simulated substrate —
    deterministic counters, byte-equal across runs with one seed.  It
    takes the topology flags and ``--seed`` only: the sim sizes its own
    block and delivery bound, so ``--bound`` and ``--block`` are usage
    errors there.

Results flow through :mod:`repro.obs`: the whole run executes inside a
``trace_scope``, and the report embeds ``compute_metrics`` over the live
trace records plus ``mine_timeliness`` over the measured wire delays.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import sys
from typing import Any, Callable, Dict, Optional

from repro.obs.metrics import compute_metrics
from repro.obs.timeliness import mine_timeliness
from repro.obs.tracer import Tracer, trace_scope

from .loadgen import LoadGenerator
from .service import LeaseService
from .workload import lease_churn_sim


def _in_range(convert: Callable[[str], Any], zero: bool) -> Callable[[str], Any]:
    """An argparse ``type`` for a count or a duration: finite and > 0
    (or ≥ 0 with ``zero``)."""
    low = "non-negative" if zero else "positive"

    def parse(text: str) -> Any:
        value = convert(text)
        above = 0 <= value if zero else 0 < value
        if not (above and value < math.inf):
            raise argparse.ArgumentTypeError(f"must be {low} and finite, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse: "invalid int value: 'x'"
    return parse


_count = _in_range(int, zero=False)
_seconds = _in_range(float, zero=False)
_amount = _in_range(int, zero=True)
_span = _in_range(float, zero=True)


def _topology_args(parser: argparse.ArgumentParser) -> None:
    """The flags both substrates read: the service's shape and seed."""
    parser.add_argument("--shards", type=_count, default=4, help="lease namespaces")
    parser.add_argument(
        "--keepers",
        type=_count,
        default=1,
        help="keeper processes per shard: one active, the rest passive "
        "standbys that send nothing until they suspect it",
    )
    parser.add_argument("--replicas", type=_count, default=3, help="register replicas")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")


def _service_args(parser: argparse.ArgumentParser) -> None:
    """The live service's flags: its topology, delivery bound and block."""
    _topology_args(parser)
    parser.add_argument(
        "--bound", type=_seconds, default=0.02, help="assumed delivery bound (s)"
    )
    parser.add_argument(
        "--block",
        type=_amount,
        default=0,
        help="fencing tokens per refill (0 = size for the offered load)",
    )


def _auto_block(clients: int, duration: float, shards: int) -> int:
    # A shard refill takes ~0.16 s at the default bound (the supply math
    # in LeaseService's docstring).  The keeper starts one when half a
    # block is left, ~0.35 s of this shard's share of the offered rate at
    # a block worth ~0.7 s: about two refill cycles of headroom.  The new
    # block extends the pool, so every refill buys a whole block.
    rate = clients / duration
    return max(1024, int(0.7 * rate / shards) + 1)


async def _run_service(args: argparse.Namespace, tracer: Optional[Tracer]):
    block = args.block or _auto_block(
        getattr(args, "clients", 1000),
        getattr(args, "duration", 10.0),
        args.shards,
    )
    service = LeaseService(
        shards=args.shards,
        keepers_per_shard=args.keepers,
        replicas=args.replicas,
        bound=args.bound,
        seed=args.seed,
        block=block,
        tracer=tracer,
    )
    await service.start()
    return service


def _obs_report(tracer: Tracer, bound: float) -> Dict[str, Any]:
    records = tracer.take()
    return {
        "metrics": compute_metrics(records),
        "timeliness": mine_timeliness(records, substrate="net", delta=bound),
    }


def _emit(document: Dict[str, Any], path: Optional[str]) -> None:
    text = json.dumps(document, indent=2, sort_keys=True, default=str)
    print(text)
    if path:
        with open(path, "w") as handle:
            handle.write(text + "\n")


def _finish(document: Dict[str, Any], args: argparse.Namespace) -> int:
    _emit(document, getattr(args, "json", None))
    violations = document.get("violations", [])
    if violations:
        print(f"FAIL: {len(violations)} safety violations", file=sys.stderr)
        return 1
    max_p99 = getattr(args, "max_p99", None)
    p99 = document.get("load", {}).get("latency", {}).get("p99")
    if max_p99 is not None and p99 is not None and p99 > max_p99:
        print(f"FAIL: p99 {p99:.4f}s exceeds ceiling {max_p99}s", file=sys.stderr)
        return 1
    return 0


def cmd_load(args: argparse.Namespace) -> int:
    tracer = Tracer()

    async def body() -> Dict[str, Any]:
        service = await _run_service(args, tracer)
        generator = LoadGenerator(
            service,
            clients=args.clients,
            duration=args.duration,
            seed=args.seed,
            keyspace=args.keyspace,
            ttl=args.ttl,
            hold=args.hold,
            timeout=args.timeout,
            max_inflight=args.max_inflight,
        )
        report = await generator.run()
        await service.close()
        return {
            "command": "load",
            "load": report,
            "service": service.summary(),
            "violations": service.verify(),
        }

    with trace_scope(tracer):
        document = asyncio.run(body())
    document["obs"] = _obs_report(tracer, args.bound)
    return _finish(document, args)


def cmd_run(args: argparse.Namespace) -> int:
    tracer = Tracer()

    async def body() -> Dict[str, Any]:
        service = await _run_service(args, tracer)
        await asyncio.sleep(args.duration)
        await service.close()
        return {
            "command": "run",
            "service": service.summary(),
            "violations": service.verify(),
        }

    with trace_scope(tracer):
        document = asyncio.run(body())
    document["obs"] = _obs_report(tracer, args.bound)
    return _finish(document, args)


def cmd_demo(args: argparse.Namespace) -> int:
    print("repro.serve demo — Algorithm 3 + ABD registers on live loopback")
    print(f"  {args.shards} shards x {args.keepers} keeper(s), "
          f"{args.replicas} replicas, bound {args.bound}s")
    tracer = Tracer()

    async def body() -> Dict[str, Any]:
        service = await _run_service(args, tracer)
        print("  service warm: token pools filled through the quorum")
        generator = LoadGenerator(
            service,
            clients=args.clients,
            duration=args.duration,
            seed=args.seed,
            keyspace=64,
        )
        report = await generator.run()
        await service.close()
        return {"load": report, "service": service.summary(),
                "violations": service.verify()}

    with trace_scope(tracer):
        document = asyncio.run(body())
    load = document["load"]
    latency = load["latency"]

    def fmt(value: Optional[float]) -> str:
        return "-" if value is None else f"{1000 * value:.1f}ms"

    print(f"  sessions: {load['granted']} granted, {load['timeouts']} timed out, "
          f"{load['released']} released")
    print(f"  latency: p50 {fmt(latency['p50'])}  p95 {fmt(latency['p95'])}  "
          f"p99 {fmt(latency['p99'])}")
    print(f"  throughput: {load['throughput']:.0f} leases/s")
    counters = document["service"]["counters"]
    print(f"  fencing tokens reserved: {counters['tokens_reserved']} "
          f"across {counters['refills']} quorum refills")
    violations = document["violations"]
    print(f"  safety violations: {len(violations)}")
    obs = _obs_report(tracer, args.bound)
    timely = obs["timeliness"].get("links", {})
    measured = [v["max_delay"] for v in timely.values() if v.get("max_delay")]
    if measured:
        print(f"  measured wire delay max: {1000 * max(measured):.2f}ms "
              f"(assumed bound {1000 * args.bound:.0f}ms)")
    return 1 if violations else 0


def cmd_sim(args: argparse.Namespace) -> int:
    counters = lease_churn_sim(
        shards=args.shards,
        keepers_per_shard=args.keepers,
        replicas=args.replicas,
        seed=args.seed,
        cycles=args.cycles,
        grants_per_cycle=args.grants,
    )
    _emit({"command": "sim", "counters": counters}, getattr(args, "json", None))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="timing-resilient replicated lock/lease service",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    load = sub.add_parser("load", help="seeded open-loop load run (the benchmark)")
    _service_args(load)
    load.add_argument("--clients", type=_count, default=10_000)
    load.add_argument("--duration", type=_seconds, default=10.0)
    load.add_argument("--keyspace", type=_count, default=1024)
    load.add_argument("--ttl", type=_seconds, default=None, help="lease ttl (s)")
    load.add_argument("--hold", type=_span, default=0.0, help="hold time (s)")
    load.add_argument("--timeout", type=_seconds, default=2.0, help="acquire timeout")
    load.add_argument("--max-inflight", type=_count, default=50_000)
    load.add_argument("--json", default=None, help="also write the report here")
    load.add_argument(
        "--max-p99", type=_seconds, default=None, help="fail if p99 exceeds this (s)"
    )
    load.set_defaults(fn=cmd_load)

    run = sub.add_parser("run", help="start the service, idle, shut down")
    _service_args(run)
    run.add_argument("--duration", type=_seconds, default=5.0)
    run.add_argument("--json", default=None)
    run.set_defaults(fn=cmd_run)

    demo = sub.add_parser("demo", help="narrated small live run")
    _service_args(demo)
    demo.add_argument("--clients", type=_count, default=500)
    demo.add_argument("--duration", type=_seconds, default=2.0)
    demo.set_defaults(fn=cmd_demo)

    sim = sub.add_parser("sim", help="same keeper workload, sim substrate")
    _topology_args(sim)
    sim.add_argument("--cycles", type=_count, default=2)
    sim.add_argument("--grants", type=_count, default=4)
    sim.add_argument("--json", default=None)
    sim.set_defaults(fn=cmd_sim)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
