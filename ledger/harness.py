"""What every workload shares: the run context, the outcome, the pass loop
and the host observers.

A workload is a function ``run(ctx, out)``.  It builds its inputs from
``ctx.seed``, calls ``ctx.ready()`` when set-up is complete (the next
statement is the first timed operation), measures for ``ctx.seconds``
seconds, checks its own outputs through ``out.check`` and fills
``out.e2e`` (tracing off) or ``out.layers`` (``ctx.traced``).
"""

from __future__ import annotations

import asyncio
import gc
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from spans import Recorder

__all__ = [
    "Context",
    "GcWatch",
    "LoopLag",
    "Observed",
    "Outcome",
    "Pass",
    "calibrate",
    "observe",
    "percentile",
    "run_passes",
]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass
class Context:
    """The arguments of one run."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    smoke: bool
    setup_only: bool
    spawned_at: float  # time.time() in the parent just before the spawn
    setup_s: Optional[float] = None  # wall, spawn to first timed operation
    setup_cpu_s: float = 0.0  # processor time of that wall (the rest waits)
    setup_kernel_s: float = 0.0  # the calibration kernel, timed right after

    def ready(self) -> bool:
        """Mark the end of set-up; true when the run should stop here."""
        if self.setup_s is None:
            self.setup_s = time.time() - self.spawned_at
            self.setup_cpu_s = time.process_time()
            self.setup_kernel_s = calibrate()
        return self.setup_only


@dataclass
class Outcome:
    """What one run measured and whether its outputs were correct."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    window_s: float = 0.0
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    # Exact counters available without wrappers; on a deterministic
    # workload they must repeat across repetitions of one seed.
    counts: Dict[str, Any] = field(default_factory=dict)
    info: Dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        """A correctness check; a failed one is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)


# ---------------------------------------------------------------------------
# The pass loop of the deterministic workloads.
# ---------------------------------------------------------------------------


# The calibration kernel: a fixed piece of interpreter-bound work timed
# before and after every pass.  This sandbox's host speed wanders by a
# quarter over seconds to minutes (a fixed exhaustive exploration read
# 6.1 s to 9.7 s on one commit), which no amount of repetition inside a
# run averages out.  A pass's wall time is therefore scaled by how fast
# the kernel ran around it: ``norm_s`` is the time the pass would have
# taken had the kernel taken ``CALIBRATION_REFERENCE_S``.  The reference
# is the kernel's time on the quiet box the workloads were sized on, so
# on a quiet box ``norm_s`` is ``wall_s``.
CALIBRATION_LOOPS = 200_000
CALIBRATION_REFERENCE_S = 0.025


def calibrate() -> float:
    """Time the calibration kernel once (seconds)."""
    started = perf_counter()
    total = 0
    table: Dict[int, int] = {}
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
        table[i & 1023] = total
    return perf_counter() - started


@dataclass
class Pass:
    """One execution of a workload's fixed work list."""

    wall_s: float
    units: float  # events, schedules: the numerator of the rate
    counts: Dict[str, Any]
    attempted: int
    errors: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    norm_s: float = 0.0  # wall_s at the reference host speed; set by run_passes


def run_passes(
    ctx: Context,
    out: Outcome,
    one_pass: Callable[[bool], Pass],
) -> Dict[str, List[Pass]]:
    """Repeat the fixed work list for as many passes as fit in ``ctx.seconds``.

    Every pass does identical seeded work, so its exact counts must equal
    the first pass's: that is both the determinism check and the reason
    the median over passes is a fair summary.  The first pass warms the
    interpreter up and is not timed into the result (in-process drift of
    ten percent between a first and a later pass was observed).  A traced
    run alternates plain and traced passes, which pairs them in time for
    the overhead figure.  The calibration kernel runs between passes and
    the collector after each, so a pass pays neither for the host's mood
    nor for its predecessor's garbage.  At least one pass of each kind
    runs however long it takes; the rest of the window, shorter than a
    pass, is slept away so that every run measures for the same time.
    """
    begin = perf_counter()
    every: List[Pass] = [one_pass(False)]
    plain: List[Pass] = []
    traced: List[Pass] = []
    kernel_s = [calibrate()]

    def timed(traced_pass: bool) -> Pass:
        gc.collect()
        done = one_pass(traced_pass)
        kernel_s.append(calibrate())
        around = (kernel_s[-2] + kernel_s[-1]) / 2.0
        done.norm_s = done.wall_s * CALIBRATION_REFERENCE_S / around
        return done

    while True:
        started = perf_counter()
        plain.append(timed(False))
        if ctx.traced:
            traced.append(timed(True))
        now = perf_counter()
        if (now - begin) + (now - started) > ctx.seconds:
            break
    time.sleep(max(0.0, ctx.seconds - (perf_counter() - begin)))
    out.window_s = perf_counter() - begin
    every += plain + traced
    reference = every[0].counts
    for index, done in enumerate(every):
        out.attempted += done.attempted
        out.failed += len(done.errors)
        out.errors.extend(done.errors[: 20 - len(out.errors)])
        out.check(
            done.counts == reference,
            f"pass {index} counts differ from pass 0: "
            f"{_diff(reference, done.counts)}",
        )
    out.counts = dict(reference)
    out.info["passes"] = len(plain)
    out.info["pass_wall_s_median"] = statistics.median(p.wall_s for p in plain)
    out.info["host_speed"] = CALIBRATION_REFERENCE_S / statistics.median(kernel_s)
    if traced:
        for name in traced[0].layers:
            out.layers[name] = statistics.median(p.layers[name] for p in traced)
        out.layers["obs.trace_overhead_pct"] = 100.0 * (
            statistics.median(p.norm_s for p in traced)
            / statistics.median(p.norm_s for p in plain)
            - 1.0
        )
    return {"plain": plain, "traced": traced}


def _diff(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return ", ".join(f"{k}: {a.get(k)} != {b.get(k)}" for k in keys[:6])


# ---------------------------------------------------------------------------
# Host observers (traced repetitions only).
# ---------------------------------------------------------------------------


class LoopLag:
    """A 5 ms heartbeat on the event loop; its overshoot is the loop's lag."""

    INTERVAL = 0.005

    def __init__(self) -> None:
        self.overshoot_ms: List[float] = []
        self._task: Optional["asyncio.Task"] = None

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._beat())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def _beat(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            due = loop.time() + self.INTERVAL
            await asyncio.sleep(self.INTERVAL)
            self.overshoot_ms.append(1e3 * (loop.time() - due))

    def p99_ms(self) -> float:
        return percentile(sorted(self.overshoot_ms), 99)


class GcWatch:
    """Collector pauses through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_ms = 0.0
        self.gen2_runs = 0
        self._started = 0.0

    def _callback(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = perf_counter()
        else:
            self.pause_ms += 1e3 * (perf_counter() - self._started)
            if info.get("generation") == 2:
                self.gen2_runs += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        gc.callbacks.remove(self._callback)


@dataclass
class Observed:
    """The instruments of one traced pass or phase."""

    rec: Recorder
    tracer: Any  # repro.obs.Tracer
    watch: GcWatch

    def host_layers(self) -> Dict[str, float]:
        return {
            "obs.trace_records": len(self.tracer.records),
            "host.gc_pause_total_ms": self.watch.pause_ms,
            "host.gc_gen2_runs": self.watch.gen2_runs,
        }


@contextmanager
def observe(traced: bool) -> Iterator[Optional[Observed]]:
    """Nothing when untraced; else an ambient tracer, a recorder whose
    wrappers are removed on exit, and a collector watch."""
    if not traced:
        yield None
        return
    from repro.obs import Tracer, trace_scope

    seen = Observed(Recorder(), Tracer(), GcWatch())
    with trace_scope(seen.tracer), seen.rec, seen.watch:
        yield seen
