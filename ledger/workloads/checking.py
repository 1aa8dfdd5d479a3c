"""The checker workloads: ``campaign`` (fuzz + chaos + shrink) and ``explore``.

Both run on ``repro.verify.Sandbox``, the untimed interpreter, so the
engine probe sees nothing; their exact counts come from the campaign
reports and the exploration result.
"""

from __future__ import annotations

import statistics
from importlib import import_module
from time import perf_counter
from typing import Any, Dict, List

import repro.chaos.runner as chaos_runner
import repro.chaos.shrink as chaos_shrink
import repro.parallel as parallel
from repro.algorithms import mutex_session
from repro.chaos import monitors as chaos_monitors
from repro.chaos import sample_sim_campaign, sim_target
from repro.core.mutex import default_time_resilient_mutex
from repro.sim.registers import RegisterNamespace
from repro.verify import MutualExclusionProperty, Sandbox, explore, properties

from harness import Context, Outcome, Pass, observe, run_passes
from spans import Recorder

# ``repro.verify.fuzz`` the attribute is the function; the module it
# shadows is where the shard worker's global lookup of ``fuzz`` happens.
fuzz_module = import_module("repro.verify.fuzz")

FUZZ_TARGETS = ("fischer_n3", "alg3_n4", "consensus_n4")
FUZZ_SHARDS = 4


def install_verify_spans(rec: Recorder) -> None:
    """Wrap the sandbox and the safety-property boundary."""
    rec.time("verify.sandbox_init", Sandbox, "__init__")
    rec.time("verify.step", Sandbox, "step")
    rec.time("verify.fingerprint", Sandbox, "fingerprint")
    for name in ("MutualExclusionProperty", "AgreementProperty", "ValidityProperty"):
        rec.time("verify.property", getattr(properties, name), "check")


def verify_layers(rec: Recorder) -> Dict[str, float]:
    steps = rec.calls("verify.step")
    return {
        "verify.sandbox_builds": rec.calls("verify.sandbox_init"),
        "verify.sandbox_init_s": rec.seconds("verify.sandbox_init"),
        "verify.steps": steps,
        "verify.step_s": rec.seconds("verify.step"),
        "verify.ns_per_step": 1e3 * rec.mean_us("verify.step"),
        "verify.fingerprint_s": rec.seconds("verify.fingerprint"),
        "verify.property_s": rec.seconds("verify.property"),
    }


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------


def fuzz_shard(shard: Any, payload: Any) -> Any:
    """Shard worker: one target's slice of the fuzz run-index range."""
    name, seed = payload
    target = sim_target(name)
    factories, safety, _registers = target.build()
    return fuzz_module.fuzz(
        factories,
        safety,
        schedules=shard.count,
        max_ops=target.max_ops,
        seed=seed,
        stop_at_first_violation=False,
        first_index=shard.start,
    )


def run_campaign(ctx: Context, out: Outcome) -> None:
    fuzz_schedules, chaos_schedules = (200, 40) if not ctx.smoke else (40, 8)
    alg3 = sim_target("alg3_n4")
    fischer = sim_target("fischer_n3")
    clean_plan = sample_sim_campaign(
        f"ledger:{ctx.seed}:clean", pids=alg3.pids, windows=6
    )
    hunt_plan = sample_sim_campaign(
        f"ledger:{ctx.seed}:hunt", pids=fischer.pids, windows=6
    )
    first_pass = True
    if ctx.ready():
        return

    def hunt_and_shrink(errors: List[str]) -> Dict[str, int]:
        """The Fischer leg: a violation must be found, and must shrink.

        It runs outside the timed part of a pass.  How many executions a
        shrink takes depends on the seed (29 to 89 were seen) and each
        costs a fifth of a fuzz schedule, so counting them into a short
        pass would make ``schedules_per_s`` follow the seed, not the code.
        """
        hunt = chaos_runner.run_sim_campaign(fischer, hunt_plan, schedules=200)
        shrunk = None
        if hunt.failing is None:
            errors.append("chaos fischer_n3: no violation found")
        else:
            shrunk = chaos_shrink.shrink_sim(
                fischer, hunt_plan, hunt.failing.schedule,
                monitor="mutual_exclusion",
            )
            if shrunk is None or len(shrunk.payload) > len(hunt.failing.schedule):
                errors.append("chaos fischer_n3: violation did not shrink")
        return {
            "hunt_schedules_run": hunt.schedules_run,
            "hunt_total_steps": hunt.total_steps,
            "shrink_executions": shrunk.executions if shrunk is not None else 0,
            "shrunk_steps": len(shrunk.payload) if shrunk is not None else 0,
        }

    def one_pass(traced: bool) -> Pass:
        nonlocal first_pass
        errors: List[str] = []
        counts: Dict[str, Any] = {}
        leg: Dict[str, int] = {}
        with observe(traced) as seen:
            if seen is not None:
                install_verify_spans(seen.rec)
                _install_campaign_spans(seen.rec)
            started = perf_counter()
            schedules = 0
            shards_made = 0
            with parallel.WorkerPool(1) as pool:
                for offset, name in enumerate(FUZZ_TARGETS):
                    seed = ctx.seed * 16 + offset
                    shards = parallel.make_shards(
                        fuzz_schedules, FUZZ_SHARDS, master_seed=seed
                    )
                    shards_made += len(shards)
                    results = pool.run(fuzz_shard, shards, (name, seed))
                    merged = parallel.merge_fuzz_results([r.value for r in results])
                    schedules += merged.schedules_run
                    counts[f"fuzz_{name}_steps"] = merged.steps_taken
                    counts[f"fuzz_{name}_failures"] = len(merged.failures)
                    found = not merged.ok
                    if found != sim_target(name).expect_violation:
                        errors.append(f"fuzz {name}: violation found={found}")
            clean = chaos_runner.run_sim_campaign(
                alg3, clean_plan, schedules=chaos_schedules
            )
            if not clean.ok:
                errors.append(f"chaos alg3_n4 must stay clean: {clean!r}")
            schedules += clean.schedules_run
            wall = perf_counter() - started
            if traced or first_pass:
                leg = hunt_and_shrink(errors)
        first_pass = False
        counts.update(
            schedules=schedules,
            chaos_schedules_run=clean.schedules_run,
            chaos_total_steps=clean.total_steps,
            parallel_shards=shards_made,
        )
        layers: Dict[str, float] = {}
        if seen is not None:
            rec = seen.rec
            layers = verify_layers(rec)
            layers.update(seen.host_layers())
            layers.update({
                "chaos.schedules_run": clean.schedules_run + leg["hunt_schedules_run"],
                "chaos.total_steps": clean.total_steps + leg["hunt_total_steps"],
                "chaos.shrink_executions": leg["shrink_executions"],
                "chaos.shrunk_steps": leg["shrunk_steps"],
                "chaos.run_sim_s": rec.seconds("chaos.run_sim"),
                "chaos.monitor_s": rec.seconds("chaos.monitor"),
                "chaos.shrink_s": rec.seconds("chaos.shrink"),
                "parallel.shards": shards_made,
                # What the fabric adds around the shards' own fuzzing.
                "parallel.dispatch_s": (
                    rec.seconds("parallel.pool_run") - rec.seconds("verify.fuzz")
                ),
                "parallel.merge_s": rec.seconds("parallel.merge"),
            })
        attempted = schedules + sum(
            leg.get(k, 0) for k in ("hunt_schedules_run", "shrink_executions")
        )
        return Pass(wall, schedules, counts, attempted, errors, layers)

    passes = run_passes(ctx, out, one_pass)
    plain = passes["plain"]
    out.e2e["schedules_per_s"] = statistics.median(p.units / p.norm_s for p in plain)
    out.info["schedules_per_wall_s"] = statistics.median(
        p.units / p.wall_s for p in plain
    )
    if passes["traced"]:
        # Steps of the timed part of a pass, known exactly without wrappers.
        steps = out.counts["chaos_total_steps"] + sum(
            out.counts[f"fuzz_{name}_steps"] for name in FUZZ_TARGETS
        )
        out.layers["verify.steps_per_s"] = steps / statistics.median(
            p.norm_s for p in plain
        )


def _install_campaign_spans(rec: Recorder) -> None:
    rec.time("verify.fuzz", fuzz_module, "fuzz")
    # run_sim is reached through two module globals: the campaign loop's
    # and the shrinker's.
    rec.time("chaos.run_sim", chaos_runner, "run_sim")
    rec.time("chaos.run_sim", chaos_shrink, "run_sim")
    rec.time("chaos.shrink", chaos_shrink, "shrink_sim")
    for name in ("SafetyMonitor", "ConvergenceMonitor"):
        monitor = getattr(chaos_monitors, name)
        rec.time("chaos.monitor", monitor, "on_step")
        rec.time("chaos.monitor", monitor, "finalize")
    rec.time("parallel.pool_run", parallel.WorkerPool, "run")
    rec.time("parallel.merge", parallel, "merge_fuzz_results")


# ---------------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------------


def run_explore(ctx: Context, out: Outcome) -> None:
    max_ops = 14 if not ctx.smoke else 10
    lock = default_time_resilient_mutex(
        2, delta=1.0, namespace=RegisterNamespace(("ledger", "explore"))
    )
    factories = {
        pid: (lambda p: mutex_session(lock, p, sessions=1, cs_duration=1.0))
        for pid in range(2)
    }
    if ctx.ready():
        return

    def one_pass(traced: bool) -> Pass:
        errors: List[str] = []
        with observe(traced) as seen:
            if seen is not None:
                install_verify_spans(seen.rec)
            started = perf_counter()
            result = explore(
                factories,
                [MutualExclusionProperty()],
                max_ops=max_ops,
                stop_at_first_violation=False,
            )
            wall = perf_counter() - started
        if not result.complete:
            errors.append("exploration incomplete")
        if result.violations:
            errors.append(f"{len(result.violations)} Algorithm 3 violations")
        counts = {
            "states": result.states,
            "transitions": result.transitions,
            "max_depth": result.max_depth,
            "terminal_states": result.terminal_states,
        }
        layers: Dict[str, float] = {}
        if seen is not None:
            layers = verify_layers(seen.rec)
            layers.update(seen.host_layers())
            layers.update({
                "verify.states": result.states,
                "verify.transitions": result.transitions,
                "verify.max_depth": result.max_depth,
                # Steps re-executed to rebuild each node's state: the work
                # an incremental explorer would not do.
                "verify.replayed_steps": layers["verify.steps"],
                "verify.replay_ratio": layers["verify.steps"] / result.transitions,
            })
        return Pass(wall, result.states, counts, 1, errors, layers)

    passes = run_passes(ctx, out, one_pass)
    plain = passes["plain"]
    out.e2e["explore_s"] = statistics.median(p.norm_s for p in plain)
    out.info["explore_wall_s"] = statistics.median(p.wall_s for p in plain)
    if passes["traced"]:
        out.layers["verify.states_per_s"] = (
            out.counts["states"] / out.e2e["explore_s"]
        )
        out.layers["verify.steps_per_s"] = (
            out.layers["verify.steps"] / out.e2e["explore_s"]
        )
