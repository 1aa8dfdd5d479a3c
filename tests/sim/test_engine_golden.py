"""Golden traces: the engine's executions are pinned bit for bit.

Each case below is a fixed, seeded set of runs; its digest is a sha256
over ``(seq, pid, kind, issued, completed, register, value, label,
exceeded_delta)`` of every trace event, and its probe block is
``EngineProbe.snapshot()`` over the same runs.  The literals in
``GOLDEN`` were generated at the commit *before* the engine's per-event
overhead was cut (tuple-backed records, op-owned durations, one heap
push per resume), so a change to RNG draw order, heap keys, ``seq``
numbering or any trace field fails here before it fails anywhere else.
The last five cases run experiment drivers (E4, E5, E7, E9 and E1N at
reduced sizes) and hash every engine run each driver makes.

Re-pin (only for a change that is *meant* to alter executions):
``PYTHONPATH=src python tests/sim/test_engine_golden.py``.
"""

import hashlib

import pytest

import repro.serve.workload as churn_module
from repro.algorithms import mutex_session
from repro.analysis import experiments
from repro.core.consensus import TimeResilientConsensus, labeled_decision
from repro.core.mutex import default_time_resilient_mutex
from repro.net import QuorumSystem
from repro.obs.tracer import register_name
from repro.sim import (
    ConstantTiming,
    CrashSchedule,
    Engine,
    FailureWindowTiming,
    HookTiming,
    MemoryFault,
    PidOrderTieBreak,
    RandomTieBreak,
    RecoverSchedule,
    Register,
    UniformTiming,
    failure_window,
    ops,
)
from repro.sim.adversary import stall_step_index
from repro.sim.instrument import EngineProbe, probe_scope
from repro.sim.registers import RegisterNamespace

DELTA = 1.0


def _alg3(n, sessions, timing, tie_break=None, **engine_kwargs):
    lock = default_time_resilient_mutex(
        n, delta=DELTA, namespace=RegisterNamespace(("golden", "alg3"))
    )
    engine = Engine(delta=DELTA, timing=timing, tie_break=tie_break, **engine_kwargs)
    for pid in range(n):
        engine.spawn(
            mutex_session(
                lock, pid, sessions=sessions,
                cs_duration=0.5 * DELTA, ncs_duration=0.5 * DELTA,
            ),
            pid=pid,
        )
    return engine.run().trace


def _consensus(inputs, timing, tie_break, **engine_kwargs):
    # An explicit namespace: the default one numbers itself from a
    # process-wide counter, which would put test order into the digest.
    consensus = TimeResilientConsensus(
        delta=DELTA, namespace=RegisterNamespace(("golden", "alg1"))
    )

    def factory(pid):
        return labeled_decision(consensus.propose(pid, inputs[pid]))

    engine = Engine(delta=DELTA, timing=timing, tie_break=tie_break, **engine_kwargs)
    for pid in range(len(inputs)):
        engine.spawn(factory(pid), pid=pid, factory=factory)
    return engine.run().trace


def consensus_uniform_random():
    return [
        _consensus(
            [(pid + seed) % 2 for pid in range(8)],
            UniformTiming(0.2 * DELTA, DELTA, seed=seed),
            RandomTieBreak(seed=seed + 100),
        )
        for seed in range(5)
    ]


def alg3_uniform_random():
    return [_alg3(8, 6, UniformTiming(0.2 * DELTA, DELTA, seed=5), RandomTieBreak(seed=6))]


def alg3_pid_order():
    return [_alg3(4, 3, ConstantTiming(DELTA), PidOrderTieBreak([3, 1, 0, 2]))]


def alg3_fifo():
    return [_alg3(4, 3, ConstantTiming(DELTA))]


def consensus_crash_recover():
    return [
        _consensus(
            [0, 1, 1, 0],
            UniformTiming(0.2 * DELTA, DELTA, seed=9),
            RandomTieBreak(seed=10),
            crashes=CrashSchedule(at_time={1: 2.25}, after_steps={2: 3}),
            recoveries=RecoverSchedule(at_time={1: 4.0, 2: 6.5}),
        )
    ]


def memory_fault():
    cell = Register(("golden", "cell"), 0)

    def reader(pid):
        seen = []
        for _ in range(12):
            seen.append((yield ops.read(cell)))
            yield ops.write(cell, seen[-1] + 1)
            yield ops.delay(0.25)
        return tuple(seen)

    engine = Engine(
        delta=DELTA,
        timing=UniformTiming(0.2 * DELTA, DELTA, seed=11),
        faults=[MemoryFault(at=3.0, register=cell, value=99)],
    )
    for pid in range(3):
        engine.spawn(reader(pid), pid=pid)
    return [engine.run().trace]


def timing_failure_window():
    timing = HookTiming(
        FailureWindowTiming(
            UniformTiming(0.2 * DELTA, DELTA, seed=12),
            [failure_window(4.0, 9.0, pids=[0, 2], stretch=5.0)],
        ),
        stall_step_index(1, 7, 3.5 * DELTA),
    )
    trace = _alg3(4, 4, timing, RandomTieBreak(seed=13))
    assert trace.timing_failures(), "the window must produce exceeded_delta events"
    return [trace]


def _abd_client(register, pid, rounds):
    for index in range(rounds):
        yield register.write(pid * 1000 + index + 1)
        got = yield register.read()
        yield ops.label("saw", got)


def quorum_system_run():
    register = Register(("golden", "abd"), 0)
    system = QuorumSystem(clients=3, replicas=3, bound=DELTA, seed=14)
    return [system.run([_abd_client(register, pid, 4) for pid in range(3)]).trace]


def lease_churn():
    traces = []
    run = QuorumSystem.run

    def capturing(self, programs):
        result = run(self, programs)
        traces.append(result.trace)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QuorumSystem, "run", capturing)
        churn_module.lease_churn_sim(
            shards=2, keepers_per_shard=2, cycles=1, grants_per_cycle=4, seed=15
        )
    return traces


def _engine_runs(driver, **kwargs):
    """A case: the trace of every ``Engine.run`` an experiment driver makes."""

    def case():
        traces = []
        run = Engine.run

        def capturing(self):
            result = run(self)
            traces.append(result.trace)
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Engine, "run", capturing)
            driver(**kwargs)
        return traces

    return case


CASES = {
    case.__name__: case
    for case in (
        consensus_uniform_random,
        alg3_uniform_random,
        alg3_pid_order,
        alg3_fifo,
        consensus_crash_recover,
        memory_fault,
        timing_failure_window,
        quorum_system_run,
        lease_churn,
    )
}
CASES.update(
    e4_fastpath=_engine_runs(experiments.run_e4),
    e5_scaling=_engine_runs(experiments.run_e5, ns=(2, 8, 32)),
    e7_mutex=_engine_runs(experiments.run_e7, ns=(2, 4), sessions=2),
    e9_space=_engine_runs(experiments.run_e9, n=4),
    e1_net_consensus_n4=_engine_runs(experiments.run_e1_net, ns=(4,), seeds=(0,)),
)

# The experiment drivers build algorithms in default namespaces, which
# number themselves from a process-wide counter; their register field is
# hashed through ``register_name``, which drops that number.  The earlier
# cases hash the raw field, as they did when they were pinned.
RENDER_REGISTER = frozenset({"e4_fastpath", "e5_scaling", "e7_mutex", "e9_space"})


def measure(name):
    """``(sha256 over every field of every event, probe counters)`` of a case."""
    probe = EngineProbe()
    with probe_scope(probe):
        traces = CASES[name]()
    render = register_name if name in RENDER_REGISTER else (lambda register: register)
    digest = hashlib.sha256()
    for trace in traces:
        for e in trace:
            digest.update(
                repr(
                    (e.seq, e.pid, e.kind, e.issued, e.completed, render(e.register),
                     e.value, e.label, e.exceeded_delta)
                ).encode()
            )
        digest.update(b"|")
    return digest.hexdigest(), tuple(probe.snapshot().values())


# name -> (digest, EngineProbe.snapshot() values in slot order: runs, events,
# heap_pushes, ops_linearized, shared_steps, trace_events, reads, writes, rmws,
# registers_touched, messages_sent, messages_delivered, messages_dropped,
# quorum_rtts).  A ``None`` digest pins the counters only: E1N's message
# payloads carry the namespace counter, which no rendering reaches.
GOLDEN = {
    "consensus_uniform_random": (
        "5c3f7929e1fda9a264f686425da6333e4331217d18fb2991c495312aef320dcd",
        (5, 554, 554, 554, 474, 594, 320, 154, 0, 35, 0, 0, 0, 0),
    ),
    "alg3_uniform_random": (
        "1fd3042046f0cb34329e54823d25d31756a70f33c2fb31b1ca5bcd3b948497c4",
        (1, 5799, 5799, 5983, 5489, 5991, 4899, 590, 0, 21, 0, 0, 0, 0),
    ),
    "alg3_pid_order": (
        "636c36c636e436d3d2a23985f068c26f899f422e2c69561304d0bd81dd262051",
        (1, 608, 608, 652, 552, 656, 428, 124, 0, 13, 0, 0, 0, 0),
    ),
    "alg3_fifo": (
        "fff538f7676a16d7c0c1bdcea3f899258e59c678f4894f72f6ce68f55f585c75",
        (1, 627, 627, 671, 573, 675, 451, 122, 0, 13, 0, 0, 0, 0),
    ),
    "consensus_crash_recover": (
        "6c64374db58d26274fbf27200b8937f33cc863f4618e729463ea8d6a7d78fbf2",
        (1, 57, 57, 53, 45, 61, 30, 15, 0, 7, 0, 0, 0, 0),
    ),
    "memory_fault": (
        "07c0cbb7e8d24875f44b3aa98c77bac08487f6c8ab38ca6e03013343d8197a39",
        (1, 112, 112, 108, 72, 112, 36, 36, 0, 1, 0, 0, 0, 0),
    ),
    "timing_failure_window": (
        "5f5495615095e1570cbfded84d8afeb9c7ea4d6a5993acfb501b2869dc045d46",
        (1, 983, 983, 1043, 914, 1047, 753, 161, 0, 13, 0, 0, 0, 0),
    ),
    "quorum_system_run": (
        "67c4654d5636ee287d8a088498f2e044f731db07ded7e815417a5e79dbaa09bd",
        (1, 1190, 1190, 1196, 0, 1202, 0, 0, 0, 0, 297, 296, 0, 48),
    ),
    "lease_churn": (
        "e32c1532c495fc2674f007a5545bc9f41c9e5aeaa4dbc4ce636276dd04d946a7",
        (1, 5692, 5692, 5693, 0, 5700, 0, 0, 0, 0, 1356, 1353, 0, 224),
    ),
    "e4_fastpath": (
        "d320f013d1d992764280b651ffb6601301210f79133a7df4f1a515c8e2512fa8",
        (4, 58, 58, 58, 50, 66, 29, 21, 0, 16, 0, 0, 0, 0),
    ),
    "e5_scaling": (
        "2c544a8517b4e623bd9447097afa7b851848d2be95e08a9c13b883358eae8b3d",
        (3, 630, 630, 630, 546, 672, 336, 210, 0, 21, 0, 0, 0, 0),
    ),
    "e7_mutex": (
        "67035c9342958c0e414cd099bd657acd8887ea940d56cf5661e2af2f735617b0",
        (12, 1817, 1817, 2069, 1583, 2105, 1133, 450, 0, 68, 0, 0, 0, 0),
    ),
    "e9_space": (
        "ec35dacc41010334d6fdc6bbeb620edb3e47a7c822c519455aa99285610738ab",
        (6, 1382, 1382, 1550, 1224, 1574, 835, 389, 0, 49, 0, 0, 0, 0),
    ),
    "e1_net_consensus_n4": (
        None,
        (1, 2336, 2336, 2333, 0, 2340, 0, 0, 0, 0, 624, 620, 0, 102),
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_execution_is_bit_identical_to_the_pinned_one(name):
    digest, counters = measure(name)
    pinned_digest, pinned_counters = GOLDEN[name]
    assert counters == pinned_counters
    if pinned_digest is not None:
        assert digest == pinned_digest


if __name__ == "__main__":  # pragma: no cover - re-pinning aid
    for case_name in CASES:
        print(f"    {case_name!r}: {measure(case_name)!r},")
