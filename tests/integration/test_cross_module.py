"""Cross-module integration: the same algorithm objects driven through
all three interpreters, end-to-end pipelines combining several
subsystems, and the public API surface."""

import asyncio

import pytest

import repro
from repro import run_consensus
from repro.algorithms import FischerLock, mutex_session
from repro.core.consensus import TimeResilientConsensus, labeled_decision
from repro.core.derived import Universal
from repro.core.mutex import default_time_resilient_mutex
from repro.core.resilience import check_resilience
from repro.serve import AsyncioDriver
from repro.sim import (
    ConstantTiming,
    Engine,
    FailureWindowTiming,
    failure_window,
)
from repro.sim.registers import Memory
from repro.spec import (
    QueueModel,
    check_linearizability,
    check_mutex,
    history_from_trace,
)
from repro.verify import MutualExclusionProperty, explore


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_top_level_exports(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_run_consensus_from_top_level(self):
        result = repro.run_consensus([0, 1], delta=1.0,
                                     timing=ConstantTiming(0.5))
        assert result.agreed


class TestSameAlgorithmThreeExecutors:
    """One consensus object definition; simulator, checker, wall clock."""

    def _factories(self, consensus, inputs):
        return {
            pid: (lambda p: labeled_decision(consensus.propose(p, inputs[p])))
            for pid in inputs
        }

    def test_simulator(self):
        result = run_consensus([0, 1], delta=1.0, timing=ConstantTiming(0.5))
        assert result.verdict.ok

    def test_model_checker(self):
        consensus = TimeResilientConsensus(delta=1.0, max_rounds=2)
        from repro.verify import AgreementProperty

        res = explore(self._factories(consensus, {0: 0, 1: 1}),
                      [AgreementProperty()], max_ops=26)
        assert res.ok

    def test_threads(self):
        consensus = TimeResilientConsensus(delta=1.0)

        async def body():
            driver = AsyncioDriver(memory=Memory(), time_scale=1e-3)
            for pid, v in enumerate([0, 1]):
                driver.spawn(consensus.propose(pid, v), pid=pid)
            return await asyncio.wait_for(driver.wait(), 30.0)

        returns = asyncio.run(body())
        assert len(returns) == 2
        assert len(set(returns.values())) == 1


class TestFullPipelineMutex:
    """Lock -> engine -> trace -> spec -> resilience report, in one flow."""

    def test_storm_and_report(self):
        n = 3
        lock = default_time_resilient_mutex(n, delta=1.0)
        timing = FailureWindowTiming(
            ConstantTiming(0.25),
            [failure_window(3.0, 9.0, stretch=20.0)],
        )
        engine = Engine(delta=1.0, timing=timing, max_time=50_000.0)
        for pid in range(n):
            engine.spawn(
                mutex_session(lock, pid, 5, cs_duration=0.2, ncs_duration=0.3),
                pid=pid,
            )
        run = engine.run()
        verdict = check_mutex(run.trace)
        assert verdict.safe
        report = check_resilience(run.trace, psi_deltas=8.0)
        assert report.safety_ok and report.converged


class TestFullPipelineUniversal:
    """Universal object -> trace -> history -> linearizability check."""

    def test_queue_pipeline(self):
        queue = Universal(n=2, delta=1.0, model=QueueModel(), object_id="q")
        engine = Engine(delta=1.0, timing=ConstantTiming(0.5),
                        max_time=100_000.0)

        def client(pid, script):
            handle = queue.client(pid)
            out = []
            for name, args in script:
                out.append((yield from handle.invoke(name, *args)))
            return out

        engine.spawn(client(0, [("enqueue", (1,)), ("enqueue", (2,))]), pid=0)
        engine.spawn(client(1, [("dequeue", ()), ("dequeue", ())]), pid=1)
        run = engine.run()
        history = history_from_trace(run.trace, obj="q")
        assert check_linearizability(history, QueueModel()).ok


class TestCheckerFindsInjectedBug:
    """End-to-end negative control: the toolchain detects a broken lock."""

    def test_broken_fischer_detected_everywhere(self):
        from repro.sim import HookTiming, stall_write_to

        # The targeted stall from E13's scenario: the simulator exhibits
        # the overlap...
        lock = FischerLock(delta=1.0)
        hook = stall_write_to(lock.x.name, duration=3.0, pids=[0], count=1)
        engine = Engine(delta=1.0, timing=HookTiming(ConstantTiming(0.4), hook))
        for pid in range(2):
            engine.spawn(
                mutex_session(lock, pid, 1, cs_duration=4.0), pid=pid
            )
        run = engine.run()
        verdict = check_mutex(run.trace)
        assert not verdict.safe  # the simulator run shows the overlap

        # ...and the model checker proves some interleaving always exists.
        res = explore(
            {pid: (lambda p: mutex_session(lock, p, sessions=1, cs_duration=1.0))
             for pid in range(2)},
            [MutualExclusionProperty()],
            max_ops=25,
        )
        assert not res.ok
