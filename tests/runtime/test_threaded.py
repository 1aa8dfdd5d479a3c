"""The algorithms on the wall clock: ``AsyncioDriver`` over one ``Memory``.

These run against real time; budgets are kept tiny (one model time unit
is 1 ms) and assertions avoid anything scheduler-dependent beyond the
algorithms' own guarantees.  Programs interleave per op — the loop may
switch process after every read and write — so Algorithm 1 must never
disagree and Algorithm 3 must never lose mutual exclusion, whatever
order the event loop picks.
"""

import asyncio

import pytest

from repro.algorithms import BakeryLock, mutex_session
from repro.core.consensus import TimeResilientConsensus, labeled_decision
from repro.core.mutex import default_time_resilient_mutex
from repro.obs.tracer import Tracer
from repro.serve import AsyncioDriver
from repro.sim import ops
from repro.sim.registers import Memory, Register
from repro.sim.timing import measure_host_delta


class Run:
    """Outcome of driving ``{pid: program}`` to completion on one memory."""

    def __init__(self, programs, time_scale=1e-3, timeout=60.0):
        self.memory = Memory()
        self.tracer = Tracer()

        async def body():
            driver = AsyncioDriver(
                memory=self.memory, time_scale=time_scale, tracer=self.tracer
            )
            for pid, program in programs.items():
                driver.spawn(program, pid=pid)
            try:
                return await asyncio.wait_for(driver.wait(), timeout)
            finally:
                await driver.cancel()

        self.returns = asyncio.run(body())

    def labels(self):
        """``(pid, label)`` pairs in the order the loop emitted them."""
        return [(r["pid"], r["label"]) for r in self.tracer.records
                if r["kind"] == "label"]

    def cs_overlap_detected(self):
        """Whether two programs were ever inside their CS at once (one
        loop emits the labels, so their order is the real order)."""
        inside = set()
        for pid, label in self.labels():
            if label == ops.CS_ENTER:
                if inside:
                    return True
                inside.add(pid)
            elif label == ops.CS_EXIT:
                inside.discard(pid)
        return False


class TestExecutorBasics:
    def test_single_program(self):
        x = Register("x", 0)

        def prog(pid):
            v = yield ops.read(x)
            yield ops.write(x, v + 1)
            return v

        res = Run({0: prog(0)}, timeout=10.0)
        assert res.returns == {0: 0}
        assert res.memory.peek(x) == 1

    def test_labels_recorded(self):
        def prog(pid):
            yield ops.label(ops.DECIDED, 42)
            yield ops.read(Register("y", 0))

        res = Run({0: prog(0)}, timeout=10.0)
        assert res.labels() == [(0, ops.DECIDED)]

    def test_errors_reported(self):
        def bad(pid):
            yield ops.read(Register("z", 0))
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            Run({0: bad(0)}, timeout=10.0)

    def test_duplicate_pid_rejected(self):
        def idle():
            yield ops.delay(0.001)

        async def body():
            driver = AsyncioDriver(memory=Memory())
            task = driver.spawn(idle(), pid=0)
            with pytest.raises(ValueError):
                driver.spawn(idle(), pid=0)
            await task

        asyncio.run(body())

    def test_bad_time_unit(self):
        with pytest.raises(ValueError):
            AsyncioDriver(memory=Memory(), time_scale=0)


class TestConsensusOnThreads:
    @pytest.mark.parametrize("trial", range(3))
    def test_agreement_on_real_threads(self, trial):
        consensus = TimeResilientConsensus(delta=2.0)
        n = 4
        res = Run(
            {pid: labeled_decision(consensus.propose(pid, pid % 2))
             for pid in range(n)},
            timeout=30.0,
        )
        decisions = set(res.returns.values())
        assert len(res.returns) == n
        assert len(decisions) == 1
        assert decisions.pop() in (0, 1)

    def test_solo_fast(self):
        consensus = TimeResilientConsensus(delta=1.0)
        res = Run({0: consensus.propose(0, 1)}, timeout=10.0)
        assert res.returns == {0: 1}


class TestMutexOnThreads:
    @pytest.mark.parametrize("trial", range(2))
    def test_algorithm3_no_cs_overlap(self, trial):
        n = 3
        lock = default_time_resilient_mutex(n, delta=2.0)
        res = Run({
            pid: mutex_session(lock, pid, sessions=3, cs_duration=0.5,
                               ncs_duration=0.2)
            for pid in range(n)
        })
        assert not res.cs_overlap_detected()
        assert res.returns == {pid: 3 for pid in range(n)}

    def test_bakery_no_cs_overlap(self):
        n = 3
        lock = BakeryLock(n)
        res = Run({
            pid: mutex_session(lock, pid, sessions=3, cs_duration=0.5,
                               ncs_duration=0.2)
            for pid in range(n)
        })
        assert len(res.returns) == n
        assert not res.cs_overlap_detected()


class TestHostDelta:
    def test_measurement_shape(self):
        report = measure_host_delta(threads=2, steps_per_thread=200)
        assert report.samples > 0
        assert 0 <= report.mean <= report.maximum
        assert report.p50 <= report.p99 <= report.maximum

    def test_optimistic_choice(self):
        report = measure_host_delta(threads=2, steps_per_thread=200)
        assert report.optimistic(0.99) == report.p99
        with pytest.raises(ValueError):
            report.optimistic(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            measure_host_delta(threads=0)
