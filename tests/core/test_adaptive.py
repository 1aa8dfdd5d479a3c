"""Tests for the self-tuning Algorithm 3 (§3.3's closing remark)."""

import pytest

from repro.analysis.ablations import embedded_population
from repro.core.adaptive import AdaptiveMutex, default_adaptive_mutex
from repro.algorithms import mutex_session
from repro.sim import ConstantTiming, Engine, RunStatus, UniformTiming
from repro.sim.registers import RegisterNamespace
from repro.spec import check_mutual_exclusion
from repro.verify import MutualExclusionProperty, explore


def run(lock, n, sessions, timing, max_time=100_000.0):
    eng = Engine(delta=1.0, timing=timing, max_time=max_time)
    for pid in range(n):
        eng.spawn(mutex_session(lock, pid, sessions, cs_duration=0.2,
                                ncs_duration=0.2), pid=pid)
    return eng.run()


class TestSafety:
    @pytest.mark.parametrize("estimate", [0.01, 0.5, 5.0])
    def test_exclusion_at_any_estimate(self, estimate):
        lock = default_adaptive_mutex(3, initial_estimate=estimate,
                                      namespace=RegisterNamespace(("ad", estimate)))
        res = run(lock, 3, 3, UniformTiming(0.05, 1.0, seed=1))
        assert res.status is RunStatus.COMPLETED
        assert check_mutual_exclusion(res.trace) == []

    def test_exclusion_on_every_execution_n2(self):
        """Model-checked to the end: safety needs nothing of the estimate.
        The state space is finite because nothing in ``entry`` counts —
        a gate-loop counter once made it grow with every turn."""
        lock = default_adaptive_mutex(2, initial_estimate=0.01,
                                      namespace=RegisterNamespace(("ad", "mc")))
        factories = {pid: (lambda p: mutex_session(lock, p, 1, cs_duration=1.0))
                     for pid in range(2)}
        res = explore(factories, [MutualExclusionProperty()], max_ops=1000)
        assert res.ok and res.complete and res.parked == 0
        assert (res.states, res.transitions) == (3_787, 4_425)

    @pytest.mark.slow
    def test_exclusion_on_every_execution_n3(self):
        """Three processes to the end (about 11 s, 140 MiB; nightly)."""
        lock = default_adaptive_mutex(3, initial_estimate=0.01,
                                      namespace=RegisterNamespace(("ad", "mc3")))
        factories = {pid: (lambda p: mutex_session(lock, p, 1, cs_duration=1.0))
                     for pid in range(3)}
        res = explore(factories, [MutualExclusionProperty()], max_ops=1000,
                      max_states=2_000_000)
        assert res.ok and res.complete and res.parked == 0
        assert (res.states, res.transitions) == (1_433_336, 1_938_393)

    def test_validation(self):
        with pytest.raises(ValueError):
            default_adaptive_mutex(2, initial_estimate=0)
        with pytest.raises(ValueError):
            default_adaptive_mutex(2, initial_estimate=1.0, growth=1.0)


class TestAdaptationArc:
    """Tiny estimate -> doorway breached -> estimate grows -> serialized."""

    def test_estimate_grows_under_breaches(self):
        n = 4
        lock = default_adaptive_mutex(n, initial_estimate=0.01,
                                      namespace=RegisterNamespace("arc1"))
        res = run(lock, n, 10, UniformTiming(0.05, 1.0, seed=3),
                  max_time=2_000.0)
        assert res.status is RunStatus.COMPLETED
        final = res.memory.peek(lock.estimate)
        assert final > 0.01  # contention was sensed and the estimate grew

    def test_population_returns_to_one(self):
        n = 4
        lock = default_adaptive_mutex(n, initial_estimate=0.01,
                                      namespace=RegisterNamespace("arc2"))
        res = run(lock, n, 20, UniformTiming(0.05, 1.0, seed=5),
                  max_time=5_000.0)
        assert res.status is RunStatus.COMPLETED
        # Early phase may flood A; the tail must be serialized again.
        tail = embedded_population(res.trace, since=res.trace.end_time * 0.7)
        assert tail == 1, tail

    def test_good_initial_estimate_never_grows(self):
        n = 3
        lock = default_adaptive_mutex(n, initial_estimate=1.0,
                                      namespace=RegisterNamespace("arc3"))
        res = run(lock, n, 5, UniformTiming(0.05, 1.0, seed=7))
        final = res.memory.peek(lock.estimate)
        assert final == pytest.approx(1.0)

    def test_shrink_restores_optimism(self):
        n = 2
        lock = default_adaptive_mutex(
            n, initial_estimate=4.0, shrink_after=2, shrink_step=0.5,
            namespace=RegisterNamespace("arc4"),
        )
        res = run(lock, n, 8, ConstantTiming(0.2))
        final = res.memory.peek(lock.estimate)
        assert final < 4.0

    def test_ceiling_clamps(self):
        n = 4
        lock = default_adaptive_mutex(
            n, initial_estimate=0.01, ceiling=2.0,
            namespace=RegisterNamespace("arc5"),
        )
        res = run(lock, n, 10, UniformTiming(0.05, 1.0, seed=9),
                  max_time=2_000.0)
        assert res.memory.peek(lock.estimate) <= 2.0


class TestProperties:
    def test_register_count(self):
        lock = default_adaptive_mutex(4, initial_estimate=1.0)
        inner_count = lock.inner.register_count(4)
        assert lock.register_count(4) == inner_count + 3

    def test_timing_based_flag(self):
        lock = default_adaptive_mutex(2, initial_estimate=1.0)
        assert lock.properties.timing_based
        assert lock.properties.exclusion_resilient
