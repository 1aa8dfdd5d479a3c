"""Wall-clock tests for the RMW primitives and primitive-based locks."""

from repro.algorithms import CasConsensus, TicketLock, mutex_session
from repro.sim import Register, fetch_and_add

from .test_threaded import Run


class TestThreadedRmw:
    def test_concurrent_fetch_and_add_never_loses_updates(self):
        counter = Register("tc", 0)
        per_program = 50
        programs = 4

        def incrementer(pid):
            observed = []
            for _ in range(per_program):
                observed.append((yield fetch_and_add(counter, 1)))
            return observed

        res = Run({pid: incrementer(pid) for pid in range(programs)},
                  time_scale=1e-4)
        assert res.memory.peek(counter) == programs * per_program
        all_observed = sorted(v for vs in res.returns.values() for v in vs)
        assert all_observed == list(range(programs * per_program))
        # The loop really did interleave them: no program ran start to
        # finish before the next began.
        assert all(vs != list(range(vs[0], vs[0] + per_program))
                   for vs in res.returns.values())

    def test_cas_consensus_on_threads(self):
        algo = CasConsensus()
        res = Run({pid: algo.propose(pid, v)
                   for pid, v in enumerate([10, 20, 30])},
                  time_scale=1e-4, timeout=30.0)
        decisions = set(res.returns.values())
        assert len(res.returns) == 3
        assert len(decisions) == 1
        assert decisions.pop() in (10, 20, 30)

    def test_ticket_lock_on_threads(self):
        lock = TicketLock()
        n = 3
        res = Run({
            pid: mutex_session(lock, pid, sessions=4, cs_duration=0.2,
                               ncs_duration=0.1)
            for pid in range(n)
        }, time_scale=1e-4)
        assert not res.cs_overlap_detected()
        assert res.returns == {pid: 4 for pid in range(n)}
        # FIFO dispenser state is consistent.
        assert res.memory.peek(lock.next_ticket) == n * 4
        assert res.memory.peek(lock.now_serving) == n * 4
