"""Unit tests for registers, arrays, namespaces and memory."""

import pytest

from repro.chaos.plan import Campaign
from repro.chaos.runner import SimTarget, run_sim
from repro.sim import ConstantTiming, Engine, ops
from repro.sim.registers import Array, Memory, Register, RegisterNamespace
from repro.verify import explore


class TestRegister:
    def test_equality_by_name(self):
        assert Register("a", 0) == Register("a", 0)
        assert Register("a") != Register("b")

    def test_hashable(self):
        assert len({Register("a"), Register("a"), Register("b")}) == 2

    def test_read_write_op_builders(self):
        r = Register("a", 5)
        assert r.read().register == r
        op = r.write(9)
        assert op.register == r and op.value == 9


class TestArray:
    def test_single_index(self):
        arr = Array("x", initial=0)
        reg = arr[3]
        assert reg.name == ("x", 3)
        assert reg.initial == 0

    def test_multi_index_matches_paper_notation(self):
        arr = Array("x", initial=0)
        reg = arr[2, 1]  # x[r, v]
        assert reg.name == ("x", 2, 1)

    def test_initial_inherited(self):
        arr = Array("y", initial=None)
        assert arr[10].initial is None

    def test_unbounded_indices(self):
        arr = Array("x")
        assert arr[10**9].name == ("x", 10**9)


class TestMemory:
    def test_read_unwritten_returns_initial(self):
        mem = Memory()
        assert mem.read(Register("a", 42)) == 42

    def test_write_then_read(self):
        mem = Memory()
        r = Register("a", 0)
        mem.write(r, 7)
        assert mem.read(r) == 7

    def test_conflicting_initials_rejected(self):
        mem = Memory()
        mem.read(Register("a", 0))
        with pytest.raises(ValueError):
            mem.read(Register("a", 1))

    # Each accessor checks the handle on its own, whichever touched first.

    ACCESSES = {
        "read": lambda mem, reg: mem.read(reg),
        "write": lambda mem, reg: mem.write(reg, 5),
        "rmw": lambda mem, reg: mem.rmw(reg, lambda old: (old + 1, old)),
    }

    @pytest.mark.parametrize("first", sorted(ACCESSES))
    @pytest.mark.parametrize("then", sorted(ACCESSES))
    def test_conflicting_initials_rejected_on_every_access(self, first, then):
        mem = Memory()
        self.ACCESSES[first](mem, Register("a", 0))
        before = (mem.snapshot(), mem.read_count, mem.write_count, mem.rmw_count)
        with pytest.raises(ValueError, match="conflicting initial values: 0 vs 1"):
            self.ACCESSES[then](mem, Register("a", 1))
        # Rejected before it counted or changed anything.
        assert (mem.snapshot(), mem.read_count, mem.write_count, mem.rmw_count) == before

    def test_equal_initials_that_are_distinct_objects_agree(self):
        mem = Memory()
        mem.write(Register("a", [0, 0]), [1, 0])
        assert mem.rmw(Register("a", [0, 0]), lambda old: (old, old)) == [1, 0]
        assert mem.read(Register("a", [0, 0])) == [1, 0]
        assert mem.touched_registers == {"a"}

    # The interpreters must keep asking Memory: a faster step that stopped
    # going through Memory.read/write would drop the check silently.

    @staticmethod
    def conflicting_programs():
        def program(pid):
            yield ops.read(Register("a", pid))  # one name, two initial values

        return {0: program, 1: program}

    def test_conflicting_initials_rejected_through_run_sim(self):
        def build():
            return self.conflicting_programs(), [], {}

        target = SimTarget("conflict", "one name, two initials", build,
                           max_ops=5, pids=(0, 1), expect_violation=False)
        with pytest.raises(ValueError, match="conflicting initial"):
            run_sim(target, Campaign(substrate="sim", seed="conflict"), run_seed="0")

    def test_conflicting_initials_rejected_through_explore(self):
        with pytest.raises(ValueError, match="conflicting initial"):
            explore(self.conflicting_programs(), [], max_ops=5)

    def test_conflicting_initials_rejected_through_the_engine(self):
        def program(pid):
            yield ops.write(Register("a", pid), pid)

        eng = Engine(delta=1.0, timing=ConstantTiming(0.5))
        for pid in (0, 1):
            eng.spawn(program(pid), pid=pid)
        with pytest.raises(ValueError, match="conflicting initial"):
            eng.run()

    def test_register_count_tracks_touches(self):
        mem = Memory()
        mem.read(Register("a"))
        mem.write(Register("b"), 1)
        mem.read(Register("a"))
        assert mem.register_count == 2
        assert mem.touched_registers == {"a", "b"}

    def test_read_write_counts(self):
        mem = Memory()
        r = Register("a")
        mem.write(r, 1)
        mem.read(r)
        mem.read(r)
        assert mem.write_count == 1
        assert mem.read_count == 2

    def test_peek_poke_do_not_touch(self):
        mem = Memory()
        r = Register("a", 3)
        assert mem.peek(r) == 3
        mem.poke(r, 9)
        assert mem.peek(r) == 9
        assert mem.register_count == 0

    def test_snapshot_is_a_copy(self):
        mem = Memory()
        r = Register("a")
        mem.write(r, 1)
        snap = mem.snapshot()
        snap["a"] = 99
        assert mem.read(r) == 1


class TestFingerprint:
    def test_empty_memory_fingerprint(self):
        assert Memory().fingerprint() == ()

    def test_write_back_to_initial_matches_unwritten(self):
        """'Restored to default' and 'never written' must coincide."""
        mem1 = Memory()
        r = Register("a", 0)
        mem1.write(r, 5)
        mem1.write(r, 0)
        mem2 = Memory()
        mem2.read(r)
        assert mem1.fingerprint() == mem2.fingerprint()

    def test_different_values_differ(self):
        r = Register("a", 0)
        mem1, mem2 = Memory(), Memory()
        mem1.write(r, 1)
        mem2.write(r, 2)
        assert mem1.fingerprint() != mem2.fingerprint()

    def test_fingerprint_hashable_with_list_values(self):
        mem = Memory()
        mem.write(Register("a"), [1, 2, [3]])
        hash(mem.fingerprint())  # must not raise

    def test_fingerprint_hashable_with_dict_values(self):
        mem = Memory()
        mem.write(Register("a"), {"k": [1]})
        hash(mem.fingerprint())


class TestRegisterNamespace:
    def test_prefixes_names(self):
        ns = RegisterNamespace("alg")
        assert ns.register("x").name == ("alg", "x")

    def test_array_prefixed(self):
        ns = RegisterNamespace("alg")
        assert ns.array("x")[1, 0].name == (("alg", "x"), 1, 0)

    def test_child_namespaces_disjoint(self):
        ns = RegisterNamespace("a")
        r1 = ns.child("one").register("x")
        r2 = ns.child("two").register("x")
        assert r1 != r2

    def test_two_namespaces_do_not_collide_in_memory(self):
        mem = Memory()
        a = RegisterNamespace("A").register("x", 0)
        b = RegisterNamespace("B").register("x", 0)
        mem.write(a, 1)
        assert mem.read(b) == 0
