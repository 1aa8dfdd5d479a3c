"""Unit tests for traces and their queries."""

import pytest

from repro.sim import ops
from repro.sim.trace import EventKind, Trace, TraceEvent


def ev(seq, pid, kind, issued, completed, register=None, value=None, label=None,
       exceeded=False):
    return TraceEvent(
        seq=seq,
        pid=pid,
        kind=kind,
        issued=issued,
        completed=completed,
        register=register,
        value=value,
        label=label,
        exceeded_delta=exceeded,
    )


def lbl(seq, pid, kind, t, value=None):
    return ev(seq, pid, EventKind.LABEL, t, t, label=kind, value=value)


class TestRecordContract:
    """``TraceEvent`` is an immutable, tuple-backed record."""

    def test_fields_cannot_be_assigned(self):
        e = ev(0, 0, EventKind.READ, 0.0, 1.0)
        for name in TraceEvent._fields:
            with pytest.raises(AttributeError):
                setattr(e, name, 1)
        with pytest.raises(AttributeError):
            e.extra = 1

    def test_keyword_and_positional_construction_agree(self):
        assert ev(3, 1, EventKind.WRITE, 1.0, 2.0, ("ns", "x"), 7, None, True) == (
            TraceEvent(3, 1, EventKind.WRITE, 1.0, 2.0, ("ns", "x"), 7, None, True)
        )

    def test_defaults(self):
        e = TraceEvent(0, 0, EventKind.CRASH, 1.0, 1.0)
        assert (e.register, e.value, e.label, e.exceeded_delta) == (None, None, None, False)
        assert TraceEvent._fields == (
            "seq", "pid", "kind", "issued", "completed",
            "register", "value", "label", "exceeded_delta",
        )

    def test_equality_and_hash_by_value(self):
        a = ev(1, 0, EventKind.READ, 0.0, 0.5, register="x", value=0)
        b = ev(1, 0, EventKind.READ, 0.0, 0.5, register="x", value=0)
        c = ev(2, 0, EventKind.READ, 0.0, 0.5, register="x", value=0)
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2
        # A NamedTuple *is* a tuple: it also equals the plain tuple of its fields.
        assert a == tuple(a) == (1, 0, EventKind.READ, 0.0, 0.5, "x", 0, None, False)

    def test_derived_properties(self):
        e = ev(0, 0, EventKind.WRITE, 1.0, 3.5)
        assert e.duration == 2.5
        assert e.is_shared
        assert not lbl(1, 0, ops.CS_ENTER, 1.0).is_shared

    def test_repr_is_the_compact_form(self):
        assert repr(lbl(3, 1, ops.CS_ENTER, 2.0, value=7)) == (
            "<#3 p1 label cs_enter = 7 @[2.000,2.000]>"
        )
        assert repr(
            ev(4, 0, EventKind.READ, 1.0, 3.5, register=("ns", "x", 1), value=0,
               exceeded=True)
        ) == "<#4 p0 read ('ns', 'x', 1) = 0 @[1.000,3.500] !Δ>"
        assert repr(ev(5, 2, EventKind.CRASH, 4.25, 4.25)) == "<#5 p2 crash @[4.250,4.250]>"


class TestBasics:
    def test_append_order_enforced(self):
        tr = Trace(delta=1.0)
        tr.append(ev(0, 0, EventKind.READ, 0.0, 1.0))
        with pytest.raises(ValueError, match="completion order: 0.5 after 1.0"):
            tr.append(ev(1, 0, EventKind.READ, 0.0, 0.5))
        assert len(tr) == 1

    def test_finalize_blocks_append(self):
        tr = Trace(delta=1.0)
        tr.finalize()
        with pytest.raises(RuntimeError, match="already finalized"):
            tr.append(ev(0, 0, EventKind.READ, 0.0, 1.0))

    def test_delta_positive(self):
        with pytest.raises(ValueError):
            Trace(delta=0)

    def test_end_time(self):
        tr = Trace(delta=1.0)
        assert tr.end_time == 0.0
        tr.append(ev(0, 0, EventKind.READ, 0.0, 2.5))
        assert tr.end_time == 2.5

    def test_for_pid_and_pids(self):
        tr = Trace(delta=1.0)
        tr.append(ev(0, 0, EventKind.READ, 0.0, 0.5))
        tr.append(ev(1, 1, EventKind.WRITE, 0.0, 0.6))
        assert len(tr.for_pid(0)) == 1
        assert tr.pids() == {0, 1}

    def test_shared_step_count(self):
        tr = Trace(delta=1.0)
        tr.append(ev(0, 0, EventKind.READ, 0.0, 0.5))
        tr.append(ev(1, 0, EventKind.DELAY, 0.5, 1.5))
        tr.append(ev(2, 0, EventKind.WRITE, 1.5, 2.0))
        assert tr.shared_step_count() == 2
        assert tr.shared_step_count(0) == 2
        assert tr.shared_step_count(1) == 0

    def test_events_between(self):
        tr = Trace(delta=1.0)
        for i in range(5):
            tr.append(ev(i, 0, EventKind.READ, float(i), float(i) + 0.5))
        between = tr.events_between(1.4, 3.6)
        assert [e.seq for e in between] == [1, 2, 3]


class TestTimingFailures:
    def test_detection_and_last_time(self):
        tr = Trace(delta=1.0)
        tr.append(ev(0, 0, EventKind.READ, 0.0, 0.5))
        tr.append(ev(1, 0, EventKind.WRITE, 0.5, 3.0, exceeded=True))
        tr.append(ev(2, 0, EventKind.READ, 3.0, 3.5))
        assert len(tr.timing_failures()) == 1
        assert tr.last_failure_time == 3.0

    def test_no_failures(self):
        tr = Trace(delta=1.0)
        tr.append(ev(0, 0, EventKind.READ, 0.0, 0.5))
        assert tr.last_failure_time == 0.0


class TestDecisions:
    def test_decisions_from_labels(self):
        tr = Trace(delta=1.0)
        tr.append(lbl(0, 0, ops.DECIDED, 2.0, value=1))
        tr.append(lbl(1, 1, ops.DECIDED, 3.0, value=1))
        assert tr.decisions() == {0: (2.0, 1), 1: (3.0, 1)}
        assert tr.decision_time(1) == 3.0
        assert tr.decision_time(9) is None

    def test_first_decision_kept(self):
        tr = Trace(delta=1.0)
        tr.append(lbl(0, 0, ops.DECIDED, 2.0, value=1))
        tr.append(lbl(1, 0, ops.DECIDED, 3.0, value=1))
        assert tr.decisions()[0] == (2.0, 1)


class TestCsIntervals:
    def test_matched_pairs(self):
        tr = Trace(delta=1.0)
        tr.append(lbl(0, 0, ops.CS_ENTER, 1.0))
        tr.append(lbl(1, 0, ops.CS_EXIT, 2.0))
        tr.append(lbl(2, 1, ops.CS_ENTER, 3.0))
        tr.append(lbl(3, 1, ops.CS_EXIT, 4.0))
        ivs = tr.cs_intervals()
        assert [(iv.pid, iv.enter, iv.exit) for iv in ivs] == [(0, 1.0, 2.0), (1, 3.0, 4.0)]
        assert ivs[0].session == 0

    def test_unmatched_enter_closes_at_end(self):
        tr = Trace(delta=1.0)
        tr.append(lbl(0, 0, ops.CS_ENTER, 1.0))
        tr.append(lbl(1, 1, ops.CS_ENTER, 5.0))
        ivs = tr.cs_intervals()
        assert all(iv.exit == 5.0 for iv in ivs)

    def test_double_enter_rejected(self):
        tr = Trace(delta=1.0)
        tr.append(lbl(0, 0, ops.CS_ENTER, 1.0))
        tr.append(lbl(1, 0, ops.CS_ENTER, 2.0))
        with pytest.raises(ValueError):
            tr.cs_intervals()

    def test_exit_without_enter_rejected(self):
        tr = Trace(delta=1.0)
        tr.append(lbl(0, 0, ops.CS_EXIT, 1.0))
        with pytest.raises(ValueError):
            tr.cs_intervals()

    def test_sessions_numbered(self):
        tr = Trace(delta=1.0)
        for i, (enter, exit_) in enumerate([(1.0, 2.0), (3.0, 4.0)]):
            tr.append(lbl(2 * i, 0, ops.CS_ENTER, enter))
            tr.append(lbl(2 * i + 1, 0, ops.CS_EXIT, exit_))
        assert [iv.session for iv in tr.cs_intervals()] == [0, 1]

    def test_overlap_detection_helper(self):
        tr = Trace(delta=1.0)
        tr.append(lbl(0, 0, ops.CS_ENTER, 1.0))
        tr.append(lbl(1, 1, ops.CS_ENTER, 1.5))
        tr.append(lbl(2, 0, ops.CS_EXIT, 2.0))
        tr.append(lbl(3, 1, ops.CS_EXIT, 2.5))
        a, b = tr.cs_intervals()
        assert a.overlaps(b) and b.overlaps(a)


class TestSpans:
    def test_entry_spans(self):
        tr = Trace(delta=1.0)
        tr.append(lbl(0, 0, ops.ENTRY_START, 0.5))
        tr.append(lbl(1, 0, ops.CS_ENTER, 2.0))
        assert tr.entry_spans() == [(0, 0.5, 2.0)]

    def test_truncated_entry_span(self):
        tr = Trace(delta=1.0)
        tr.append(lbl(0, 0, ops.ENTRY_START, 0.5))
        tr.append(lbl(1, 1, ops.CS_ENTER, 4.0))
        spans = tr.entry_spans(pid=0)
        assert spans == [(0, 0.5, 4.0)]  # runs to end of trace

    def test_exit_spans(self):
        tr = Trace(delta=1.0)
        tr.append(lbl(0, 0, ops.CS_EXIT, 1.0))
        tr.append(lbl(1, 0, ops.EXIT_DONE, 1.5))
        assert tr.exit_spans() == [(0, 1.0, 1.5)]


class TestRegisterHistory:
    def test_filtered_by_register(self):
        tr = Trace(delta=1.0)
        tr.append(ev(0, 0, EventKind.WRITE, 0.0, 0.5, register="a", value=1))
        tr.append(ev(1, 1, EventKind.READ, 0.5, 1.0, register="b", value=0))
        tr.append(ev(2, 1, EventKind.READ, 1.0, 1.5, register="a", value=1))
        hist = tr.register_history("a")
        assert [e.seq for e in hist] == [0, 2]
        assert tr.registers_touched() == {"a", "b"}
