"""Unit tests for traces and their queries."""

import pickle
import tracemalloc
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import ops
from repro.sim.trace import FAULT_PID, CsInterval, EventKind, Trace, TraceEvent


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


class TestFinalizedViews:
    """A finalized trace computes its all-pid views once, hands out copies."""

    def build(self):
        tr = Trace(delta=1.0)
        tr.append(lbl(0, 0, ops.ENTRY_START, 0.5))
        tr.append(lbl(1, 0, ops.CS_ENTER, 1.0))
        tr.append(lbl(2, 1, ops.ENTRY_START, 1.5))
        tr.append(lbl(3, 0, ops.CS_EXIT, 2.0))
        return tr

    def test_views_unchanged_by_finalize(self):
        open_trace, closed = self.build(), self.build()
        closed.finalize()
        for _ in range(2):
            assert closed.cs_intervals() == open_trace.cs_intervals()
            assert closed.entry_spans() == open_trace.entry_spans()
        assert closed.cs_intervals(pid=1) == [] and closed.entry_spans(pid=0) == [(0, 0.5, 1.0)]

    def test_callers_get_copies(self):
        tr = self.build()
        tr.finalize()
        tr.cs_intervals().clear()
        tr.entry_spans().append((9, 0.0, 0.0))
        assert len(tr.cs_intervals()) == 1
        assert tr.entry_spans() == [(0, 0.5, 1.0), (1, 1.5, 2.0)]

    def test_open_trace_sees_new_events(self):
        tr = self.build()
        assert len(tr.entry_spans()) == 2
        tr.append(lbl(4, 1, ops.CS_ENTER, 3.0))
        assert tr.entry_spans()[-1] == (1, 1.5, 3.0)
        assert len(tr.cs_intervals()) == 2


class TestRegisterHistory:
    def test_filtered_by_register(self):
        tr = Trace(delta=1.0)
        tr.append(ev(0, 0, EventKind.WRITE, 0.0, 0.5, register="a", value=1))
        tr.append(ev(1, 1, EventKind.READ, 0.5, 1.0, register="b", value=0))
        tr.append(ev(2, 1, EventKind.READ, 1.0, 1.5, register="a", value=1))
        hist = tr.register_history("a")
        assert [e.seq for e in hist] == [0, 2]
        assert tr.registers_touched() == {"a", "b"}


# -- the packed trace against the list of records it replaced ---------------


class ListTrace:
    """The reference: a plain list of :class:`TraceEvent`, scanned per query.

    The layout :class:`Trace` had before its packed columns; ``pids``
    leaves out the fault pseudo-pid, as the packed trace does.
    """

    def __init__(self):
        self.rows = []
        self.finalized = False

    def append(self, event):
        if self.finalized:
            raise RuntimeError("trace already finalized")
        if self.rows and event.completed < self.rows[-1].completed:
            raise ValueError(
                f"events must be appended in completion order: "
                f"{event.completed} after {self.rows[-1].completed}"
            )
        self.rows.append(event)

    def finalize(self):
        self.finalized = True

    @property
    def end_time(self):
        return self.rows[-1].completed if self.rows else 0.0

    def for_pid(self, pid):
        return [e for e in self.rows if e.pid == pid]

    def pids(self):
        return {e.pid for e in self.rows if e.pid != FAULT_PID}

    def shared_events(self, pid=None):
        return [e for e in self.rows if e.is_shared and (pid is None or e.pid == pid)]

    def shared_step_count(self, pid=None):
        return len(self.shared_events(pid))

    def labels(self, kind=None):
        return [
            e for e in self.rows
            if e.kind == EventKind.LABEL and (kind is None or e.label == kind)
        ]

    def registers_touched(self):
        return {e.register for e in self.rows if e.register is not None}

    def timing_failures(self):
        return [e for e in self.rows if e.exceeded_delta]

    @property
    def last_failure_time(self):
        failures = self.timing_failures()
        return failures[-1].completed if failures else 0.0

    def restarts(self, pid=None):
        return [
            e for e in self.rows
            if e.kind == EventKind.RESTART and (pid is None or e.pid == pid)
        ]

    @property
    def last_restart_time(self):
        restarts = self.restarts()
        return restarts[-1].completed if restarts else 0.0

    def decisions(self):
        out = {}
        for e in self.labels(ops.DECIDED):
            out.setdefault(e.pid, (e.completed, e.value))
        return out

    def decision_time(self, pid):
        decision = self.decisions().get(pid)
        return None if decision is None else decision[0]

    def _open_spans(self, pid, opener, closer, on_close, twice):
        """The walk ``cs_intervals`` and ``entry_spans`` share: ``opener``
        labels open a span, ``closer`` labels close it, a crash followed by
        a restart closes it at the crash, and the rest run to the end."""
        open_by_pid, crashed_open = {}, {}
        for e in self.rows:
            if e.kind == EventKind.CRASH and e.pid in open_by_pid:
                crashed_open[e.pid] = (open_by_pid.pop(e.pid), e.completed)
            elif e.kind == EventKind.RESTART and e.pid in crashed_open:
                start, crash = crashed_open.pop(e.pid)
                on_close(e.pid, start, crash)
            elif e.kind != EventKind.LABEL or (pid is not None and e.pid != pid):
                continue
            elif e.label == opener:
                if e.pid in open_by_pid:
                    raise ValueError(twice.format(e.pid))
                open_by_pid[e.pid] = e.completed
            elif e.label == closer:
                start = open_by_pid.pop(e.pid, None)
                if start is not None:
                    on_close(e.pid, start, e.completed)
                elif opener == ops.CS_ENTER:
                    raise ValueError(f"pid {e.pid} exited CS without entering")
        for open_pid, (start, _crash) in crashed_open.items():
            open_by_pid.setdefault(open_pid, start)
        return open_by_pid

    def cs_intervals(self, pid=None):
        sessions, intervals = {}, []

        def close(p, enter, exit_time):
            sessions[p] = sessions.get(p, 0) + 1
            intervals.append(CsInterval(p, enter, exit_time, sessions[p] - 1))

        still_open = self._open_spans(
            pid, ops.CS_ENTER, ops.CS_EXIT, close,
            "pid {} entered CS twice without exiting",
        )
        for p, enter in still_open.items():
            intervals.append(CsInterval(p, enter, self.end_time, sessions.get(p, 0)))
        return sorted(intervals, key=lambda iv: (iv.enter, iv.pid))

    def entry_spans(self, pid=None):
        spans = []
        still_open = self._open_spans(
            pid, ops.ENTRY_START, ops.CS_ENTER,
            lambda p, start, stop: spans.append((p, start, stop)),
            "pid {} started entry twice without entering CS",
        )
        spans += [(p, start, self.end_time) for p, start in still_open.items()]
        return sorted(spans, key=lambda s: (s[1], s[0]))

    def exit_spans(self, pid=None):
        open_by_pid, spans = {}, []
        for e in self.labels():
            if pid is not None and e.pid != pid:
                continue
            if e.label == ops.CS_EXIT:
                open_by_pid[e.pid] = e.completed
            elif e.label == ops.EXIT_DONE:
                start = open_by_pid.pop(e.pid, None)
                if start is not None:
                    spans.append((e.pid, start, e.completed))
        return sorted(spans, key=lambda s: (s[1], s[0]))

    def register_history(self, register):
        return [e for e in self.rows if e.is_shared and e.register == register]

    def events_between(self, start, end):
        return [e for e in self.rows if start <= e.completed <= end]


PIDS = [FAULT_PID, 0, 1, 2]
KINDS = [kind for name, kind in vars(EventKind).items() if name.isupper()]
LABELS = [None, ops.ENTRY_START, ops.CS_ENTER, ops.CS_EXIT, ops.EXIT_DONE,
          ops.DECIDED, "other"]
REGISTERS = [None, "a", ("ns", "x", 1)]
VALUES = [None, 0, 1, "v", ("t", 2)]

draw_events = st.lists(
    st.tuples(
        st.integers(0, 2**40),
        st.sampled_from(PIDS),
        st.sampled_from(KINDS),
        st.sampled_from([0.0, 0.25, 1.5]),  # duration: issued = completed - it
        st.sampled_from([0.0, 0.0, 0.5, 1.0, -0.5]),  # step; equal and backward
        st.sampled_from(REGISTERS),
        st.sampled_from(VALUES),
        st.sampled_from(LABELS),
        st.booleans(),
    ),
    max_size=40,
)


def outcome(call):
    """What a call returns, or the type and message of what it raises (an
    ``IndexError`` names the container, so only its type counts)."""
    try:
        return ("ok", call())
    except IndexError:
        return ("raises", IndexError)
    except (ValueError, RuntimeError) as exc:
        return ("raises", type(exc), str(exc))


def shape(x):
    """``x`` with the type of every part spelled out, so equal values of
    different types (``True`` and ``1``, ``1.0`` and ``1``) differ."""
    if isinstance(x, (list, tuple)):
        return (type(x), tuple(map(shape, x)))
    if isinstance(x, dict):
        return (dict, tuple((shape(k), shape(v)) for k, v in x.items()))
    if isinstance(x, set):
        return (set, frozenset(map(shape, x)))
    if isinstance(x, CsInterval):
        return (CsInterval, shape((x.pid, x.enter, x.exit, x.session)))
    return (type(x), x)


def queries(tr):
    """Every read of a trace, by name, as an :func:`outcome`."""
    views = {
        "end_time": lambda: tr.end_time,
        "pids": tr.pids,
        "shared_step_count": tr.shared_step_count,
        "registers_touched": tr.registers_touched,
        "timing_failures": tr.timing_failures,
        "last_failure_time": lambda: tr.last_failure_time,
        "last_restart_time": lambda: tr.last_restart_time,
        "decisions": tr.decisions,
        "labels": tr.labels,
        "restarts": tr.restarts,
        "shared_events": tr.shared_events,
        "cs_intervals": tr.cs_intervals,
        "entry_spans": tr.entry_spans,
        "exit_spans": tr.exit_spans,
        "events_between": lambda: tr.events_between(0.5, 2.0),
    }
    for pid in PIDS + [7]:
        for name in ("for_pid", "shared_events", "shared_step_count", "restarts",
                     "decision_time", "cs_intervals", "entry_spans", "exit_spans"):
            views[f"{name}({pid})"] = (lambda f, p: lambda: f(p))(getattr(tr, name), pid)
    for label in LABELS[1:]:
        views[f"labels({label})"] = (lambda f, k: lambda: f(k))(tr.labels, label)
    for register in REGISTERS:
        views[f"register_history({register})"] = (
            lambda f, r: lambda: f(r))(tr.register_history, register)
    return {name: shape(outcome(view)) for name, view in views.items()}


def assert_same(tr, ref):
    rows = ref.rows
    n = len(rows)
    assert len(tr) == n
    assert shape(list(tr)) == shape(rows)
    assert shape(tr.events) == shape(tuple(rows))
    for i in range(-n - 2, n + 2):
        assert shape(outcome(lambda: tr[i])) == shape(outcome(lambda: rows[i]))
    for cut in (slice(None), slice(1, -1), slice(None, None, 2),
                slice(None, None, -1), slice(n // 2, None), slice(5, 2)):
        assert shape(tr[cut]) == shape(rows[cut])
    assert queries(tr) == queries(ref)


class TestAgainstTheListOfRecords:
    """The packed trace reads back exactly what a list of records holds."""

    @settings(max_examples=300, deadline=None)
    @given(draw_events)
    def test_every_read_agrees(self, drawn):
        tr, ref = Trace(delta=1.0), ListTrace()
        completed = list(accumulate(step for _, _, _, _, step, *_ in drawn))
        for (seq, pid, kind, duration, _step, register, value, label, exceeded), t in (
            zip(drawn, completed)
        ):
            event = TraceEvent(seq, pid, kind, t - duration, t, register, value,
                               label, exceeded)
            assert outcome(lambda: tr.append(event)) == outcome(lambda: ref.append(event))
        assert_same(tr, ref)
        copy = pickle.loads(pickle.dumps(tr))
        tr.finalize()
        ref.finalize()
        for _ in range(2):  # a finalized trace caches some views
            assert_same(tr, ref)
        after = max(ref.end_time, 0.0) + 1.0
        late = TraceEvent(0, 0, EventKind.READ, after, after)
        assert outcome(lambda: tr.append(late)) == outcome(lambda: ref.append(late))
        # The copy is a trace of its own: same reads, still open, its own columns.
        assert shape(list(copy)) == shape(ref.rows)
        copy.append(late)
        assert copy[-1] == late and len(copy) == len(tr) + 1

    def test_pickle_keeps_delta_finalized_and_the_views(self):
        tr = Trace(delta=0.5)
        tr.append(lbl(0, 0, ops.CS_ENTER, 1.0))
        tr.append(lbl(1, 0, ops.CS_EXIT, 2.0))
        tr.finalize()
        tr.cs_intervals()
        copy = pickle.loads(pickle.dumps(tr))
        assert copy.delta == 0.5 and copy.cs_intervals() == tr.cs_intervals()
        with pytest.raises(RuntimeError, match="already finalized"):
            copy.append(lbl(2, 0, ops.CS_ENTER, 3.0))

    def test_a_field_a_column_cannot_hold_leaves_no_partial_row(self):
        tr = Trace(delta=1.0)
        tr.append(ev(0, 0, EventKind.READ, 0.0, 1.0))
        with pytest.raises(TypeError):
            tr.append(ev(1, "p", EventKind.READ, 1.0, 1.5))
        with pytest.raises(ValueError, match="unknown event kind"):
            tr.append(ev(1, 0, "teleport", 1.0, 1.5))
        assert list(tr) == [ev(0, 0, EventKind.READ, 0.0, 1.0)]
        tr.append(ev(1, 0, EventKind.WRITE, 1.0, 1.5))
        assert [e.seq for e in tr] == [0, 1]

    def test_record_is_append_of_the_fields(self):
        by_record, by_append = Trace(delta=1.0), Trace(delta=1.0)
        event = ev(3, 1, EventKind.WRITE, 1.0, 2.0, ("ns", "x"), 7, None, True)
        by_record.record(*event)
        by_append.append(event)
        by_record.record(4, 1, EventKind.LABEL, 2.0, 2.0, None, 5, ops.CS_ENTER)
        by_append.append(lbl(4, 1, ops.CS_ENTER, 2.0, value=5))
        assert list(by_record) == list(by_append)
        assert by_record.cs_intervals() == by_append.cs_intervals()


def test_a_trace_keeps_at_most_80_bytes_an_event():
    # The packed columns hold ≈ 57 bytes an event; a boxed record in a list
    # (the layout before them) holds ≈ 129 even when every field is a
    # shared object, ≈ 180 with a boxed seq and completion time each.
    n = 20_000
    seqs = list(range(n))
    times = [float(i) for i in range(n)]
    register, value = ("ns", "x", 1), 7
    tr = Trace(delta=1.0)
    record = tr.record
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for seq, t in zip(seqs, times):
            record(seq, 0, EventKind.READ, t, t, register, value)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tr) == n
    assert kept / n <= 80, f"{kept / n:.1f} bytes an event"
