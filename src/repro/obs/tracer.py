"""The structured tracer: every run event as one canonical record.

Where :class:`~repro.sim.instrument.EngineProbe` aggregates a run into a
handful of counters, a :class:`Tracer` keeps the *sequence*: op spans
with their sim-time start/end, message lifecycles (send → deliver/drop
with link and wire delay), quorum phases, crash/corruption/fault-window
markers.  The trace is what the exporters (:mod:`repro.obs.export`), the
metrics registry (:mod:`repro.obs.metrics`) and the timeliness-graph
miner (:mod:`repro.obs.timeliness`) all consume.

Tracing follows the probe's contract exactly:

* **off by default and free when off** — an :class:`~repro.sim.Engine`
  holds ``_tracer = None`` unless one was passed explicitly or a
  :func:`trace_scope` is active when the engine (or its transport) is
  built, and every emission site guards behind a cached
  ``tracer is not None`` check;
* **pure observation** — an attached tracer never touches the RNGs, the
  heap, or any scheduling decision, so a traced run is bit-identical to
  an untraced one (``tests/obs/test_tracer.py::TestZeroPerturbation``
  asserts probe counter equality);
* **deterministic** — records are canonicalized to JSON-able values at
  emission time, so a fixed seed yields a byte-identical export.

Two ways to attach, mirroring the probe::

    tracer = Tracer()
    Engine(delta=1.0, timing=..., tracer=tracer)        # explicit

    with trace_scope(tracer):                           # ambient
        run_e5()    # every Engine/Transport built inside reports here

Record vocabulary (``kind`` field; every record is a plain dict):

=========  =============================================================
``run``    harness-level run marker: ``substrate`` (``sim`` — timed
           engine, ``net`` — message fabric, ``steps`` — logical-clock
           sandbox), plus context (target, run index, seed, pids)
``engine`` one Engine.run: ``substrate``, ``delta``, ``pids``
``op``     one completed operation: ``op`` (read/write/rmw/delay/local/
           send/recv), ``pid``, ``reg``, ``t0``/``t1`` (issued/
           completed), ``xd`` (exceeded Δ — a timing failure)
``label``  program label (CS_ENTER, DECIDED, ...): ``pid``, ``label``,
           ``t``
``crash``  process crash: ``pid``, ``t``
``restart``  crash-recovery restart (fresh program, persistent
           registers): ``pid``, ``t``
``done``   process completion: ``pid``, ``t``
``fault``  injected memory corruption: ``reg``, ``t``
``send``   message accepted by the transport: ``id``, ``src``, ``dst``,
           ``t`` (send instant), ``arrive`` (scheduled delivery — the
           wire delay is ``arrive - t``)
``drop``   message lost to loss/partition: ``src``, ``dst``, ``t``
``recv``   message collected by a Recv: ``id``, ``src``, ``dst``,
           ``t`` (collect instant), ``arrive``
``phase``  quorum phase boundary: ``pid``, ``phase`` (query/update),
           ``reg``, ``edge`` (start/end), ``t``
``window`` declared fault window: ``start``, ``end``, ``pids`` (null =
           all), ``fault`` (timing/spike/loss/partition)
``violation``  a chaos monitor fired: ``monitor``, ``t``
=========  =============================================================
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "Tracer",
    "active_tracer",
    "canonical",
    "register_name",
    "trace_scope",
]


def canonical(value: Any) -> Any:
    """Fold an arbitrary recorded value into deterministic JSON-able form.

    JSON-native scalars pass through, tuples/lists/dicts recurse (dict
    keys become sorted strings), anything else becomes its ``repr`` —
    which is deterministic because the simulated runs themselves are.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(canonical(item) for item in value)
    if isinstance(value, dict):
        return {str(key): canonical(value[key]) for key in sorted(value, key=str)}
    return repr(value)


def _render_prefix(prefix: Any) -> str:
    """Render a namespace prefix, dropping ``unique()`` discriminators."""
    if isinstance(prefix, tuple) and len(prefix) == 2:
        base, tail = prefix
        if isinstance(tail, int):
            # RegisterNamespace.unique(): (base, N) where N comes from a
            # process-global counter — meaningless across processes.
            return _render_prefix(base)
        return f"{_render_prefix(base)}.{_render_prefix(tail)}"
    return str(prefix)


def register_name(name: Any) -> Any:
    """Stable, human-level rendering of a register name for trace records.

    The repo's naming conventions (see :mod:`repro.sim.registers` and
    ``repro.sim.adversary.register_leaf``) produce ``(namespace,
    "leaf")`` for plain registers and ``((namespace, "leaf"), idx...)``
    for array cells, where a default namespace is ``(base, N)`` with
    ``N`` drawn from a **process-global** counter.  That counter depends
    on how many algorithm instances the process has built — it differs
    between worker topologies and between repeated runs in one
    interpreter — so it is dropped here; child-namespace suffixes and
    array indices are kept.  Flat names pass through unchanged.
    """
    if isinstance(name, tuple) and name:
        if isinstance(name[-1], str):
            return f"{_render_prefix(name[0])}.{name[-1]}"
        head = name[0]
        if isinstance(head, tuple) and head and isinstance(head[-1], str):
            indices = ",".join(str(part) for part in name[1:])
            return f"{register_name(head)}[{indices}]"
    return name


class Tracer:
    """Accumulates structured trace records across one or more runs.

    Emission methods canonicalize their arguments immediately, so
    :attr:`records` is always a list of plain, picklable, JSON-able
    dicts in emission order — the order IS the trace's sequence (there
    is no per-record sequence number, which is what lets per-shard
    traces concatenate into the sequential byte stream).
    """

    __slots__ = ("records", "_clock")

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._clock = None

    # -- clock ----------------------------------------------------------------

    def bind_clock(self, clock: Any) -> None:
        """Attach the engine's virtual clock so free-floating emitters
        (the quorum phases, which run inside generator code) can stamp
        records with the current virtual time."""
        self._clock = clock

    def now(self) -> float:
        return self._clock.now if self._clock is not None else 0.0

    # -- emission -------------------------------------------------------------

    def run_marker(self, substrate: str, **context: Any) -> None:
        record: Dict[str, Any] = {"kind": "run", "substrate": substrate}
        for key in sorted(context):
            record[key] = canonical(context[key])
        self.records.append(record)

    def engine_run(self, substrate: str, delta: float, pids: List[int]) -> None:
        self.records.append(
            {"kind": "engine", "substrate": substrate, "delta": delta,
             "pids": sorted(pids)}
        )

    def op(
        self,
        op: str,
        pid: int,
        reg: Any,
        t0: float,
        t1: float,
        xd: bool = False,
    ) -> None:
        self.records.append(
            {"kind": "op", "op": op, "pid": pid,
             "reg": canonical(register_name(reg)),
             "t0": t0, "t1": t1, "xd": xd}
        )

    def label(self, pid: int, label: str, t: float) -> None:
        self.records.append({"kind": "label", "pid": pid, "label": label, "t": t})

    def crash(self, pid: int, t: float) -> None:
        self.records.append({"kind": "crash", "pid": pid, "t": t})

    def restart(self, pid: int, t: float) -> None:
        self.records.append({"kind": "restart", "pid": pid, "t": t})

    def done(self, pid: int, t: float) -> None:
        self.records.append({"kind": "done", "pid": pid, "t": t})

    def fault(self, reg: Any, t: float) -> None:
        self.records.append(
            {"kind": "fault", "reg": canonical(register_name(reg)), "t": t}
        )

    def msg_send(self, msg_id: int, src: int, dst: int, t: float, arrive: float) -> None:
        self.records.append(
            {"kind": "send", "id": msg_id, "src": src, "dst": dst,
             "t": t, "arrive": arrive}
        )

    def msg_drop(self, src: int, dst: int, t: float) -> None:
        self.records.append({"kind": "drop", "src": src, "dst": dst, "t": t})

    def msg_recv(self, msg_id: int, src: int, dst: int, t: float, arrive: float) -> None:
        self.records.append(
            {"kind": "recv", "id": msg_id, "src": src, "dst": dst,
             "t": t, "arrive": arrive}
        )

    def phase(self, pid: int, phase: str, reg: Any, edge: str) -> None:
        self.records.append(
            {"kind": "phase", "pid": pid, "phase": phase,
             "reg": canonical(register_name(reg)), "edge": edge,
             "t": self.now()}
        )

    def window(
        self,
        start: float,
        end: float,
        pids: Optional[List[int]],
        fault: str,
    ) -> None:
        self.records.append(
            {"kind": "window", "start": start, "end": end,
             "pids": None if pids is None else sorted(pids), "fault": fault}
        )

    def violation(self, monitor: str, t: float) -> None:
        self.records.append({"kind": "violation", "monitor": monitor, "t": t})

    # -- draining -------------------------------------------------------------

    def take(self) -> List[Dict[str, Any]]:
        """Return the accumulated records and reset the buffer.

        The per-run chunking primitive: campaign loops call this after
        each run so every chunk is attributable to one global run index
        (see :mod:`repro.parallel.merge`).
        """
        records = self.records
        self.records = []
        return records

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"Tracer({len(self.records)} records)"


_ACTIVE: Optional[Tracer] = None


def active_tracer() -> Optional[Tracer]:
    """The tracer engines/transports should attach to, or None (default)."""
    return _ACTIVE


@contextmanager
def trace_scope(tracer: Tracer) -> Iterator[Tracer]:
    """Make ``tracer`` ambient: every Engine/Transport built inside
    attaches to it (the :func:`~repro.sim.instrument.probe_scope`
    pattern; process-global and single-threaded like the simulator)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous
